"""
Self-verification suites behind the CLI ``verify`` subcommand.

Each suite returns a list of named pass/fail results.  Randomized checks use
fixed seeds so runs are reproducible; exhaustive checks run at the desk
scales where full enumeration is cheap.  The heavier statistical versions of
these checks (with larger sample counts) live in the acceptance test suite.

``burau-kernel`` proves its "lkb image is not the identity" check with
``is_trivial``: a start vector moved mod 2^61 - 1 that leaves the start proves
it exactly (evaluation is a ring homomorphism), with no exact LKB image.
"""

from __future__ import annotations

import random

from .braid import BraidWord, all_permutations, refpairs
from .bmw import bmw_relation_check
from .burau import (
    burau_generator,
    burau_of_word,
    burau_specialize_t1,
    kernel_word_b6,
    permutation_matrix,
)
from .errors import Frozen, ResourceGuardError
from .garside import (
    all_half_permutations,
    gb,
    gb_oracle,
    greedy_normal_form,
    is_half_permutation,
    lf_positive,
    positive_fraction,
    random_half_permutation,
    simple_head,
)
from .laurent import LaurentPoly
from .lkb import (
    WVector,
    apply_positive_word,
    basis_change_v_of_x,
    full_twist_scalar,
    generator_action,
    is_trivial,
    lkb_generator,
    lkb_of_word,
    positive_action,
    w_class,
)
from .matrix import RepMatrix, mat_det


class CheckResult(Frozen):
    _fields = ("name", "ok")

    def __init__(self, name: str, ok: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)


def random_positive_word(n: int, max_len: int, rng: random.Random) -> BraidWord:
    k = rng.randint(0, max_len)
    return BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(k)))


def random_word(n: int, max_len: int, rng: random.Random) -> BraidWord:
    k = rng.randint(0, max_len)
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(k)
    )
    return BraidWord(n, letters)


def rewritten_equivalent(word: BraidWord, moves: int, rng: random.Random) -> BraidWord:
    """Apply random defining-relation rewrites; the braid is unchanged."""
    letters = list(word.letters)
    for _ in range(moves):
        candidates = []
        for p in range(len(letters) - 1):
            if abs(abs(letters[p]) - abs(letters[p + 1])) >= 2:
                candidates.append(("swap", p))
        for p in range(len(letters) - 2):
            a, b, c = letters[p : p + 3]
            if a == c and abs(a - b) == 1:
                candidates.append(("braid", p))
        if not candidates:
            break
        kind, p = rng.choice(candidates)
        if kind == "swap":
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
        else:
            a, b = letters[p], letters[p + 1]
            letters[p : p + 3] = [b, a, b]
    return BraidWord(word.n, tuple(letters))


def _braid_relation_words(n: int):
    for i in range(1, n - 1):
        yield (
            f"sigma{i} sigma{i+1} sigma{i} == sigma{i+1} sigma{i} sigma{i+1}",
            BraidWord(n, (i, i + 1, i)),
            BraidWord(n, (i + 1, i, i + 1)),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            yield (
                f"sigma{i} sigma{j} == sigma{j} sigma{i}",
                BraidWord(n, (i, j)),
                BraidWord(n, (j, i)),
            )


def suite_relations(n: int) -> list[CheckResult]:
    if not 2 <= n <= 8:
        raise ResourceGuardError(f"relations suite supports 2 <= n <= 8, got {n}")
    out = [
        CheckResult(f"{rep} {name}", image(a) == image(b))
        for rep, image in (("burau", burau_of_word), ("lkb", lkb_of_word))
        for name, a, b in _braid_relation_words(n)
    ]
    one = LaurentPoly.one()
    t = LaurentPoly.var_t()
    for i in range(1, n):
        g = burau_generator(n, i, 1)
        hecke = g * g == g.scale(one - t) + RepMatrix.identity(n).scale(t)
        out.append(CheckResult(f"burau hecke relation at i={i}", hecke))
        out.append(CheckResult(f"burau det(sigma{i}) == -t", mat_det(g) == -t))
    for i in range(1, n):
        for rep, gen in (("burau", burau_generator), ("lkb", lkb_generator)):
            prod = gen(n, i, 1) * gen(n, i, -1)
            out.append(CheckResult(f"{rep} sigma{i} * sigma{i}^-1 == I", prod.is_identity()))
    return out


def suite_burau_kernel() -> list[CheckResult]:
    word = kernel_word_b6()
    burau = burau_of_word(word)
    return [
        CheckResult("kernel word has 44 letters", len(word) == 44),
        CheckResult("burau image is the identity", burau.is_identity()),
        CheckResult("lkb image is not the identity", not is_trivial(word)),
        CheckResult(
            "t=1 specialization matches the permutation image",
            burau_specialize_t1(burau) == permutation_matrix(word.to_permutation()),
        ),
    ]


def suite_garside(n: int) -> list[CheckResult]:
    if not 3 <= n <= 6:
        raise ResourceGuardError(f"garside suite supports 3 <= n <= 6, got {n}")
    rng = random.Random(20_000 + n)
    out = []

    if n <= 4:
        ok = all(
            lf_positive(x.reduced_word() * y.reduced_word()) == simple_head(x, y)[0]
            for x in all_permutations(n)
            for y in all_permutations(n)
        )
        out.append(CheckResult("LF(xy) == head(x, y) on all pairs of simples", ok))
    ok = True
    for _ in range(150):
        u = random_positive_word(n, 8, rng)
        v = random_positive_word(n, 8, rng)
        lf_v = lf_positive(v).reduced_word()
        if lf_positive(u * v) != lf_positive(u * lf_v):
            ok = False
            break
    out.append(CheckResult("LF(xy) == LF(x LF(y)) on random positive words", ok))

    if n <= 5:
        ok = all(gb(n, x.inversion_set()) == x for x in all_permutations(n))
        out.append(CheckResult("GB(L(x)) == x for all permutations", ok))
        ok = all(gb(n, a) == gb_oracle(n, a) for a in all_half_permutations(n))
        out.append(CheckResult("fixpoint GB agrees with the brute-force oracle", ok))

    if n <= 4:
        half_perms = list(all_half_permutations(n))
    else:
        half_perms = [random_half_permutation(n, rng) for _ in range(60)]
    ok_equiv = True
    ok_closed = True
    for a in half_perms:
        for k in range(1, n):
            image = generator_action(n, k, a)
            if not is_half_permutation(n, image):
                ok_closed = False
            word = BraidWord(n, (k,)) * gb(n, a).reduced_word()
            if gb(n, image) != lf_positive(word):
                ok_equiv = False
    out.append(CheckResult("GB(xA) == LF(x GB(A)) over generators x", ok_equiv))
    out.append(CheckResult("the Ref action preserves half-permutations", ok_closed))

    ok = True
    for _ in range(60):
        a = rng.choice(half_perms)
        u = random_positive_word(n, 5, rng)
        v = random_positive_word(n, 5, rng)
        if positive_action(u * v, a) != positive_action(u, positive_action(v, a)):
            ok = False
            break
    out.append(CheckResult("(xy)A == x(yA) on random positive words", ok))

    ok = True
    for _ in range(40):
        u = random_positive_word(n, 8, rng)
        choice = rng.random()
        if choice < 0.5:
            v = rewritten_equivalent(u, 6, rng)
        else:
            v = random_positive_word(n, 8, rng)
        if (greedy_normal_form(u) == greedy_normal_form(v)) != (
            lkb_of_word(u) == lkb_of_word(v)
        ):
            ok = False
            break
    out.append(CheckResult("normal-form equality matches LKB equality", ok))

    ok = True
    for _ in range(25):
        w = random_word(n, 6, rng)
        x, y = positive_fraction(w)
        if not (x.is_positive and y.is_positive):
            ok = False
            break
        if lkb_of_word(w) * lkb_of_word(y) != lkb_of_word(x):
            ok = False
            break
    out.append(CheckResult("positive fraction w == x y^-1 verified by LKB", ok))
    return out


def random_w_vector(
    n: int, pairs: frozenset[tuple[int, int]], rng: random.Random
) -> WVector:
    from fractions import Fraction  # here, not at module level: no cold CLI request needs it

    maps = []
    for pair in refpairs(n):
        coeffs: dict[int, Fraction] = {}
        if pair not in pairs:
            coeffs[0] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        for exp in range(1, rng.randint(1, 3) + 1):
            if rng.random() < 0.6:
                coeffs[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        maps.append(coeffs)
    return WVector.from_maps(n, maps)


def suite_lkb_positivity(n: int) -> list[CheckResult]:
    if not 3 <= n <= 6:
        raise ResourceGuardError(f"lkb-positivity suite supports 3 <= n <= 6, got {n}")
    from fractions import Fraction

    rng = random.Random(30_000 + n)
    points = (Fraction(1, 2), Fraction(1, 3))
    ok = True
    for _ in range(200):
        w = random_positive_word(n, 8, rng)
        matrix = lkb_of_word(w)
        for row in matrix.entries:
            for e in row:
                const = e.t_constant_term()
                if any(const.evaluate(p, Fraction(1)) < 0 for p in points):
                    ok = False
    out = [CheckResult("positive-word entries have nonnegative t-constant terms", ok)]

    m = min(n, 4)
    ok = True
    for _ in range(200):
        a = random_half_permutation(m, rng)
        v = random_w_vector(m, a, rng)
        x = random_positive_word(m, 6, rng)
        if w_class(apply_positive_word(x, v)) != positive_action(x, a):
            ok = False
            break
    out.append(CheckResult("w_class(x v) == positive_action(x, A) on samples", ok))

    p, q = basis_change_v_of_x(n)
    out.append(CheckResult("basis change round trip is the identity", (p * q).is_identity()))
    return out


def suite_full_twist(n: int) -> list[CheckResult]:
    if not 2 <= n <= 6:
        raise ResourceGuardError(f"full-twist suite supports 2 <= n <= 6, got {n}")
    scalar = full_twist_scalar(n)
    expected = LaurentPoly.monomial(1, 2 * n, 2)
    return [CheckResult(f"full twist acts by q^{2*n} t^2", scalar == expected)]


def suite_bmw(n: int) -> list[CheckResult]:
    report = bmw_relation_check(n)
    return [
        CheckResult(f"bmw {c.name}", c.holds) for c in report.checks if c.required
    ] + [
        CheckResult(f"bmw {c.name} (informational)", c.holds)
        for c in report.checks
        if not c.required
    ]


_REGISTRY = {
    "relations": suite_relations,
    "burau-kernel": lambda n: suite_burau_kernel(),
    "garside": suite_garside,
    "lkb-positivity": suite_lkb_positivity,
    "full-twist": suite_full_twist,
    "bmw": suite_bmw,
}

SUITES = (*_REGISTRY, "all")


def run_suite(suite: str, n: int) -> list[CheckResult]:
    if suite in _REGISTRY:
        return _REGISTRY[suite](n)
    if suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    if not 3 <= n <= 5:
        raise ResourceGuardError(f"the combined suite supports 3 <= n <= 5, got {n}")
    return [
        CheckResult(f"{name}: {r.name}", r.ok)
        for name, suite_fn in _REGISTRY.items()
        for r in suite_fn(n)
    ]
