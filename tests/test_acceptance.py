"""
Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success (pytest -s or -rA shows them); the
stated runtime budgets are asserted where a criterion carries one.
"""

import random
import time
from fractions import Fraction

from braidrep.braid import BraidWord, Permutation, all_permutations
from braidrep.bmw import (
    YoungDiagram,
    bmw_relation_check,
    bratteli_dim,
    sum_sq_dimensions,
)
from braidrep.burau import burau_generator, burau_of_word, kernel_word_b6
from braidrep.garside import (
    _signed_normal_form,
    all_half_permutations,
    gb,
    gb_oracle,
    greedy_normal_form,
    lf_positive,
    positive_fraction,
    random_half_permutation,
    simple_head,
)
from braidrep.laurent import LaurentPoly
from braidrep.lkb import (
    apply_positive_word,
    basis_change_v_of_x,
    generator_action,
    is_trivial,
    length_omega,
    lkb_of_word,
    omega_ball_oracle,
    positive_action,
    w_class,
    words_equal,
)
from braidrep.matrix import RepMatrix
from braidrep.verify import (
    _braid_relation_words,
    random_positive_word,
    random_w_vector,
    rewritten_equivalent,
)

ONE = LaurentPoly.one()
T = LaurentPoly.var_t()


def report(criterion: str, started: float, budget: float | None = None):
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"PASS {criterion} ({elapsed:.2f}s)")


def test_criterion_01_braid_relations():
    started = time.monotonic()
    for n in range(3, 8):
        for name, a, b in _braid_relation_words(n):
            assert burau_of_word(a) == burau_of_word(b), f"burau n={n}: {name}"
            assert lkb_of_word(a) == lkb_of_word(b), f"lkb n={n}: {name}"
    report("criterion 1: braid relations hold exactly for both reps, n=3..7", started, 30.0)


def test_criterion_02_burau_kernel_witness():
    started = time.monotonic()
    word = kernel_word_b6()
    assert len(word) == 44
    assert burau_of_word(word).is_identity()
    assert not lkb_of_word(word).is_identity()
    report("criterion 2: 44-letter B6 word killed by Burau, seen by LKB", started, 10.0)


def test_criterion_03_full_twist_scalar():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        word = BraidWord(n, tuple(range(1, n)) * n)
        image = lkb_of_word(word)
        assert image == RepMatrix.scalar(image.dim, LaurentPoly.monomial(1, 2 * n, 2))
    report("criterion 3: full twist acts by q^(2n) t^2 for n=2..5", started, 60.0)


def test_criterion_04_length_formula_against_bfs():
    started = time.monotonic()
    for n, radius in ((3, 3), (4, 2)):
        ball = omega_ball_oracle(n, radius)
        for depth, word in ball.values():
            computed = length_omega(word)
            assert computed == depth, f"n={n}: {word.letters} -> {computed} != {depth}"
            if computed == 0:
                assert lkb_of_word(word).is_identity()
    report("criterion 4: length formula matches BFS on B3 r=3 and B4 r=2 balls", started, 300.0)


def test_criterion_05_transfer_identity():
    started = time.monotonic()
    pairs = 0
    for x in all_permutations(4):
        wx = x.reduced_word()
        for y in all_permutations(4):
            assert lf_positive(wx * y.reduced_word()) == simple_head(x, y)[0]
            pairs += 1
    assert pairs == 576
    rng = random.Random(1005)
    for _ in range(1000):
        u = random_positive_word(5, 8, rng)
        v = random_positive_word(5, 8, rng)
        assert lf_positive(u * v) == lf_positive(u * lf_positive(v).reduced_word())
    report("criterion 5: LF(xy) == LF(x LF(y)), exhaustive n=4 and 1000 random n=5", started)


def test_criterion_06_action_equivariance():
    started = time.monotonic()
    half_perms = list(all_half_permutations(4))
    assert len(half_perms) < 64  # filtered from all 2^6 subsets
    checked = 0
    for a in half_perms:
        gb_word = gb(4, a).reduced_word()
        for k in (1, 2, 3):
            lhs = gb(4, generator_action(4, k, a))
            rhs = lf_positive(BraidWord(4, (k,)) * gb_word)
            assert lhs == rhs
            checked += 1
    assert checked == 3 * len(half_perms)
    report("criterion 6: GB(xA) == LF(x GB(A)) over all generators x half-permutations, n=4", started)


def test_criterion_07_greatest_braid():
    started = time.monotonic()
    for n in range(2, 6):
        for x in all_permutations(n):
            assert gb(n, x.inversion_set()) == x
    for n in range(2, 6):
        for a in all_half_permutations(n):
            assert gb(n, a) == gb_oracle(n, a)
    report("criterion 7: GB(L(x)) == r(x) and fixpoint == oracle, exhaustive n<=5", started)


def test_criterion_08_w_positivity_and_classes():
    started = time.monotonic()
    rng = random.Random(1008)
    points = (Fraction(1, 2), Fraction(1, 3))
    for _ in range(1000):
        n = rng.randint(3, 5)
        w = random_positive_word(n, 8, rng)
        for row in lkb_of_word(w).entries:
            for e in row:
                const = e.t_constant_term()
                for p in points:
                    assert const.evaluate(p, Fraction(1)) >= 0
    for _ in range(1000):
        a = random_half_permutation(4, rng)
        v = random_w_vector(4, a, rng)
        x = random_positive_word(4, 6, rng)
        assert w_class(apply_positive_word(x, v)) == positive_action(x, a)
    report("criterion 8: entry positivity (1000 words) and w_class tracking (1000 samples)", started)


def test_criterion_09_basis_change_round_trip():
    started = time.monotonic()
    for n in range(2, 7):
        p, q = basis_change_v_of_x(n)
        assert (p * q).is_identity()
        assert (q * p).is_identity()
    report("criterion 9: printed basis-change matrices invert each other, n<=6", started)


def test_criterion_10_hecke_relation():
    started = time.monotonic()
    for n in range(2, 7):
        t_id = RepMatrix.identity(n).scale(T)
        for i in range(1, n):
            g = burau_generator(n, i)
            assert g * g == g.scale(ONE - T) + t_id
    report("criterion 10: Burau satisfies sigma^2 == (1-t) sigma + t, n<=6", started)


def test_criterion_11_bmw_relations():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        report_n = bmw_relation_check(n)
        for check in report_n.checks:
            if check.required:
                assert check.holds, f"n={n}: {check.name}"
    report("criterion 11: cleared-denominator BMW relations hold symbolically, n=2..5", started, 300.0)


def test_criterion_12_bratteli_dimensions():
    started = time.monotonic()
    for n in range(1, 13):
        assert bratteli_dim(n, YoungDiagram.column(n)) == 1
    for n in range(2, 13):
        assert bratteli_dim(n, YoungDiagram.hook(n)) == n - 1
        assert bratteli_dim(n, YoungDiagram.column(n - 2)) == n * (n - 1) // 2
    for n in range(1, 11):
        expected = 1
        for k in range(1, 2 * n, 2):
            expected *= k
        assert sum_sq_dimensions(n) == expected
    report("criterion 12: closed-form dimensions n<=12 and sum of squares == (2n-1)!!", started, 10.0)


def test_criterion_13_word_problem_cross_validation():
    started = time.monotonic()
    rng = random.Random(1013)
    agreements = 0
    for _ in range(1000):
        n = rng.randint(3, 5)
        u = random_positive_word(n, 8, rng)
        if rng.random() < 0.5:
            v = rewritten_equivalent(u, 6, rng)
        else:
            v = random_positive_word(n, 8, rng)
        nf_equal = greedy_normal_form(u) == greedy_normal_form(v)
        lkb_equal = lkb_of_word(u) == lkb_of_word(v)
        assert nf_equal == lkb_equal
        assert words_equal(u, v) == nf_equal
        agreements += 1
    assert agreements == 1000
    report("criterion 13: LKB equality and words_equal == greedy-normal-form equality on 1000 pairs", started)


def test_criterion_14_long_word_rejected_mod_p():
    started = time.monotonic()
    rng = random.Random(1014)
    letters = [rng.choice((1, -1)) * rng.randint(1, 8) for _ in range(400)]
    # a nonzero exponent sum makes the braid nontrivial (abelianization)
    assert sum(1 if e > 0 else -1 for e in letters) != 0
    word = BraidWord(9, tuple(letters))
    letters[200] = -letters[200]
    assert not is_trivial(word)
    assert not words_equal(word, BraidWord(9, tuple(letters)))
    report("criterion 14: n=9 L=400 word nontrivial and unequal to a one-letter flip", started, 5.0)


def _nf_equal(u: BraidWord, v: BraidWord) -> bool:
    """u == v by normal forms: with u = x D^-d and v = x' D^-d', the braids
    agree iff x D^(d'-d) and x' have the same normal form."""
    delta = Permutation.longest(u.n).reduced_word()
    (x, y), (x2, y2) = positive_fraction(u), positive_fraction(v)
    shift = (len(y2) - len(y)) // len(delta)
    for _ in range(shift):
        x = x * delta
    for _ in range(-shift):
        x2 = x2 * delta
    return greedy_normal_form(x) == greedy_normal_form(x2)


def test_criterion_15_signed_equality_by_normal_forms():
    started = time.monotonic()
    rng = random.Random(1015)
    for _ in range(10):
        letters = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(120)]
        word = BraidWord(6, tuple(letters))
        rewrite = rewritten_equivalent(word, 40, rng)
        assert _nf_equal(word, rewrite)
        assert _signed_normal_form(word) == _signed_normal_form(rewrite)
        p = rng.randrange(len(letters))
        letters[p] = -letters[p]
        flip = BraidWord(6, tuple(letters))
        assert not _nf_equal(word, flip)
        assert _signed_normal_form(word) != _signed_normal_form(flip)
        assert not words_equal(word, flip)
    report("criterion 15: signed n=6 L=120 words equal to rewrites, unequal to flips, by normal forms", started, 10.0)


def test_criterion_16_long_word_accepted_by_normal_form():
    started = time.monotonic()
    rng = random.Random(1016)
    word = BraidWord(9, tuple(rng.choice((1, -1)) * rng.randint(1, 8) for _ in range(400)))
    assert is_trivial(word * word.inverse())
    rewrite = rewritten_equivalent(word, 100, rng)
    assert rewrite != word
    assert words_equal(word, rewrite)
    report("criterion 16: n=9 L=400 word: w w^-1 trivial and equal to a rewrite, by both engines", started, 5.0)
