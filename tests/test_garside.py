import itertools
import random

import pytest

from braidrep import garside
from braidrep.braid import BraidWord, Permutation, all_permutations, refpairs
from braidrep.garside import (
    NormalForm,
    _left_weight,
    _signed_normal_form,
    all_half_permutations,
    gb,
    gb_oracle,
    greedy_normal_form,
    half_permutation_from_json,
    half_permutation_to_json,
    is_half_permutation,
    lf_positive,
    positive_fraction,
    random_half_permutation,
    simple_head,
)
from braidrep.lkb import (
    _image_mod_p,
    _t_constant_support,
    generator_action,
    length_omega,
    lkb_generator,
    lkb_of_word,
    positive_action,
)
from braidrep.matrix import t_degree_range
from braidrep.verify import random_positive_word, random_word, rewritten_equivalent


def s(n, i):
    return Permutation.transposition(n, i)


def brute_force_lf(word: BraidWord) -> Permutation:
    """Independent oracle: the longest simple left-dividing the positive word.

    x left-divides w iff some positive word equal to w starts with a reduced
    word of x; decided here with the LKB equality oracle by checking that
    x^-1 w is representable positively, via exhaustive search over short
    positive words of the right length.
    """
    n = word.n
    target = lkb_of_word(word)
    best = Permutation.identity(n)
    for x in all_permutations(n):
        k = len(word) - x.length()
        if k < 0 or x.length() <= best.length():
            continue
        prefix = lkb_of_word(x.reduced_word())
        found = any(
            prefix * lkb_of_word(BraidWord(n, rest)) == target
            for rest in itertools.product(range(1, n), repeat=k)
        )
        if found:
            best = x
    return best


def transfer(u: Permutation, v: Permutation) -> tuple[Permutation, Permutation]:
    """Reference pair step: move the smallest generator that extends u on the
    right and starts v, one at a time, on Permutation objects."""
    while eligible := v.left_descents() - u.right_descents():
        s = Permutation.transposition(u.n, min(eligible))
        u, v = u * s, s * v
    return u, v


def bubble_sweep(factors) -> list[Permutation]:
    """Apply ``transfer`` to all adjacent factor pairs until a sweep changes
    nothing."""
    factors = list(factors)
    changed = True
    while changed:
        changed = False
        for p in range(len(factors) - 1):
            u, v = transfer(factors[p], factors[p + 1])
            if u != factors[p]:
                factors[p], factors[p + 1] = u, v
                changed = True
    return factors


def bubble_normal_form(word: BraidWord) -> tuple[Permutation, ...]:
    """Reference: one transposition per letter, swept by ``bubble_sweep``."""
    factors = bubble_sweep(Permutation.transposition(word.n, e) for e in word.letters)
    return tuple(f for f in factors if not f.is_identity())


def reference_signed_normal_form(word: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reference: one factor per letter, swept by ``bubble_sweep``.

    sigma^-1 = (sigma^-1 Delta) Delta^-1, and Delta^-1 sigma_e = sigma_(n-e)
    Delta^-1, so with m such Delta^-1 counted so far a letter +-e reads index
    e' = e (m even) or n - e (m odd) and appends s_e' (positive) or s_e' w0
    (inverse).  The sweep brings the factors Delta to the front and the
    identities to the back; Delta^p A Delta^-m = Delta^(p-m) (w0^m A w0^m).
    """
    n = word.n
    w0 = Permutation.longest(n)
    factors = []
    m = 0
    for e in word.letters:
        s = Permutation.transposition(n, abs(e) if m % 2 == 0 else n - abs(e))
        if e < 0:
            factors.append(s * w0)
            m += 1
        else:
            factors.append(s)
    factors = bubble_sweep(factors)
    p = 0
    while p < len(factors) and factors[p] == w0:
        p += 1
    rest = [f for f in factors[p:] if not f.is_identity()]
    assert w0 not in rest
    if m % 2:
        rest = [w0 * f * w0 for f in rest]
    return p - m, tuple(f.image for f in rest)


def closure_half_permutation(n: int, rng: random.Random) -> frozenset[tuple[int, int]]:
    """Reference: the same draws as random_half_permutation, closed by
    adding (i, k) for (i, j), (j, k) until nothing is added."""
    pairs = {p for p in refpairs(n) if rng.random() < 0.4}
    changed = True
    while changed:
        changed = False
        for (i, j) in list(pairs):
            for (j2, k) in list(pairs):
                if j2 == j and (i, k) not in pairs:
                    pairs.add((i, k))
                    changed = True
    return frozenset(pairs)


def test_simple_head_examples():
    # nothing transfers: s1 * s1 does not have length 2
    assert simple_head(s(3, 1), s(3, 1)) == (s(3, 1), s(3, 1))
    # the head of a single simple is the simple itself
    for x in all_permutations(3):
        head, rest = simple_head(Permutation.identity(3), x)
        assert head == x and rest.is_identity()
    # lengths add: head absorbs everything
    assert simple_head(s(3, 1), s(3, 2)) == (s(3, 1) * s(3, 2), Permutation.identity(3))


def test_simple_head_preserves_product():
    rng = random.Random(31)
    for n in (3, 4, 5):
        perms = list(all_permutations(n))
        for _ in range(100):
            u, v = rng.choice(perms), rng.choice(perms)
            head, rest = simple_head(u, v)
            lhs = lkb_of_word(u.reduced_word() * v.reduced_word())
            rhs = lkb_of_word(head.reduced_word() * rest.reduced_word())
            assert lhs == rhs
            # left-weighted: no generator can still be transferred
            assert not (rest.left_descents() - head.right_descents())


def test_lf_examples():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert lf_positive(BraidWord(n, (i,))) == s(n, i)
    assert lf_positive(BraidWord(2, (1, 1))) == s(2, 1)
    assert lf_positive(BraidWord(3, (1, 2))) == s(3, 1) * s(3, 2)
    assert lf_positive(BraidWord(3)) == Permutation.identity(3)
    with pytest.raises(ValueError):
        lf_positive(BraidWord(3, (-1,)))


def test_lf_against_brute_force():
    rng = random.Random(32)
    for _ in range(25):
        w = random_positive_word(3, 5, rng)
        assert lf_positive(w) == brute_force_lf(w)
    for _ in range(10):
        w = random_positive_word(4, 4, rng)
        assert lf_positive(w) == brute_force_lf(w)


def test_transfer_identity_exhaustive_n4():
    # LF(xy) = LF(x LF(y)) over all pairs of simples; the leftmost factor of
    # the two-simple product is computed by the word fold on one side and by
    # the local transfer on the other.
    count = 0
    for x in all_permutations(4):
        wx = x.reduced_word()
        for y in all_permutations(4):
            assert lf_positive(wx * y.reduced_word()) == simple_head(x, y)[0]
            count += 1
    assert count == 576


@pytest.mark.parametrize("n", [5, 6])
def test_transfer_identity_random(n):
    rng = random.Random(33 + n)
    for _ in range(120):
        u = random_positive_word(n, 8, rng)
        v = random_positive_word(n, 8, rng)
        assert lf_positive(u * v) == lf_positive(u * lf_positive(v).reduced_word())


def test_normal_form_braid_relations():
    assert greedy_normal_form(BraidWord(3, (1, 2, 1))) == greedy_normal_form(
        BraidWord(3, (2, 1, 2))
    )
    assert greedy_normal_form(BraidWord(4, (1, 3))) == greedy_normal_form(
        BraidWord(4, (3, 1))
    )
    assert greedy_normal_form(BraidWord(3)) == NormalForm(3, ())
    with pytest.raises(ValueError):
        greedy_normal_form(BraidWord(3, (-1,)))


def test_normal_form_left_weighted_and_faithful():
    rng = random.Random(34)
    for n in (3, 4, 5):
        for _ in range(60):
            w = random_positive_word(n, 10, rng)
            nf = greedy_normal_form(w)
            assert all(not f.is_identity() for f in nf.factors)
            for a, b in zip(nf.factors, nf.factors[1:]):
                assert simple_head(a, b) == (a, b)
            assert lkb_of_word(nf.to_word()) == lkb_of_word(w)


def _structured_words(n):
    delta = Permutation.longest(n).reduced_word().letters
    yield from (BraidWord(n, delta * k) for k in (1, 2, 4))
    yield from (BraidWord(n, tuple(range(1, n)) * m) for m in (3, 20))
    yield from (BraidWord(n, (1, 2) * m) for m in (1, 10, 40))


def test_normal_form_matches_bubble_reference():
    rng = random.Random(41)
    words = [
        BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(50, 130))))
        for n in (5, 6, 7, 8)
        for _ in range(3)
    ]
    words += [w for n in (5, 6, 7, 8) for w in _structured_words(n)]
    for w in words:
        factors = greedy_normal_form(w).factors
        assert factors == bubble_normal_form(w), (w.n, w.letters)
        assert all(not f.is_identity() for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert not (b.left_descents() - a.right_descents())


def test_normal_form_emptiness_is_triviality():
    from braidrep.lkb import is_trivial

    rng = random.Random(40)
    for _ in range(40):
        w = random_positive_word(4, 6, rng)
        assert greedy_normal_form(w).is_trivial() == is_trivial(w)


def test_normal_form_is_equality_oracle():
    rng = random.Random(35)
    for n in (3, 4, 5):
        for _ in range(60):
            u = random_positive_word(n, 8, rng)
            if rng.random() < 0.5:
                v = rewritten_equivalent(u, 6, rng)
            else:
                v = random_positive_word(n, 8, rng)
            nf_equal = greedy_normal_form(u) == greedy_normal_form(v)
            lkb_equal = lkb_of_word(u) == lkb_of_word(v)
            assert nf_equal == lkb_equal


def _signed_words(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 7)
        yield random_word(n, 16, rng), rng


def _as_word(n, p, factors):
    delta = Permutation.longest(n).reduced_word()
    word = BraidWord(n)
    for _ in range(abs(p)):
        word = word * (delta if p > 0 else delta.inverse())
    for f in factors:
        word = word * Permutation(f).reduced_word()
    return word


def test_signed_normal_form_against_lkb():
    # Krammer: [inf, sup] = [p, p + k] is the t-degree span of the LKB image
    for w, _ in _signed_words(60, 300):
        n = w.n
        p, factors = _signed_normal_form(w)
        image = lkb_of_word(w)
        assert t_degree_range(image) == (p, p + len(factors)), (n, w.letters)
        assert max(len(factors), p + len(factors), -p) == length_omega(w)
        # the factors multiply back to the braid (checked mod P: the exact
        # image of Delta^p costs |p| n(n-1)/2 letters)
        assert _image_mod_p(_as_word(n, p, factors)) == _image_mod_p(w)
        proper = [Permutation(f) for f in factors]
        assert all(not f.is_identity() and f != Permutation.longest(n) for f in proper)
        for a, b in zip(proper, proper[1:]):
            assert not (b.left_descents() - a.right_descents())
        assert _signed_normal_form(w * w.inverse()) == (0, ())
        assert _signed_normal_form(w.inverse() * w) == (0, ())


def test_signed_normal_form_is_equality_oracle():
    for w, rng in _signed_words(61, 300):
        image = lkb_of_word(w)
        v = rewritten_equivalent(w, 8, rng)
        assert (_signed_normal_form(v) == _signed_normal_form(w)) == (lkb_of_word(v) == image)
        if w.letters:
            letters = list(w.letters)
            i = rng.randrange(len(letters))
            letters[i] = -letters[i]
            flip = BraidWord(w.n, tuple(letters))
            assert (_signed_normal_form(flip) == _signed_normal_form(w)) == (lkb_of_word(flip) == image)


def test_signed_normal_form_examples():
    # in B3, sigma_1^-1 = Delta^-1 (Delta sigma_1^-1) = Delta^-1 sigma_1 sigma_2
    assert Permutation((1, 2, 0)).reduced_word() == BraidWord(3, (1, 2))
    assert _signed_normal_form(BraidWord(3, (-1,))) == (-1, ((1, 2, 0),))
    # Delta sigma_2^-1 = sigma_2 sigma_1
    assert Permutation((2, 0, 1)).reduced_word() == BraidWord(3, (2, 1))
    assert _signed_normal_form(BraidWord(3, (1, 2, 1, -2))) == (0, ((2, 0, 1),))
    assert _signed_normal_form(BraidWord(3, (-1, -2, -1))) == (-1, ())
    assert _signed_normal_form(BraidWord(4, (1, 2, 1, 3, 2, 1) * 3 + (2,))) == (3, (s(4, 2).image,))
    assert _signed_normal_form(BraidWord(1)) == (0, ())


def _reference_words(seed):
    """Seeded signed words for the reference comparison, cancellation-heavy
    families included; n = 2 has s_1 = Delta."""
    rng = random.Random(seed)

    def word(n, length):
        return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))

    for _ in range(1200):
        n = rng.randint(1, 9)
        yield word(n, rng.randint(0, 14) if n > 1 else 0)
    for _ in range(150):
        w = word(rng.randint(2, 9), rng.randint(0, 8))
        yield w * w.inverse()
        yield w.inverse() * w
    for _ in range(200):
        n = rng.randint(2, 9)
        letters = ()
        for _ in range(rng.randint(1, 4)):
            letters += (rng.choice((1, -1)) * rng.randint(1, n - 1),) * rng.randint(1, 5)
        yield BraidWord(n, letters)
    for _ in range(200):
        n = rng.randint(2, 6)
        delta = Permutation.longest(n).reduced_word()
        power = BraidWord(n)
        for _ in range(rng.randint(1, 2)):
            power = power * (delta if rng.random() < 0.5 else delta.inverse())
        w = word(n, rng.randint(0, 8))
        yield power * w if rng.random() < 0.5 else w * power
    for _ in range(100):
        yield word(2, rng.randint(0, 20))


def test_signed_normal_form_matches_reference():
    count = 0
    for w in _reference_words(44):
        assert _signed_normal_form(w) == reference_signed_normal_form(w), (w.n, w.letters)
        count += 1
    assert count >= 2000


def full_pair_step_signed_normal_form(word: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reference: ``_signed_normal_form`` as it was before the absorb
    pre-check, running the pair steps after every absorb."""
    n = word.n
    identity = list(range(n))
    w0 = identity[::-1]
    factors: list[list[int]] = []
    p = m = 0
    for e in word.letters:
        i = abs(e) if m % 2 == 0 else n - abs(e)
        last = factors[-1] if factors else None
        if last is not None and (last[i - 1] > last[i]) == (e < 0):
            last[i - 1], last[i] = last[i], last[i - 1]
            if e < 0:
                if last == identity:
                    factors.pop()
                continue
        else:
            simple = identity[:]
            simple[i - 1], simple[i] = i, i - 1
            if e < 0:
                simple.reverse()
                m += 1
            factors.append(simple)
            if e > 0 and last is not None:
                continue
        for j in range(len(factors) - 2, -1, -1):
            if not _left_weight(factors[j], factors[j + 1]):
                break
        if factors[-1] == identity:
            factors.pop()
        if factors and factors[0] == w0:
            factors.pop(0)
            p += 1
    if m % 2:
        factors = [[n - 1 - f[n - 1 - i] for i in identity] for f in factors]
    return p - m, tuple(tuple(f) for f in factors)


def _absorb_words(seed):
    """Seeded words for the absorb pre-check, n = 2..9: mostly positive,
    then signed words and runs sigma_i^(+-k)."""
    rng = random.Random(seed)
    for _ in range(1400):
        n = rng.randint(2, 9)
        yield random_positive_word(n, 40, rng)
    for _ in range(400):
        n = rng.randint(2, 9)
        yield random_word(n, 30, rng)
    for _ in range(300):
        n = rng.randint(2, 9)
        letters = ()
        for _ in range(rng.randint(1, 6)):
            sign = 1 if rng.random() < 0.7 else -1
            letters += (sign * rng.randint(1, n - 1),) * rng.randint(1, 5)
        yield BraidWord(n, letters)


def test_absorb_pre_check_matches_full_pair_steps():
    count = 0
    for w in _absorb_words(47):
        assert _signed_normal_form(w) == full_pair_step_signed_normal_form(w), (w.n, w.letters)
        count += 1
    assert count >= 2000


def test_absorb_pair_step_runs_only_when_a_generator_moves(monkeypatch):
    # On a positive word the only pair steps follow an absorb into A_k, k > 1,
    # and run only when the generator added to A_k's starting set can move
    # into A_(k-1): so the first pair step after each letter moves something.
    # The calls for a prefix are a prefix of the calls for the longer word.
    calls = []
    real = garside._left_weight

    def recorded(u, v):
        calls.append(real(u, v))
        return calls[-1]

    monkeypatch.setattr(garside, "_left_weight", recorded)
    rng = random.Random(48)
    sweeps = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 30)))
        done = 0
        for t in range(1, len(letters) + 1):
            calls.clear()
            _signed_normal_form(BraidWord(n, letters[:t]))
            if len(calls) > done:
                assert calls[done], (n, letters[:t])
                sweeps += 1
            done = len(calls)
    assert sweeps > 100


def _check_left_weight(u: Permutation, v: Permutation):
    head, rest = list(u.image), list(v.image)
    moved = _left_weight(head, rest)
    expected = transfer(u, v)
    assert (Permutation(tuple(head)), Permutation(tuple(rest))) == expected, (u, v)
    assert moved == (expected[0] != u)


def test_left_weight_matches_transfer():
    for n in (1, 2, 3, 4):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                _check_left_weight(u, v)
    rng = random.Random(46)
    for n in (7, 9):
        for _ in range(300):
            u, v = (Permutation(tuple(rng.sample(range(n), n))) for _ in range(2))
            _check_left_weight(u, v)


def test_t_constant_support_matches_the_dense_generator():
    for n in range(2, 8):
        pairs = refpairs(n)
        for k in range(1, n):
            expected = {
                s_prime: frozenset(s for s, e in zip(pairs, row) if e.t_constant_term())
                for s_prime, row in zip(pairs, lkb_generator(n, k).entries)
            }
            assert _t_constant_support(n, k) == expected, (n, k)


def test_half_permutation_predicate():
    assert is_half_permutation(3, frozenset())
    assert is_half_permutation(3, frozenset({(1, 3)}))
    assert is_half_permutation(4, frozenset({(1, 2), (2, 4), (1, 4)}))
    assert not is_half_permutation(4, frozenset({(1, 2), (2, 4)}))


def test_half_permutation_json():
    import json

    rng = random.Random(30)
    for _ in range(20):
        a = random_half_permutation(4, rng)
        wire = json.dumps(half_permutation_to_json(a))
        assert half_permutation_from_json(json.loads(wire)) == a
    assert half_permutation_to_json(frozenset({(2, 3), (1, 2), (1, 3)})) == [
        [1, 2],
        [1, 3],
        [2, 3],
    ]


@pytest.mark.parametrize(
    "obj", [[[2, 1]], [[0, 1]], [[-3, -1]], [[1, 1]], [[1.9, 2]], [[1, 2.0]], [[True, 2]]]
)
def test_half_permutation_json_rejects_non_pairs(obj):
    with pytest.raises(ValueError):
        half_permutation_from_json(obj)


def test_half_permutation_counts():
    # every inversion set is a half-permutation, so there are at least n! of them
    for n in (3, 4):
        half_perms = set(all_half_permutations(n))
        assert {x.inversion_set() for x in all_permutations(n)} <= half_perms


def test_gb_examples():
    assert gb(3, frozenset()) == Permutation.identity(3)
    for n in (3, 4, 5):
        assert gb(n, frozenset(refpairs(n))) == Permutation.longest(n)
    for x in all_permutations(4):
        assert gb(4, x.inversion_set()) == x
    with pytest.raises(ValueError):
        gb(4, frozenset({(1, 2), (2, 4)}))  # not transitively closed
    for outside in ({(1, 9)}, {(8, 9)}, {(2, 1)}, {(0, 2)}):  # not in Ref(3)
        with pytest.raises(ValueError, match="not a half-permutation"):
            gb(3, frozenset(outside))


def test_gb_matches_oracle_exhaustively():
    for n in (2, 3, 4, 5):
        for a in all_half_permutations(n):
            assert gb(n, a) == gb_oracle(n, a)


def test_gb_oracle_spot():
    # betweenness kills (1,3) when neither (1,2) nor (2,3) is present
    assert gb_oracle(3, frozenset({(1, 3)})) == Permutation.identity(3)
    assert gb(3, frozenset({(1, 3)})) == Permutation.identity(3)


def test_random_half_permutation_matches_closure_reference():
    for n in range(2, 9):
        for seed in range(20):
            assert random_half_permutation(n, random.Random(seed)) == closure_half_permutation(
                n, random.Random(seed)
            )


def test_generator_action_preserves_half_permutations():
    for a in all_half_permutations(4):
        for k in (1, 2, 3):
            assert is_half_permutation(4, generator_action(4, k, a))
    rng = random.Random(36)
    for n in (5, 6):
        for _ in range(40):
            a = random_half_permutation(n, rng)
            for k in range(1, n):
                assert is_half_permutation(n, generator_action(n, k, a))


def test_action_equivariance_exhaustive_n4():
    # GB(xA) == LF(x GB(A)) for every simple x and every half-permutation A
    simples = list(all_permutations(4))
    for a in all_half_permutations(4):
        gb_a = gb(4, a).reduced_word()
        for x in simples:
            word = x.reduced_word()
            assert gb(4, positive_action(word, a)) == lf_positive(word * gb_a)


def test_action_equivariance_random_n5():
    rng = random.Random(37)
    for _ in range(150):
        a = random_half_permutation(5, rng)
        k = rng.randint(1, 4)
        word = BraidWord(5, (k,))
        assert gb(5, generator_action(5, k, a)) == lf_positive(word * gb(5, a).reduced_word())


def test_action_is_monoid_action():
    rng = random.Random(38)
    for _ in range(150):
        a = random_half_permutation(4, rng)
        u = random_positive_word(4, 6, rng)
        v = random_positive_word(4, 6, rng)
        assert positive_action(u * v, a) == positive_action(u, positive_action(v, a))
    with pytest.raises(ValueError):
        positive_action(BraidWord(4, (-1,)), frozenset())
    with pytest.raises(ValueError):
        generator_action(4, 5, frozenset())


def test_positive_fraction_trivial_cases():
    w = BraidWord(4, (1, 3, 2))
    x, y = positive_fraction(w)
    assert (x, y) == (w, BraidWord(4))
    x, y = positive_fraction(BraidWord(2, (-1,)))
    assert x.is_positive and y.is_positive
    assert lkb_of_word(BraidWord(2, (-1,))) * lkb_of_word(y) == lkb_of_word(x)


def test_positive_fraction_random():
    rng = random.Random(39)
    for n in (3, 4):
        for _ in range(40):
            w = random_word(n, 7, rng)
            x, y = positive_fraction(w)
            assert x.is_positive and y.is_positive
            # w = x y^-1  <=>  w y = x under the faithful representation
            assert lkb_of_word(w) * lkb_of_word(y) == lkb_of_word(x)


def loop_positive_fraction(word: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Reference: ``positive_fraction`` as it was, with a permutation
    product per inverse letter and D^d built by concatenation."""
    n = word.n
    w0 = Permutation.longest(n)
    delta_word = w0.reduced_word()
    positive = []
    d = 0
    for e in word.letters:
        if e > 0:
            positive.append(e if d % 2 == 0 else n - e)
        else:
            d += 1
            tail = (w0 * Permutation.transposition(n, -e)).reduced_word()
            if d % 2 == 0:
                positive.extend(tail.letters)
            else:
                positive.extend(n - j for j in tail.letters)
    y = BraidWord(n)
    for _ in range(d):
        y = y * delta_word
    return BraidWord(n, tuple(positive)), y


def test_positive_fraction_matches_loop_and_image():
    rng = random.Random(49)
    for _ in range(400):
        n = rng.randint(2, 8)
        w = random_word(n, 24, rng)
        x, y = positive_fraction(w)
        assert (x, y) == loop_positive_fraction(w), (n, w.letters)
        assert _image_mod_p(x * y.inverse()) == _image_mod_p(w), (n, w.letters)


def test_normal_form_to_word_matches_concatenation():
    rng = random.Random(50)
    for _ in range(300):
        n = rng.randint(2, 8)
        nf = greedy_normal_form(random_positive_word(n, 40, rng))
        word = BraidWord(n)
        for f in nf.factors:
            word = word * f.reduced_word()
        assert nf.to_word() == word
    assert NormalForm(3, ()).to_word() == BraidWord(3)
