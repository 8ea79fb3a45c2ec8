import random

import pytest

from braidrep.braid import (
    BraidWord,
    Permutation,
    all_permutations,
    permutation_from_inversions,
    refpairs,
)
from braidrep.lkb import is_trivial


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    BraidWord(1)  # identity braid on one strand is fine


def test_word_from_generator_and_non_integer_letters():
    w = BraidWord(3, (e for e in (1, 2, 1)))
    assert w.letters == (1, 2, 1)
    assert not is_trivial(w)
    with pytest.raises(ValueError):
        BraidWord(3, (1.0,))
    with pytest.raises(ValueError):
        BraidWord(3, ("1",))
    with pytest.raises(ValueError):
        BraidWord(3, (e for e in (1, 3)))


def _word_error(n, letters):
    with pytest.raises(ValueError) as info:
        BraidWord(n, letters)
    return str(info.value)


def test_word_validation_messages():
    assert BraidWord(3, (True, 2)).letters == (True, 2)
    assert BraidWord(3, [1, -2]).letters == (1, -2)
    assert isinstance(BraidWord(3, [1, -2]).letters, tuple)
    assert BraidWord(100, (99, -99, 64, -65)).letters == (99, -99, 64, -65)
    assert _word_error(3, (1, 1.0)) == "letter 1.0 is not an integer"
    assert _word_error(3, ("1",)) == "letter '1' is not an integer"
    assert _word_error(3, (1, 0)) == "letter 0 out of range for 3 strands"
    assert _word_error(3, (3,)) == "letter 3 out of range for 3 strands"
    assert _word_error(3, (2, -3)) == "letter -3 out of range for 3 strands"
    assert _word_error(3, (False,)) == "letter False out of range for 3 strands"
    assert _word_error(1, (True,)) == "letter True out of range for 1 strands"
    assert _word_error(100, (100,)) == "letter 100 out of range for 100 strands"
    # the first bad letter is reported, whatever its kind
    assert _word_error(3, (5, 1.0)) == "letter 5 out of range for 3 strands"
    assert _word_error(0, ()) == "strand count must be at least 1"


def test_free_reduce():
    assert BraidWord(2, (1, -1)).free_reduce() == BraidWord(2)
    assert BraidWord(3, (1, 2, -2, -1)).free_reduce() == BraidWord(3)
    w = BraidWord(3, (1, 2, 1))
    assert w.free_reduce() == w


def test_inverse_and_concat():
    assert BraidWord(3, (1, -2)).inverse() == BraidWord(3, (2, -1))
    assert (BraidWord(2, (1,)) * BraidWord(2, (-1,))).free_reduce() == BraidWord(2)
    assert BraidWord(4).inverse() == BraidWord(4)
    with pytest.raises(ValueError):
        BraidWord(3, (1,)) * BraidWord(4, (1,))


def test_word_text_round_trip():
    w = BraidWord(6, (1, 1, -2, -5, -5, 4))
    assert BraidWord.from_text(6, w.to_text()) == w
    assert BraidWord.from_text(6, "1 1 -2  -5,-5,4") == w
    assert BraidWord.from_text(3, "") == BraidWord(3)
    with pytest.raises(ValueError):
        BraidWord.from_text(3, "1,x")
    with pytest.raises(ValueError):
        BraidWord.from_text(3, "5")


def test_projection_to_symmetric_group():
    assert BraidWord(2, (1,)).to_permutation() == Permutation.transposition(2, 1)
    assert BraidWord(2, (1, 1)).to_permutation().is_identity()
    # letter signs are ignored
    assert BraidWord(2, (-1,)).to_permutation() == Permutation.transposition(2, 1)
    a = BraidWord(3, (1, 2, 1)).to_permutation()
    b = BraidWord(3, (2, 1, 2)).to_permutation()
    assert a == b


def test_projection_is_homomorphism():
    rng = random.Random(21)
    for n in range(2, 8):
        for _ in range(30):
            a = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))))
            b = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))))
            assert (a * b).to_permutation() == a.to_permutation() * b.to_permutation()


def test_permutation_basics():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    x = Permutation((2, 0, 1))
    assert x.inverse() * x == Permutation.identity(3)
    assert x(1) == 3  # 1-based application
    assert Permutation.longest(4).image == (3, 2, 1, 0)


def test_inversion_sets():
    assert Permutation.identity(3).inversion_set() == frozenset()
    assert Permutation.identity(3).length() == 0
    assert Permutation.transposition(3, 1).inversion_set() == frozenset({(1, 2)})
    assert Permutation.transposition(3, 1).length() == 1
    for n in range(2, 7):
        w0 = Permutation.longest(n)
        assert w0.inversion_set() == frozenset(refpairs(n))
        assert w0.length() == n * (n - 1) // 2


def test_inversion_set_cardinality_and_injectivity():
    for n in range(1, 7):
        seen = {}
        for x in all_permutations(n):
            inv = x.inversion_set()
            assert len(inv) == x.length()
            assert inv not in seen, "inversion-set map must be injective"
            seen[inv] = x


def test_reduced_word_exhaustive():
    for n in range(1, 7):
        for x in all_permutations(n):
            w = x.reduced_word()
            assert w.is_positive
            assert len(w) == x.length()
            assert w.to_permutation() == x
    assert Permutation.identity(4).reduced_word() == BraidWord(4)
    assert Permutation.transposition(4, 1).reduced_word() == BraidWord(4, (1,))


def rescan_reduced_word(x: Permutation) -> BraidWord:
    """Reference: the smallest right descent found by a scan from position
    0 after every swap."""
    image = list(x.image)
    collected = []
    while True:
        i = next((k for k in range(len(image) - 1) if image[k] > image[k + 1]), None)
        if i is None:
            break
        collected.append(i + 1)
        image[i], image[i + 1] = image[i + 1], image[i]
    return BraidWord(x.n, tuple(reversed(collected)))


def test_reduced_word_matches_rescan():
    for n in range(1, 8):
        for x in all_permutations(n):
            w = x.reduced_word()
            assert w == rescan_reduced_word(x), x
            assert len(w) == x.length()


def test_reduced_word_of_longest_element():
    w0 = Permutation.longest(3)
    w = w0.reduced_word()
    assert len(w) == 3
    assert w.to_permutation() == w0


def test_descents():
    x = Permutation((1, 0, 2))  # the transposition s_1
    assert x.right_descents() == {1}
    assert x.left_descents() == {1}
    assert Permutation.longest(4).right_descents() == {1, 2, 3}


def test_refpairs():
    assert refpairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(refpairs(7)) == 21


def test_permutation_from_inversions():
    for n in range(1, 6):
        for x in all_permutations(n):
            assert permutation_from_inversions(n, x.inversion_set()) == x
    with pytest.raises(ValueError):
        permutation_from_inversions(3, {(1, 3)})  # betweenness fails
