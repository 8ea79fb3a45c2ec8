import random

import pytest

from braidrep.braid import BraidWord
from braidrep.burau import (
    burau_generator,
    burau_of_word,
    burau_reduced_of_word,
    burau_specialize_t1,
    kernel_word_b6,
    permutation_matrix,
)
from braidrep.laurent import LaurentPoly
from braidrep.lkb import lkb_of_word
from braidrep.matrix import RepMatrix, mat_det
from braidrep.verify import random_word

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
T = LaurentPoly.var_t()


def test_generator_block_n2():
    assert burau_generator(2, 1) == RepMatrix.from_rows([[ONE - T, T], [ONE, ZERO]])


def test_generator_block_placement_n3():
    g = burau_generator(3, 2)
    assert g.entries[0][0] == ONE and not g.entries[0][1] and not g.entries[0][2]
    assert g.entries[1][1] == ONE - T
    assert g.entries[1][2] == T
    assert g.entries[2][1] == ONE
    assert not g.entries[2][2]


def test_generator_inverse():
    tinv = LaurentPoly.monomial(1, 0, -1)
    assert burau_generator(2, 1, -1) == RepMatrix.from_rows(
        [[ZERO, ONE], [tinv, ONE - tinv]]
    )
    for n in (2, 3, 4, 5, 6):
        for i in range(1, n):
            prod = burau_generator(n, i, 1) * burau_generator(n, i, -1)
            assert prod.is_identity()
    with pytest.raises(ValueError):
        burau_generator(3, 3)
    with pytest.raises(ValueError):
        burau_generator(3, 1, 2)


def test_braid_relations():
    for n in range(3, 8):
        for i in range(1, n - 1):
            a = burau_of_word(BraidWord(n, (i, i + 1, i)))
            b = burau_of_word(BraidWord(n, (i + 1, i, i + 1)))
            assert a == b
        for i in range(1, n):
            for j in range(i + 2, n):
                assert burau_of_word(BraidWord(n, (i, j))) == burau_of_word(
                    BraidWord(n, (j, i))
                )
    assert burau_of_word(BraidWord(5)).is_identity()


def test_hecke_relation():
    for n in range(2, 7):
        t_id = RepMatrix.identity(n).scale(T)
        for i in range(1, n):
            g = burau_generator(n, i)
            assert g * g == g.scale(ONE - T) + t_id


def test_determinant_is_minus_t():
    for n in range(2, 7):
        for i in range(1, n):
            assert mat_det(burau_generator(n, i)) == -T


def test_specialize_t1():
    assert burau_specialize_t1(burau_generator(2, 1)) == ((0, 1), (1, 0))
    assert burau_specialize_t1(burau_of_word(BraidWord(4))) == tuple(
        tuple(1 if r == c else 0 for c in range(4)) for r in range(4)
    )
    rng = random.Random(41)
    for n in range(2, 7):
        for _ in range(25):
            w = random_word(n, 8, rng)
            specialized = burau_specialize_t1(burau_of_word(w))
            assert specialized == permutation_matrix(w.to_permutation())


def test_specialize_t1_rejects_non_permutation():
    from braidrep.errors import InternalCheckError

    with pytest.raises(InternalCheckError):
        burau_specialize_t1(RepMatrix.from_rows([[LaurentPoly.const(2)]]))
    with pytest.raises(InternalCheckError):
        burau_specialize_t1(RepMatrix.from_rows([[ONE, ONE], [ZERO, ONE]]))


def test_kernel_word_b6():
    word = kernel_word_b6()
    assert word.n == 6
    assert len(word) == 44
    assert word.free_reduce() == word  # genuinely 44 letters, no cancellation
    assert burau_of_word(word).is_identity()
    assert not lkb_of_word(word).is_identity()


def test_kernel_word_structure():
    # commutator of the two conjugated third generators
    f1 = BraidWord(6, (1, 1, -2, -5, -5, 4))
    f2 = BraidWord(6, (-1, 2, 5, -4))
    a = f1 * BraidWord(6, (3,)) * f1.inverse()
    b = f2 * BraidWord(6, (3,)) * f2.inverse()
    assert len(a) == 13 and len(b) == 9
    assert kernel_word_b6() == a.inverse() * b.inverse() * a * b
    # the two Burau images commute (that is why the commutator dies)
    ma, mb = burau_of_word(a), burau_of_word(b)
    assert ma * mb == mb * ma
    # ... but the braids themselves do not
    assert lkb_of_word(a * b) != lkb_of_word(b * a)


def test_reduced_summand_n2():
    m = burau_reduced_of_word(BraidWord(2, (1,)))
    assert m == RepMatrix.from_rows([[-T]])


def test_reduced_summand_is_a_representation():
    rng = random.Random(42)
    for n in (3, 4, 5):
        for _ in range(10):
            a = random_word(n, 5, rng)
            b = random_word(n, 5, rng)
            assert burau_reduced_of_word(a * b) == burau_reduced_of_word(
                a
            ) * burau_reduced_of_word(b)
    assert burau_reduced_of_word(BraidWord(3, (1, 2, 1))) == burau_reduced_of_word(
        BraidWord(3, (2, 1, 2))
    )
    assert burau_reduced_of_word(BraidWord(4)).is_identity()


def test_image_is_multiplicative():
    rng = random.Random(25)
    for n in (3, 4, 5):
        for _ in range(6):
            u, v = random_word(n, 8, rng), random_word(n, 8, rng)
            assert burau_of_word(u * v) == burau_of_word(u) * burau_of_word(v)
