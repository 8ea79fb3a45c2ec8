import json
import random

import pytest

from braidrep.braid import BraidWord
from braidrep.errors import InternalCheckError
from braidrep.laurent import LaurentPoly
from braidrep.lkb import lkb_generator, lkb_of_word
from braidrep.matrix import RepMatrix, mat_det, mat_inverse, t_degree_range
from braidrep.verify import random_word

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
T = LaurentPoly.var_t()
Q = LaurentPoly.var_q()


def random_matrix(rng: random.Random, dim: int) -> RepMatrix:
    def poly():
        return LaurentPoly(
            {
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 3))
            }
        )

    return RepMatrix.from_rows([[poly() for _ in range(dim)] for _ in range(dim)])


def test_identity_neutral():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng, 3)
        i3 = RepMatrix.identity(3)
        assert a * i3 == a
        assert i3 * a == a


def test_mul_associative():
    rng = random.Random(12)
    for _ in range(20):
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        RepMatrix.identity(2) * RepMatrix.identity(3)
    with pytest.raises(ValueError):
        RepMatrix.identity(2) + RepMatrix.identity(3)
    with pytest.raises(ValueError):
        RepMatrix.from_rows([[ONE, ZERO]])


def test_burau_block_inverse():
    # [[1-t, t], [1, 0]] has inverse [[0, 1], [t^-1, 1 - t^-1]]
    block = RepMatrix.from_rows([[ONE - T, T], [ONE, ZERO]])
    inv = mat_inverse(block)
    tinv = LaurentPoly.monomial(1, 0, -1)
    assert inv == RepMatrix.from_rows([[ZERO, ONE], [tinv, ONE - tinv]])
    assert block * inv == RepMatrix.identity(2)
    assert inv * block == RepMatrix.identity(2)


def test_inverse_of_identity():
    for k in (1, 2, 5):
        assert mat_inverse(RepMatrix.identity(k)) == RepMatrix.identity(k)


def test_inverse_of_monomial():
    m = RepMatrix.from_rows([[T * Q**2]])
    assert mat_inverse(m) == RepMatrix.from_rows([[LaurentPoly.monomial(1, -2, -1)]])


def test_singular_matrix_raises():
    m = RepMatrix.from_rows([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(InternalCheckError):
        mat_inverse(m)


def test_non_laurent_inverse_raises():
    # invertible over the fraction field but not over the Laurent ring
    m = RepMatrix.from_rows([[ONE + T]])
    with pytest.raises(InternalCheckError):
        mat_inverse(m)


def test_t_degree_range():
    assert t_degree_range(RepMatrix.from_rows([[T * Q**2]])) == (1, 1)
    assert t_degree_range(RepMatrix.identity(4)) == (0, 0)
    m = RepMatrix.from_rows([[T**-2, ZERO], [ONE, T**3]])
    assert t_degree_range(m) == (-2, 3)
    with pytest.raises(ValueError):
        t_degree_range(RepMatrix.from_rows([[ZERO, ZERO], [ZERO, ZERO]]))


def test_det():
    block = RepMatrix.from_rows([[ONE - T, T], [ONE, ZERO]])
    assert mat_det(block) == -T
    assert mat_det(RepMatrix.identity(3)) == ONE
    assert mat_det(RepMatrix.from_rows([[ONE, ONE], [ONE, ONE]])) == ZERO


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert mat_det(a * b) == mat_det(a) * mat_det(b)


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")

    def to_sympy(p: LaurentPoly):
        return sum((c * q**a * t**b for (a, b), c in p.terms().items()), sympy.Integer(0))

    rng = random.Random(15)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4))
        rows = [[to_sympy(e) for e in row] for row in m.entries]
        oracle = sympy.Matrix(rows).det(method="berkowitz")  # division-free
        assert sympy.expand(oracle - to_sympy(mat_det(m))) == 0


def _signed_words():
    rng = random.Random(16)
    words = [BraidWord(5, (1, -2, 3, -4, 2, 1))]
    for n in (3, 4, 5):
        words += [random_word(n, 6, rng) for _ in range(8)]
    return words


def test_lkb_inverse_is_image_of_inverse_word():
    for w in _signed_words():
        assert mat_inverse(lkb_of_word(w)) == lkb_of_word(w.inverse())


def test_lkb_det_is_power_of_generator_det():
    # all generators are conjugate, so they share one determinant
    for w in _signed_words():
        exponent_sum = sum(1 if e > 0 else -1 for e in w.letters)
        assert mat_det(lkb_of_word(w)) == mat_det(lkb_generator(w.n, 1)) ** exponent_sum


def test_scalar_value():
    s = RepMatrix.scalar(3, Q * T)
    assert s.scalar_value() == Q * T
    with pytest.raises(InternalCheckError):
        RepMatrix.from_rows([[ONE, ZERO], [ZERO, T]]).scalar_value()


def test_json_round_trip():
    rng = random.Random(14)
    for _ in range(20):
        m = random_matrix(rng, 3)
        obj = m.to_json_obj("lex-refpair")
        again = RepMatrix.from_json_obj(json.loads(json.dumps(obj)))
        assert again == m
    obj = RepMatrix.identity(2).to_json_obj("strand")
    assert obj == {"dim": 2, "order": "strand", "entries": [[0, 0, "1*q^0*t^0"], [1, 1, "1*q^0*t^0"]]}
