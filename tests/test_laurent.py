import random
from fractions import Fraction

import pytest

from braidrep.errors import ResourceGuardError
from braidrep.laurent import MAX_EXPONENT, LaurentPoly, divide_exact

Q = LaurentPoly.var_q()
T = LaurentPoly.var_t()
ONE = LaurentPoly.one()
E = MAX_EXPONENT


def random_poly(rng: random.Random, terms: int = 4) -> LaurentPoly:
    data = {}
    for _ in range(rng.randint(0, terms)):
        key = (rng.randint(-3, 3), rng.randint(-3, 3))
        data[key] = data.get(key, 0) + rng.randint(-5, 5)
    return LaurentPoly(data)


def test_ring_identities():
    assert (ONE - T) * (ONE + T) == ONE - T**2
    a = 3 * Q**2 * T**-1 - LaurentPoly.const(5)
    assert a + (-a) == LaurentPoly.zero()
    assert (ONE - T) * T + T * T == T  # coefficient collection


def test_zero_is_canonical():
    assert LaurentPoly({(2, 1): 0}) == LaurentPoly.zero()
    assert not (T - T)
    assert (T - T) == LaurentPoly.zero()
    assert hash(T - T) == hash(LaurentPoly.zero())


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_pow():
    assert (Q * T) ** 0 == ONE
    assert (ONE + T) ** 3 == ONE + 3 * T + 3 * T**2 + T**3
    assert (Q**2 * T) ** -2 == LaurentPoly.monomial(1, -4, -2)
    assert (-Q) ** -1 == LaurentPoly.monomial(-1, -1, 0)
    with pytest.raises(ValueError):
        (ONE + T) ** -1


def test_evaluate():
    assert (ONE - T).evaluate(Fraction(1), Fraction(1)) == 0
    assert (Q * T**-1).evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        (T**-1).evaluate(Fraction(1), Fraction(0))
    # zero point is fine when the variable only occurs with exponent >= 0
    assert (Q + T).evaluate(Fraction(0), Fraction(2)) == 2


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(202)
    point = (Fraction(2, 3), Fraction(-3, 5))
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).evaluate(*point) == a.evaluate(*point) * b.evaluate(*point)
        assert (a + b).evaluate(*point) == a.evaluate(*point) + b.evaluate(*point)


def test_evaluate_first():
    p = Q * T + (ONE - Q)
    vals = p.evaluate_first(Fraction(1, 2))
    assert vals == {1: Fraction(1, 2), 0: Fraction(1, 2)}


def test_subst_monomial_examples():
    # q -> -a^-2, t -> a^3 l^-1
    q_to, t_to = (-1, -2, 0), (1, 3, -1)
    assert (Q * T).subst_monomial(q_to, t_to) == LaurentPoly.monomial(-1, 1, -1)
    assert ONE.subst_monomial(q_to, t_to) == ONE
    assert (Q**2).subst_monomial(q_to, t_to) == LaurentPoly.monomial(1, -4, 0)


def test_subst_monomial_negative_second_variable():
    # q -> v, t -> -u: odd powers of t change the sign, even ones do not
    q_to, t_to = (1, 0, 1), (-1, 1, 0)
    assert (Q * T**3).subst_monomial(q_to, t_to) == LaurentPoly.monomial(-1, 3, 1)
    assert (Q * T**-2).subst_monomial(q_to, t_to) == LaurentPoly.monomial(1, -2, 1)


def test_subst_monomial_is_ring_homomorphism():
    rng = random.Random(303)
    q_to, t_to = (-1, -2, 0), (1, 3, -1)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).subst_monomial(q_to, t_to) == a.subst_monomial(
            q_to, t_to
        ) * b.subst_monomial(q_to, t_to)
        assert (a + b).subst_monomial(q_to, t_to) == a.subst_monomial(
            q_to, t_to
        ) + b.subst_monomial(q_to, t_to)


def test_subst_rejects_bad_sign():
    with pytest.raises(ValueError):
        Q.subst_monomial((2, 1, 0), (1, 0, 1))


def test_degree_range():
    p = Q**-2 * T + Q * T**3
    assert p.degree_range(0) == (-2, 1)
    assert p.degree_range(1) == (1, 3)
    with pytest.raises(ValueError):
        LaurentPoly.zero().degree_range(1)


def test_t_constant_term():
    p = 2 * Q + 3 * Q * T + T**-1
    assert p.t_constant_term() == 2 * Q


def test_text_round_trip():
    rng = random.Random(404)
    for _ in range(100):
        p = random_poly(rng)
        assert LaurentPoly.from_text(p.to_text()) == p
    assert LaurentPoly.zero().to_text() == "0"
    assert LaurentPoly.from_text("0") == LaurentPoly.zero()
    # terms sorted by (q-exponent, t-exponent) ascending
    assert (ONE - T * Q**2).to_text() == "1*q^0*t^0 + -1*q^2*t^1"
    with pytest.raises(ValueError):
        LaurentPoly.from_text("garbage")


def test_pretty():
    assert (ONE - T).pretty() == "1 - t"
    assert (Q**-2 * T).pretty() == "q^-2*t"
    assert LaurentPoly.zero().pretty() == "0"
    assert (-ONE).pretty() == "-1"
    assert (Q * T).pretty(("a", "l")) == "a*l"


def test_divide_exact():
    rng = random.Random(505)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        if not b:
            continue
        assert divide_exact(a * b, b) == a
    # monomials are units: q/t divides exactly
    assert divide_exact(Q, T) == LaurentPoly.monomial(1, 1, -1)
    assert divide_exact(ONE, ONE - T) is None
    assert divide_exact(ONE + T, LaurentPoly.const(2)) is None
    with pytest.raises(ZeroDivisionError):
        divide_exact(ONE, LaurentPoly.zero())


def test_constant_hashes_like_its_int():
    for c in (-2, 0, 1, 5):
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)
    assert hash(T - T) == hash(0)
    assert {1: "one"}[LaurentPoly.one()] == "one"
    assert LaurentPoly.const(5) in {5, 7}
    assert len({LaurentPoly.const(-2), -2, ONE, 1, T}) == 3


def test_rejects_non_integer_input():
    with pytest.raises(TypeError):
        LaurentPoly({(1.5, 0): 1})
    with pytest.raises(TypeError):
        LaurentPoly({(1, 0): 2.0})
    with pytest.raises(TypeError):
        LaurentPoly({(1, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentPoly.const(2.5)
    with pytest.raises(TypeError):
        LaurentPoly.monomial(1, 0.5, 0)


def test_divide_exact_against_sympy():
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")

    def shifted(p: LaurentPoly):
        """p times the monomial that makes its smallest exponents 0, and that shift."""
        terms = p.terms()
        sa, sb = min(a for a, _ in terms), min(b for _, b in terms)
        expr = sum(
            (c * q ** (a - sa) * t ** (b - sb) for (a, b), c in terms.items()), sympy.Integer(0)
        )
        return sympy.Poly(expr, q, t, domain="QQ"), (sa, sb)

    rng = random.Random(606)
    exact = inexact = 0
    for i in range(240):
        den = random_poly(rng)
        a = random_poly(rng)
        if not den or not a:
            continue
        if i % 3 == 0:
            num = a * den
        elif i % 3 == 1:
            num = a * den + LaurentPoly.monomial(1, rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            num, den = a * den, 2 * den  # exact over Q only when a is even
        if not num:
            continue
        (n_poly, (na, nb)), (d_poly, (da, db)) = shifted(num), shifted(den)
        quot_poly, rem_poly = sympy.div(n_poly, d_poly)
        got = divide_exact(num, den)
        if rem_poly.is_zero and all(c.is_integer for c in quot_poly.coeffs()):
            exact += 1
            expected = LaurentPoly(
                {(a + na - da, b + nb - db): int(c) for (a, b), c in quot_poly.terms()}
            )
            assert got == expected
        else:
            inexact += 1
            assert got is None
    assert exact > 40 and inexact > 40


def test_exponents_at_the_edge_of_the_range_round_trip():
    corners = {(-E, -E): 5, (-E, E): -2, (0, E): 7, (1, -E): -1, (E, -E): 3, (E, E): 1}
    p = LaurentPoly(corners)
    assert p.terms() == corners
    assert p.to_text() == (
        f"5*q^{-E}*t^{-E} + -2*q^{-E}*t^{E} + 7*q^0*t^{E} + -1*q^1*t^{-E}"
        f" + 3*q^{E}*t^{-E} + 1*q^{E}*t^{E}"
    )
    assert LaurentPoly.from_text(p.to_text()) == p
    assert p.pretty().startswith(f"5*q^{-E}*t^{-E} - 2*q^{-E}*t^{E} + 7*t^{E} - q*t^{-E}")
    assert p.degree_range(0) == p.degree_range(1) == (-E, E)
    assert p.t_constant_term() == LaurentPoly.zero()
    assert divide_exact(p, ONE) == p
    assert divide_exact(2 * p, LaurentPoly.const(2)) == p
    edge = LaurentPoly.monomial(1, E - 1, -E)
    assert divide_exact((ONE - Q) * edge, ONE - Q) == edge
    assert divide_exact(LaurentPoly.monomial(-4, E, E), LaurentPoly.monomial(2, E, E)) == -2
    assert p.subst_monomial((1, 1, 0), (1, 0, 1)) == p
    swapped = p.subst_monomial((1, 0, 1), (1, 1, 0))
    assert swapped.terms() == {(b, a): c for (a, b), c in corners.items()}
    negated = p.subst_monomial((1, -1, 0), (1, 0, -1))
    assert negated.terms() == {(-a, -b): c for (a, b), c in corners.items()}
    assert LaurentPoly.monomial(1, -E, 0) * LaurentPoly.monomial(1, E, E) == T**E
    assert T**E == LaurentPoly.monomial(1, 0, E)
    assert Q**-E == LaurentPoly.monomial(1, -E, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly({(E + 1, 0): 1}),
        lambda: LaurentPoly({(0, -E - 1): 1}),
        lambda: LaurentPoly.monomial(1, 0, E + 1),
        lambda: LaurentPoly.from_text(f"1*q^0*t^{E + 1}"),
        lambda: LaurentPoly.from_text(f"1*q^{-E - 1}*t^0"),
        lambda: LaurentPoly.monomial(1, 0, E) * T,
        lambda: LaurentPoly.monomial(1, -E, 0) * (Q**-1 + T),
        lambda: T ** (E + 1),
        lambda: (ONE + T) ** (E + 1),
        lambda: Q ** (-E - 1),
        lambda: (T**2) ** 8192,
        lambda: divide_exact(LaurentPoly.monomial(1, -E, 0), Q),
        lambda: LaurentPoly.monomial(1, E, 0).subst_monomial((1, 2, 0), (1, 0, 1)),
    ],
)
def test_one_step_past_the_range_is_refused(build):
    with pytest.raises(ResourceGuardError):
        build()


def test_products_near_the_range_match_the_pair_arithmetic():
    # exponents up to half the range in either sign, so products stay in it
    rng = random.Random(707)
    half = E // 2
    for _ in range(100):
        x, y = (
            {(rng.randint(-half, half), rng.randint(-half, half)): rng.randint(-9, 9)
             for _ in range(4)}
            for _ in range(2)
        )
        expected: dict = {}
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                key = (a1 + a2, b1 + b2)
                expected[key] = expected.get(key, 0) + c1 * c2
        product = LaurentPoly(x) * LaurentPoly(y)
        assert product.terms() == {key: c for key, c in expected.items() if c}
        assert product.to_text() == LaurentPoly(expected).to_text()
        assert (LaurentPoly(x) + LaurentPoly(y)) - LaurentPoly(y) == LaurentPoly(x)
