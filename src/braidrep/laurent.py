"""
Exact sparse Laurent polynomials in two commuting variables.

A polynomial is a finite map from exponent pairs (a, b) to nonzero integer
coefficients, standing for sum of c * v1^a * v2^b.  Exponents may be negative.
Coefficients are Python ints, so arithmetic never overflows.  The variable
names are contextual: (q, t) for the braid representations, (alpha, l) after
the substitution used for the BMW checks; the polynomial itself only knows
exponent slots.

Instances are immutable: every operation returns a fresh polynomial, and
zero coefficients are never stored, so two polynomials are equal iff their
term maps are equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class LaurentPoly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        data: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    key = (int(a), int(b))
                    v = data.get(key, 0) + int(c)
                    if v:
                        data[key] = v
                    elif key in data:
                        del data[key]
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, data: dict[tuple[int, int], int]) -> "LaurentPoly":
        # internal: data must already be normalized (no zero coefficients)
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._make({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._make({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({(0, 0): int(c)} if c else {})

    @classmethod
    def monomial(cls, c: int, a: int, b: int) -> "LaurentPoly":
        """c * v1^a * v2^b"""
        return cls._make({(a, b): int(c)} if c else {})

    @classmethod
    def var_q(cls) -> "LaurentPoly":
        return cls.monomial(1, 1, 0)

    @classmethod
    def var_t(cls) -> "LaurentPoly":
        return cls.monomial(1, 0, 1)

    # -- structure ---------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def is_one(self) -> bool:
        return self._terms == {(0, 0): 1}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        res = dict(self._terms)
        for key, c in other._terms.items():
            v = res.get(key, 0) + c
            if v:
                res[key] = v
            elif key in res:
                del res[key]
        return LaurentPoly._make(res)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.const(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly._make({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        res: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                v = res.get(key, 0) + c1 * c2
                if v:
                    res[key] = v
                elif key in res:
                    del res[key]
        return LaurentPoly._make(res)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "LaurentPoly":
        if exp < 0:
            if len(self._terms) == 1:
                ((a, b), c) = next(iter(self._terms.items()))
                if c in (1, -1):
                    return LaurentPoly.monomial(c, a * exp, b * exp) if exp % 2 else LaurentPoly.monomial(1, a * exp, b * exp)
            raise ValueError("negative powers only for unit monomials")
        acc = LaurentPoly.one()
        base = self
        while exp:
            if exp & 1:
                acc = acc * base
            base = base * base
            exp >>= 1
        return acc

    # -- queries -----------------------------------------------------------

    def degree_range(self, slot: int) -> tuple[int, int]:
        """(min, max) exponent of the given variable slot (0 or 1) over all terms."""
        if not self._terms:
            raise ValueError("degree range of the zero polynomial is undefined")
        exps = [key[slot] for key in self._terms]
        return min(exps), max(exps)

    def t_constant_term(self) -> "LaurentPoly":
        """The part with second-variable exponent 0, as a polynomial in the first variable."""
        return LaurentPoly._make({key: c for key, c in self._terms.items() if key[1] == 0})

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, q_value: Fraction, t_value: Fraction) -> Fraction:
        """Exact value at the given points.

        A zero point is only rejected when the corresponding variable occurs
        with a negative exponent somewhere in the polynomial.
        """
        q_value = Fraction(q_value)
        t_value = Fraction(t_value)
        total = Fraction(0)
        for (a, b), c in self._terms.items():
            if (a < 0 and q_value == 0) or (b < 0 and t_value == 0):
                raise ValueError("zero evaluation point for a variable with negative exponent")
            total += c * q_value**a * t_value**b
        return total

    def evaluate_first(self, q_value: Fraction) -> dict[int, Fraction]:
        """Evaluate the first variable, keeping the second symbolic.

        Returns a map from second-variable exponent to exact rational coefficient.
        """
        q_value = Fraction(q_value)
        out: dict[int, Fraction] = {}
        for (a, b), c in self._terms.items():
            if a < 0 and q_value == 0:
                raise ValueError("zero evaluation point for a variable with negative exponent")
            v = out.get(b, Fraction(0)) + c * q_value**a
            if v:
                out[b] = v
            elif b in out:
                del out[b]
        return out

    def subst_monomial(
        self,
        first_to: tuple[int, int, int],
        second_to: tuple[int, int, int],
    ) -> "LaurentPoly":
        """Substitute each variable by a signed monomial in two new variables.

        ``first_to = (sign, a, b)`` sends the first variable to
        sign * u^a * v^b with sign in {+1, -1}, and likewise ``second_to``
        for the second variable.  The result lives in the (u, v) slots.
        """
        s1, p1, r1 = first_to
        s2, p2, r2 = second_to
        if s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError("substitution sign must be +1 or -1")
        res: dict[tuple[int, int], int] = {}
        for (a, b), c in self._terms.items():
            sign = 1
            if s1 == -1 and a % 2:
                sign = -sign
            if s2 == -1 and b % 2:
                sign = -sign
            key = (p1 * a + p2 * b, r1 * a + r2 * b)
            v = res.get(key, 0) + sign * c
            if v:
                res[key] = v
            elif key in res:
                del res[key]
        return LaurentPoly._make(res)

    # -- text forms ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical wire form: terms ``c*q^a*t^b`` sorted by (a, b) ascending."""
        if not self._terms:
            return "0"
        parts = [f"{c}*q^{a}*t^{b}" for (a, b), c in sorted(self._terms.items())]
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "LaurentPoly":
        text = text.strip()
        if text == "0":
            return cls.zero()
        data: dict[tuple[int, int], int] = {}
        for part in text.split(" + "):
            try:
                cs, qs, ts = part.split("*")
                if not (qs.startswith("q^") and ts.startswith("t^")):
                    raise ValueError
                key = (int(qs[2:]), int(ts[2:]))
                c = int(cs)
            except ValueError:
                raise ValueError(f"malformed polynomial term {part!r}") from None
            data[key] = data.get(key, 0) + c
        return cls(data)

    def pretty(self, names: tuple[str, str] = ("q", "t")) -> str:
        """Human-readable form, e.g. ``1 - q*t^2``."""
        if not self._terms:
            return "0"
        out: list[str] = []
        for (a, b), c in sorted(self._terms.items()):
            factors = []
            for name, e in ((names[0], a), (names[1], b)):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.pretty()})"


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num / den if den divides num in the Laurent ring, else None.

    Monomials are units here, so both operands are first shifted to honest
    polynomials with componentwise minimal exponent 0; divisibility is then
    ordinary polynomial divisibility, decided by long division in lex order.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero()

    def min_exps(p: LaurentPoly) -> tuple[int, int]:
        keys = list(p._terms)
        return min(k[0] for k in keys), min(k[1] for k in keys)

    na, nb = min_exps(num)
    da, db = min_exps(den)
    shift = (na - da, nb - db)
    rem = {(a - na, b - nb): c for (a, b), c in num._terms.items()}
    dterms = sorted(
        (((a - da, b - db), c) for (a, b), c in den._terms.items()), reverse=True
    )
    (lda, ldb), ldc = dterms[0]
    quot: dict[tuple[int, int], int] = {}
    while rem:
        (ra, rb) = max(rem)
        rc = rem[(ra, rb)]
        qa, qb = ra - lda, rb - ldb
        if qa < 0 or qb < 0 or rc % ldc:
            return None
        qc = rc // ldc
        quot[(qa, qb)] = qc
        for (a, b), c in dterms:
            key = (a + qa, b + qb)
            v = rem.get(key, 0) - qc * c
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return LaurentPoly._make(
        {(a + shift[0], b + shift[1]): c for (a, b), c in quot.items()}
    )
