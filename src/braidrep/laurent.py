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
term maps are equal.  A constant polynomial hashes like its integer.

All term collection goes through one private kernel: ``_accumulate`` adds
(key, coefficient) items into a dict and drops zero sums, and ``_add_product``,
the only double loop over term pairs, adds x * y into an accumulator that
``_collected`` turns into a polynomial.  The sparse-row product
``matrix._times`` (``RepMatrix.__mul__``, the word images and the inverse
generator tables), the elimination in ``matrix`` and the W-vector action in
``lkb`` use it too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Mapping


def _accumulate(acc: dict, items) -> dict:
    """Add (key, coefficient) items into acc, dropping keys whose sum is 0."""
    get = acc.get
    for key, c in items:
        v = get(key, 0) + c
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]
    return acc


def _add_product(acc: dict, x: "LaurentPoly", y: "LaurentPoly") -> dict:
    """Add the term products of x * y into acc; sums that cancel stay as 0."""
    get = acc.get
    y_items = y._terms.items()
    for (a1, b1), c1 in x._terms.items():
        for (a2, b2), c2 in y_items:
            key = (a1 + a2, b1 + b2)
            acc[key] = get(key, 0) + c1 * c2
    return acc


def _collected(acc: dict) -> "LaurentPoly":
    """The polynomial of an accumulator filled by _add_product; acc is taken over, not copied."""
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    return LaurentPoly._make(acc) if acc else _ZERO


class LaurentPoly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        items = (terms or {}).items()
        self._terms = _accumulate({}, (((index(a), index(b)), index(c)) for (a, b), c in items))
        self._hash = None

    @classmethod
    def _make(cls, data: dict[tuple[int, int], int]) -> "LaurentPoly":
        # internal: data must already be normalized (no zero coefficients)
        self = object.__new__(cls)
        self._terms = data
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._make({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({(0, 0): index(c)} if c else {})

    @classmethod
    def monomial(cls, c: int, a: int, b: int) -> "LaurentPoly":
        """c * v1^a * v2^b"""
        return cls._make({(index(a), index(b)): index(c)} if c else {})

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
            terms = self._terms
            if terms.keys() <= {(0, 0)}:
                h = hash(terms.get((0, 0), 0))
            else:
                h = hash(frozenset(terms.items()))
            self._hash = h
        return h

    def is_one(self) -> bool:
        return self._terms == {(0, 0): 1}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._make(_accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return -self + other

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentPoly._make({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _collected(_add_product({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "LaurentPoly":
        if exp < 0:
            if len(self._terms) == 1:
                ((a, b), c) = next(iter(self._terms.items()))
                if c in (1, -1):
                    return LaurentPoly.monomial(c if exp % 2 else 1, a * exp, b * exp)
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
        t_value = Fraction(t_value)
        if t_value == 0 and any(b < 0 for _, b in self._terms):
            raise ValueError("zero evaluation point for a variable with negative exponent")
        values = self.evaluate_first(q_value)
        return sum((c * t_value**b for b, c in values.items()), Fraction(0))

    def evaluate_first(self, q_value: Fraction) -> dict[int, Fraction]:
        """Evaluate the first variable, keeping the second symbolic.

        Returns a map from second-variable exponent to exact rational coefficient.
        """
        q_value = Fraction(q_value)
        if q_value == 0 and any(a < 0 for a, _ in self._terms):
            raise ValueError("zero evaluation point for a variable with negative exponent")
        return _accumulate({}, ((b, c * q_value**a) for (a, b), c in self._terms.items()))

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
        # a variable sent to a negative monomial contributes (-1)^(its exponent)
        flip_a, flip_b = s1 == -1, s2 == -1
        items = (
            ((p1 * a + p2 * b, r1 * a + r2 * b), -c if (flip_a * a + flip_b * b) % 2 else c)
            for (a, b), c in self._terms.items()
        )
        return LaurentPoly._make(_accumulate({}, items))

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
        items = []
        for part in text.split(" + "):
            try:
                cs, qs, ts = part.split("*")
                if not (qs.startswith("q^") and ts.startswith("t^")):
                    raise ValueError
                key = (int(qs[2:]), int(ts[2:]))
                c = int(cs)
            except ValueError:
                raise ValueError(f"malformed polynomial term {part!r}") from None
            items.append((key, c))
        return cls._make(_accumulate({}, items))

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
    if len(den._terms) == 1:  # a monomial: only its coefficient can fail to divide
        ((da, db), dc), = den._terms.items()
        if any(c % dc for c in num._terms.values()):
            return None
        return LaurentPoly._make({(a - da, b - db): c // dc for (a, b), c in num._terms.items()})

    def min_exps(p: LaurentPoly) -> tuple[int, int]:
        first, second = zip(*p._terms)
        return min(first), min(second)

    na, nb = min_exps(num)
    da, db = min_exps(den)
    rem = {(a - na, b - nb): c for (a, b), c in num._terms.items()}
    dterms = [((a - da, b - db), c) for (a, b), c in den._terms.items()]
    (lda, ldb), ldc = max(dterms)
    quot: dict[tuple[int, int], int] = {}
    while rem:
        ra, rb = max(rem)
        rc = rem[(ra, rb)]
        qa, qb = ra - lda, rb - ldb
        if qa < 0 or qb < 0 or rc % ldc:
            return None
        qc = rc // ldc
        quot[(qa + na - da, qb + nb - db)] = qc
        _accumulate(rem, [((a + qa, b + qb), -qc * c) for (a, b), c in dterms])
    return LaurentPoly._make(quot)


_ZERO = LaurentPoly._make({})
