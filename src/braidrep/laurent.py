"""
Exact sparse Laurent polynomials in two commuting variables.

A polynomial is a finite map from exponent pairs (a, b) to nonzero integer
coefficients, standing for sum of c * v1^a * v2^b.  Exponents may be
negative; each lies in -MAX_EXPONENT .. MAX_EXPONENT, that is within
2^14 - 1 = 16383 of 0.  Coefficients are Python ints, so arithmetic never
overflows.  The variable names are contextual: (q, t) for the braid
representations, (alpha, l) after the substitution used for the BMW checks;
the polynomial itself only knows exponent slots.

Instances are immutable: every operation returns a fresh polynomial, and
zero coefficients are never stored, so two polynomials are equal iff their
term maps are equal.  A constant polynomial hashes like its integer.

Inside, the term c * v1^a * v2^b is stored under one int key, a * 2^16 + b,
with b read back in [-2^15, 2^15) (Kronecker substitution; Harvey, J.
Symbolic Comput. 44, 2009).  A monomial product is then one int addition,
and int order is (a, b) lex order.  Only this module reads the layout: every
public method takes and gives (a, b) pairs.  Within the range every key lies
below 2^30, one CPython digit, so key sums and dict lookups stay on the
small-int fast path; keys a * 2^32 + b ran the lkb_short operations about 7%
slower (Python 3.11, 2-vCPU host).  The sum of two keys in range still reads
back exactly, so a product of polynomials in range can be checked before or
after it is formed.  The range is checked where exponents can grow:
  - on each term that the constructor, ``monomial``, ``from_text`` and
    ``subst_monomial`` build;
  - on exponent boxes (``_check_range``): before a product (``__mul__``,
    ``__pow__``, and in ``matrix`` ``_product``, which ``RepMatrix.__mul__``
    and the word images run, and ``relation_inverse``, which builds the
    inverse generator tables), and on each quotient of ``divide_exact``,
    hence on every entry that the elimination in ``matrix`` stores.
An exponent out of range raises ``ResourceGuardError``; no key wraps.

All term collection goes through one private kernel: ``_accumulate`` adds
(key, coefficient) items into a dict and drops zero sums, and ``_add_product``,
the only loop over term pairs, adds x times each entry of a sparse row into
one accumulator per column, which ``_collected`` turns into a polynomial.
The sparse-row product ``matrix._times`` (in the matrix product, the word
images and the inverse generator tables), ``LaurentPoly.__mul__``, the
elimination in ``matrix`` and the W-vector action in ``lkb`` use it.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Mapping

from .errors import ResourceGuardError

# fractions is imported in the functions that make a Fraction: a cold CLI
# request never makes one, and the import costs it about 2 ms.
if TYPE_CHECKING:
    from fractions import Fraction

MAX_EXPONENT = (1 << 14) - 1
_SHIFT = 16  # key = a * 2^_SHIFT + b
_HALF = 1 << (_SHIFT - 1)  # b is kept in [-_HALF, _HALF)
_MASK = (1 << _SHIFT) - 1


def _key(a: int, b: int) -> int:
    """The key of the exponent pair (a, b), which must be ints in range."""
    a, b = index(a), index(b)
    _check_range(((a, b, a, b),))
    return (a << _SHIFT) + b


def _pair(key: int) -> tuple[int, int]:
    """The exponent pair (a, b) of a key."""
    a = (key + _HALF) >> _SHIFT
    return a, key - (a << _SHIFT)


def _exponent_box(polys) -> tuple[int, int, int, int]:
    """(min a, min b, max a, max b) over the terms of polys; zeros when they have none."""
    keys = [key for p in polys for key in p._terms]
    if not keys:
        return 0, 0, 0, 0
    low = [(key + _HALF) & _MASK for key in keys]
    return (
        (min(keys) + _HALF) >> _SHIFT, min(low) - _HALF,
        (max(keys) + _HALF) >> _SHIFT, max(low) - _HALF,
    )


def _check_range(boxes) -> None:
    """Refuse, with ResourceGuardError, exponents that may reach beyond the
    range: those of a product of factors with these exponent boxes, which
    lie in the sum of the boxes."""
    lo_a = lo_b = hi_a = hi_b = 0
    for la, lb, ha, hb in boxes:
        lo_a, lo_b, hi_a, hi_b = lo_a + la, lo_b + lb, hi_a + ha, hi_b + hb
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    if lo < -MAX_EXPONENT or hi > MAX_EXPONENT:
        raise ResourceGuardError(
            f"exponent {lo if lo < -MAX_EXPONENT else hi} is outside the polynomial range"
            f" -{MAX_EXPONENT}..{MAX_EXPONENT}"
        )


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


def _add_product(accs: dict, x: "LaurentPoly", row) -> dict:
    """For each (c, y) in row, add the term products of x * y into the
    accumulator accs[c]; sums that cancel stay as 0."""
    x_items = x._terms.items()
    for c, y in row:
        y_terms = y._terms
        acc = accs.get(c)
        if acc is None:
            accs[c] = acc = {}
        get = acc.get
        for k1, c1 in x_items:
            if not acc:  # nothing to add to: y's terms go in shifted and scaled
                unit = k1 == 0 and c1 == 1
                acc.update(y_terms if unit else {k1 + k2: c1 * c2 for k2, c2 in y_terms.items()})
                continue
            for k2, c2 in y_terms.items():
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    return accs


def _collected(acc: dict) -> "LaurentPoly":
    """The polynomial of an accumulator filled by _add_product; acc is taken over, not copied."""
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    return LaurentPoly._make(acc) if acc else _ZERO


class LaurentPoly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        items = (terms or {}).items()
        self._terms = _accumulate({}, ((_key(a, b), index(c)) for (a, b), c in items))
        self._hash = None

    @classmethod
    def _make(cls, data: dict[int, int]) -> "LaurentPoly":
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
        return cls._make({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({0: index(c)} if c else {})

    @classmethod
    def monomial(cls, c: int, a: int, b: int) -> "LaurentPoly":
        """c * v1^a * v2^b"""
        return cls._make({_key(a, b): index(c)} if c else {})

    @classmethod
    def var_q(cls) -> "LaurentPoly":
        return cls.monomial(1, 1, 0)

    @classmethod
    def var_t(cls) -> "LaurentPoly":
        return cls.monomial(1, 0, 1)

    # -- structure ---------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], int]:
        return {_pair(key): c for key, c in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            terms = self._terms
            if terms.keys() <= {0}:
                h = hash(terms.get(0, 0))
            else:
                h = hash(frozenset(terms.items()))
            self._hash = h
        return h

    def is_one(self) -> bool:
        return self._terms == {0: 1}

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
        _check_range((_exponent_box((self,)), _exponent_box((other,))))
        return _collected(_add_product({}, self, ((0, other),))[0])

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "LaurentPoly":
        if exp < 0:
            if len(self._terms) == 1:
                ((key, c),) = self._terms.items()
                if c in (1, -1):
                    a, b = _pair(key)
                    return LaurentPoly.monomial(c if exp % 2 else 1, a * exp, b * exp)
            raise ValueError("negative powers only for unit monomials")
        _check_range([tuple(exp * x for x in _exponent_box((self,)))])
        acc = LaurentPoly.one()
        base = self
        while exp:
            if exp & 1:
                acc = acc * base
            exp >>= 1
            if exp:
                base = base * base
        return acc

    # -- queries -----------------------------------------------------------

    def degree_range(self, slot: int) -> tuple[int, int]:
        """(min, max) exponent of the given variable slot (0 or 1) over all terms."""
        if not self._terms:
            raise ValueError("degree range of the zero polynomial is undefined")
        if slot not in (0, 1):
            raise ValueError(f"slot must be 0 or 1, got {slot!r}")
        box = _exponent_box((self,))
        return box[slot], box[slot + 2]

    def t_constant_term(self) -> "LaurentPoly":
        """The part with second-variable exponent 0, as a polynomial in the first variable."""
        return LaurentPoly._make({key: c for key, c in self._terms.items() if not key & _MASK})

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, q_value: Fraction, t_value: Fraction) -> Fraction:
        """Exact value at the given points.

        A zero point is only rejected when the corresponding variable occurs
        with a negative exponent somewhere in the polynomial.
        """
        from fractions import Fraction

        t_value = Fraction(t_value)
        if t_value == 0 and any(b < 0 for _, b in self.terms()):
            raise ValueError("zero evaluation point for a variable with negative exponent")
        values = self.evaluate_first(q_value)
        return sum((c * t_value**b for b, c in values.items()), Fraction(0))

    def evaluate_first(self, q_value: Fraction) -> dict[int, Fraction]:
        """Evaluate the first variable, keeping the second symbolic.

        Returns a map from second-variable exponent to exact rational coefficient.
        """
        from fractions import Fraction

        q_value = Fraction(q_value)
        terms = self.terms().items()
        if q_value == 0 and any(a < 0 for (a, _), _ in terms):
            raise ValueError("zero evaluation point for a variable with negative exponent")
        return _accumulate({}, ((b, c * q_value**a) for (a, b), c in terms))

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
            (_key(p1 * a + p2 * b, r1 * a + r2 * b), -c if (flip_a * a + flip_b * b) % 2 else c)
            for (a, b), c in self.terms().items()
        )
        return LaurentPoly._make(_accumulate({}, items))

    # -- text forms ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical wire form: terms ``c*q^a*t^b`` sorted by (a, b) ascending."""
        if not self._terms:
            return "0"
        parts = [f"{c}*q^{a}*t^{b}" for (a, b), c in sorted(self.terms().items())]
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
                a, b = int(qs[2:]), int(ts[2:])
                c = int(cs)
            except ValueError:
                raise ValueError(f"malformed polynomial term {part!r}") from None
            items.append((_key(a, b), c))
        return cls._make(_accumulate({}, items))

    def pretty(self, names: tuple[str, str] = ("q", "t")) -> str:
        """Human-readable form, e.g. ``1 - q*t^2``."""
        if not self._terms:
            return "0"
        out: list[str] = []
        for (a, b), c in sorted(self.terms().items()):
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

    Monomials are units here, so divisibility is decided by long division
    in lex order, the leading term of a remainder being its largest key.  An
    exact quotient spans, in each slot, num's exponent range less den's
    (degrees add in a product), so a quotient term outside that box proves
    that den does not divide num; inside it, every remainder term stays in
    num's box, within the range.  The quotient's box is checked against the
    range only once the division has succeeded.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero()
    if len(den._terms) == 1:  # a monomial: only its coefficient can fail to divide
        ((dkey, dc),) = den._terms.items()
        if any(c % dc for c in num._terms.values()):
            return None
        da, db = _pair(dkey)
        _check_range((_exponent_box((num,)), (-da, -db, -da, -db)))
        return LaurentPoly._make({key - dkey: c // dc for key, c in num._terms.items()})
    n_box, d_box = _exponent_box((num,)), _exponent_box((den,))
    box = lo_a, lo_b, hi_a, hi_b = tuple(x - y for x, y in zip(n_box, d_box))
    lead = max(den._terms)
    lead_c = den._terms[lead]
    d_items = den._terms.items()
    rem = dict(num._terms)
    quot: dict[int, int] = {}
    while rem:
        r_key = max(rem)
        q_key = r_key - lead
        qa, qb = _pair(q_key)
        if not (lo_a <= qa <= hi_a and lo_b <= qb <= hi_b) or rem[r_key] % lead_c:
            return None
        qc = rem[r_key] // lead_c
        quot[q_key] = qc
        _accumulate(rem, [(q_key + key, -qc * c) for key, c in d_items])
    _check_range((box,))
    return LaurentPoly._make(quot)


_ZERO = LaurentPoly._make({})
