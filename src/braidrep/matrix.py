"""
Dense square matrices over exact Laurent polynomials.

Matrices are small (at most n(n-1)/2 rows for the representations built on
top), so a dense immutable tuple-of-tuples layout wins over anything sparse.
One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
stays inside the Laurent ring, dividing only exactly; the determinant is read
off it, and solving and inversion divide its right block exactly by the final
pivot.  Entries of a solution are required to be genuine Laurent
polynomials, and an inverse is checked against the identity before
returning, so a wrong generator table cannot silently produce a wrong inverse.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from .errors import InternalCheckError
from .laurent import LaurentPoly, divide_exact


@dataclasses.dataclass(frozen=True)
class RepMatrix:
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        d = len(self.entries)
        if any(len(row) != d for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "RepMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, dim: int) -> "RepMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls(
            tuple(
                tuple(one if r == c else zero for c in range(dim)) for r in range(dim)
            )
        )

    @classmethod
    def scalar(cls, dim: int, value: LaurentPoly) -> "RepMatrix":
        zero = LaurentPoly.zero()
        return cls(
            tuple(
                tuple(value if r == c else zero for c in range(dim))
                for r in range(dim)
            )
        )

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        if not isinstance(other, RepMatrix):
            return NotImplemented
        d = self.dim
        if other.dim != d:
            raise ValueError(f"dimension mismatch: {d} vs {other.dim}")
        zero = LaurentPoly.zero()
        b = other.entries
        rows = []
        for r in range(d):
            arow = self.entries[r]
            acc = [zero] * d
            for s in range(d):
                a = arow[s]
                if not a:
                    continue
                brow = b[s]
                for c in range(d):
                    e = brow[c]
                    if e:
                        acc[c] = acc[c] + a * e
            rows.append(tuple(acc))
        return RepMatrix(tuple(rows))

    def __add__(self, other: "RepMatrix") -> "RepMatrix":
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RepMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RepMatrix") -> "RepMatrix":
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RepMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, factor: LaurentPoly | int) -> "RepMatrix":
        return RepMatrix(
            tuple(tuple(e * factor for e in row) for row in self.entries)
        )

    def is_identity(self) -> bool:
        return self == RepMatrix.identity(self.dim)

    def scalar_value(self) -> LaurentPoly:
        """The scalar c when this matrix equals c * I; raises otherwise."""
        c = self.entries[0][0]
        for r, row in enumerate(self.entries):
            for s, e in enumerate(row):
                if (e != c) if r == s else bool(e):
                    raise InternalCheckError("matrix is not scalar")
        return c

    def subst_monomial(self, first_to, second_to) -> "RepMatrix":
        return RepMatrix(
            tuple(
                tuple(e.subst_monomial(first_to, second_to) for e in row)
                for row in self.entries
            )
        )

    def to_json_obj(self, order: str) -> dict:
        """Wire form: zero entries omitted, 0-based row/col indices."""
        items = []
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                if e:
                    items.append([r, c, e.to_text()])
        return {"dim": self.dim, "order": order, "entries": items}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RepMatrix":
        dim = int(obj["dim"])
        zero = LaurentPoly.zero()
        rows = [[zero] * dim for _ in range(dim)]
        for r, c, text in obj["entries"]:
            rows[r][c] = LaurentPoly.from_text(text)
        return cls.from_rows(rows)


def t_degree_range(matrix: RepMatrix) -> tuple[int, int]:
    """Smallest and largest exponent of the second variable over all entries."""
    lo: int | None = None
    hi: int | None = None
    for row in matrix.entries:
        for e in row:
            if e:
                a, b = e.degree_range(1)
                lo = a if lo is None else min(lo, a)
                hi = b if hi is None else max(hi, b)
    if lo is None or hi is None:
        raise ValueError("t-degree range of the zero matrix is undefined")
    return lo, hi


def _eliminate(
    lhs: RepMatrix, rhs_rows: Sequence[tuple[LaurentPoly, ...]]
) -> tuple[LaurentPoly, int, list[list[LaurentPoly]]]:
    """Fraction-free Gauss-Jordan elimination of the block matrix [lhs | rhs].

    Step k takes the first row at or below k with a nonzero entry in column k
    as pivot row, with pivot p, and sets every other row to
    (p * row - a_ik * pivot_row) / p_prev, where p_prev is the previous pivot
    (1 at the start).  Each division is exact by Sylvester's identity, so all
    arithmetic stays in the Laurent ring.  At the end the left block is p * I,
    so the determinant of lhs is sign * p for the parity sign of the row swaps.

    Returns (p, sign, right block); p is zero and the right block empty when
    lhs is singular.  Entries known to stay zero or to be unchanged are
    skipped, which keeps cold generator inversion fast.
    """
    d = lhs.dim
    rows = [list(a + b) for a, b in zip(lhs.entries, rhs_rows)]
    p_prev = LaurentPoly.one()
    sign = 1
    for k in range(d):
        pivot = next((r for r in range(k, d) if rows[r][k]), None)
        if pivot is None:
            return LaurentPoly.zero(), sign, []
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        prow = rows[k]
        p = prow[k]
        rescale = p != p_prev
        for i in range(d):
            row = rows[i]
            a = row[k]
            if i == k or not (a or rescale):
                continue
            # columns left of k are final (zero or the old diagonal) and never read again
            for j in range(k + 1, len(prow)):
                e = row[j]
                g = prow[j]
                if a and g:
                    num = p * e - a * g if e else -(a * g)
                elif e:
                    num = p * e
                else:
                    continue
                row[j] = _divide(num, p_prev)
        p_prev = p
    return p_prev, sign, [row[d:] for row in rows]


def _divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    if den.is_one():
        return num
    quot = divide_exact(num, den)
    if quot is None:
        raise InternalCheckError(
            f"quotient is not a Laurent polynomial: ({num.pretty()}) / ({den.pretty()})"
        )
    return quot


def solve(lhs: RepMatrix, rhs: RepMatrix) -> RepMatrix:
    """The exact solution X of lhs * X = rhs over the Laurent ring.

    Raises InternalCheckError when lhs is singular or an entry of X is not a
    Laurent polynomial.
    """
    if rhs.dim != lhs.dim:
        raise ValueError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    p, _, right = _eliminate(lhs, rhs.entries)
    if not p:
        raise InternalCheckError("singular matrix")
    return RepMatrix(tuple(tuple(_divide(e, p) for e in row) for row in right))


def mat_inverse(matrix: RepMatrix) -> RepMatrix:
    """Exact inverse; entries must reduce to Laurent polynomials.

    The product matrix * inverse is asserted to be the identity before
    returning.
    """
    inv = solve(matrix, RepMatrix.identity(matrix.dim))
    if not (matrix * inv).is_identity():
        raise InternalCheckError("inverse verification failed")
    return inv


def mat_det(matrix: RepMatrix) -> LaurentPoly:
    """Exact determinant, read off the fraction-free elimination."""
    p, sign, _ = _eliminate(matrix, [()] * matrix.dim)
    return p if sign == 1 else -p
