"""
Square matrices over exact Laurent polynomials, and the one sparse-row product.

A ``RepMatrix`` is a dense immutable tuple of rows; ``from_sparse_rows`` is
the one builder that fills in the zeros, and the cached ``sparse_rows`` view
is the one place that reads the nonzeros back out.  Products run on sparse
rows of (column, entry) pairs, since generators are mostly identity rows.
``_times``, a sparse row times a matrix given by its sparse rows, is the only
row product, and ``_product`` the only matrix product: ``RepMatrix.__mul__``
and both word images run it, right to left, acc = G * acc, with the dense
matrix built once, at the end.  ``relation_inverse`` reads a generator's
inverse off its characteristic relation with ``_times``, row by row.  A row
whose only entry is a 1 reuses a row object of the right factor with no
product (the identity's row r keeps row r); the other rows run with the left
factor's entries, small in a generator, as the outer factor.  Each entry
collects its term products in one accumulator of the polynomial kernel.  The
exponents of a product are bounded before it runs, from the cached
``exponent_box`` of each factor: once per product or word image, never per
term.
One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
stays inside the Laurent ring, dividing only exactly; the determinant is read
off it, and solving and inversion divide its right block exactly by the final
pivot.  Entries of a solution are required to be genuine Laurent
polynomials, and an inverse is checked against the identity before
returning; the tests use ``mat_inverse`` as the oracle of the closed forms.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence

from .errors import Frozen, InternalCheckError, wire_index
from .laurent import (
    _ZERO,
    LaurentPoly,
    _add_product,
    _check_range,
    _collected,
    _exponent_box,
    divide_exact,
)


class RepMatrix(Frozen):
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[LaurentPoly, ...], ...]):
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

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
        return cls.scalar(dim, LaurentPoly.one())

    @classmethod
    def scalar(cls, dim: int, value: LaurentPoly) -> "RepMatrix":
        return cls.from_sparse_rows([((r, value),) for r in range(dim)])

    @classmethod
    def from_sparse_rows(cls, rows) -> "RepMatrix":
        """The matrix whose row r has the (column, entry) pairs of rows[r] and zeros elsewhere."""
        zero = LaurentPoly.zero()
        dense = []
        for row in rows:
            out = [zero] * len(rows)
            for c, e in row:
                out[c] = e
            dense.append(tuple(out))
        return cls(tuple(dense))

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _product(self.dim, (self, other))

    @functools.cached_property
    def sparse_rows(self) -> tuple:
        """Row r as the tuple of its nonzero (column, entry) pairs, by column."""
        return tuple(tuple((c, e) for c, e in enumerate(row) if e) for row in self.entries)

    @functools.cached_property
    def exponent_box(self) -> tuple[int, int, int, int]:
        """(min a, min b, max a, max b) over the exponents of all entries;
        zeros for the zero matrix."""
        return _exponent_box(e for row in self.sparse_rows for _, e in row)

    def _entrywise(self, other: "RepMatrix", op) -> "RepMatrix":
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RepMatrix(
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __add__(self, other: "RepMatrix") -> "RepMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "RepMatrix") -> "RepMatrix":
        return self._entrywise(other, operator.sub)

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
        items = [[r, c, e.to_text()] for r, row in enumerate(self.sparse_rows) for c, e in row]
        return {"dim": self.dim, "order": order, "entries": items}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RepMatrix":
        """Read the wire form back; ValueError unless "dim" and "entries" are
        present, the dimension and indices are ints (not booleans), 0 <= row,
        col < dim, no (row, col) repeats, and each polynomial is a string."""
        try:
            dim = wire_index(obj["dim"])
            cells = [(wire_index(r), wire_index(c), text) for r, c, text in obj["entries"]]
        except KeyError as missing:
            raise ValueError(f"matrix object has no {missing} key") from None
        except TypeError:
            raise ValueError("matrix dimension and entry indices must be integers") from None
        if dim < 0:
            raise ValueError(f"matrix dimension {dim} is negative")
        rows: list[dict] = [{} for _ in range(dim)]
        for r, c, text in cells:
            if not (0 <= r < dim and 0 <= c < dim) or c in rows[r]:
                raise ValueError(f"entry ({r}, {c}) repeats or is out of range for dimension {dim}")
            if not isinstance(text, str):
                raise ValueError(f"entry ({r}, {c}) polynomial {text!r} is not a string")
            rows[r][c] = LaurentPoly.from_text(text)
        return cls.from_sparse_rows([row.items() for row in rows])


def _times(row, rows):
    """The sparse row vector row times the matrix with sparse rows rows.

    A row whose only entry is a 1, in column c, gives the object rows[c]
    itself, with no product; an identity row r gives rows[r].
    """
    if len(row) == 1 and row[0][1].is_one():
        return rows[row[0][0]]
    accs = {}
    for c, a in row:
        _add_product(accs, a, rows[c])
    return [(c, e) for c, terms in accs.items() if (e := _collected(terms)) is not _ZERO]


def _product(dim: int, factors) -> RepMatrix:
    """The product of the dim x dim matrices factors, in their order; the
    identity when there are none.

    The exponents of the product lie in the sum of the factors' exponent
    boxes, which is checked once, before any product.  The product runs
    right to left on sparse rows, acc = G * acc, so that row r of the new
    acc is ``_times`` of row r of G and acc, with G's entries as the outer
    factor, and the matrix is made dense once, at the end.  A row of G whose
    only entry is a 1 takes a row object of acc (see ``_times``): no entry is
    copied into a fresh polynomial, and the garbage collector has less to do,
    which read +5% to +18% end to end in the word images.
    """
    _check_range(g.exponent_box for g in factors)
    if not factors:
        return RepMatrix.identity(dim)
    acc = factors[-1].sparse_rows
    for g in reversed(factors[:-1]):
        acc = [_times(row, acc) for row in g.sparse_rows]
    return RepMatrix.from_sparse_rows(acc)


def relation_inverse(matrix: RepMatrix, coeffs, rep: str) -> RepMatrix:
    """s^-1 = sum_k coeffs[k] * s^k for the matrix s, given coeffs from its
    characteristic relation.

    Row j of s^-1 is the vector coeffs times the rows j of s^0, s^1, ...
    Raises InternalCheckError, naming rep, unless s * s^-1 = I row by row.
    """
    # s^-1 and s * s^-1 lie within len(coeffs) factors s and one coefficient
    _check_range([matrix.exponent_box] * len(coeffs) + [_exponent_box(coeffs)])
    one = LaurentPoly.one()
    rows = matrix.sparse_rows
    inverse = []
    for j in range(len(rows)):
        powers = [((j, one),), rows[j]]
        while len(powers) < len(coeffs):
            powers.append(_times(powers[-1], rows))
        inverse.append(_times(tuple(enumerate(coeffs)), powers))
    if any(list(_times(row, inverse)) != [(j, one)] for j, row in enumerate(rows)):
        raise InternalCheckError(f"{rep} inverse table fails sigma * sigma^-1 = I")
    return RepMatrix.from_sparse_rows(inverse)


def t_degree_range(matrix: RepMatrix) -> tuple[int, int]:
    """Smallest and largest exponent of the second variable over all entries."""
    if not any(matrix.sparse_rows):
        raise ValueError("t-degree range of the zero matrix is undefined")
    _, lo, _, hi = matrix.exponent_box
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
    skipped.
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
            neg_a = -a
            # columns left of k are final (zero or the old diagonal) and never read again
            for j in range(k + 1, len(prow)):
                e = row[j]
                g = prow[j]
                if e or (a and g):
                    accs = _add_product(_add_product({}, p, ((0, e),)), neg_a, ((0, g),))
                    num = _collected(accs[0])
                    row[j] = _divide(num, p_prev)
        p_prev = p
    return p_prev, sign, [row[d:] for row in rows]


def _divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    # divide_exact checks the quotient's range, also when den is 1: each
    # product of in-range entries decodes exactly but may leave the range
    if not num:
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
