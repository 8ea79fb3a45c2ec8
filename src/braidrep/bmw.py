"""
Dimensions in the Birman-Murakami-Wenzl tower and the symbolic relation
checks tying the LKB representation to it.

The irreducible modules of the n-th algebra in the tower are indexed by
Young diagrams with at most n boxes and box count congruent to n mod 2.
Their dimensions are path counts in the Bratteli diagram (level n-1
neighbors of a diagram are obtained by removing one box, or adding one when
the diagram has fewer than n boxes), evaluated in closed form.

Partitions are stored as weakly decreasing row lengths.  The tower's
distinguished diagrams, written in rows:

    column of n boxes      -> (1,)*n       dimension 1
    two columns n-1 and 1  -> (2, 1, ..)   dimension n-1
    column of n-2 boxes    -> (1,)*(n-2)   dimension n(n-1)/2, the LKB dimension

The last coincidence is witnessed concretely: substituting q -> -a^-2,
t -> a^3 l^-1 into the LKB matrices and scaling by a yields matrices S_i
that satisfy the defining quotient relations of the tower algebras, checked
here over Z[a^{+-1}, l^{+-1}] with denominators cleared.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import Frozen, ResourceGuardError
from .laurent import LaurentPoly
from .lkb import lkb_dim, lkb_generator
from .matrix import RepMatrix


class YoungDiagram(Frozen):
    _fields = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        for r, length in enumerate(self.rows):
            if length < 1 or (r > 0 and length > self.rows[r - 1]):
                raise ValueError(f"not weakly decreasing positive rows: {self.rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    @classmethod
    def empty(cls) -> "YoungDiagram":
        return cls(())

    @classmethod
    def column(cls, n: int) -> "YoungDiagram":
        """A single column of n boxes."""
        return cls((1,) * n)

    @classmethod
    def row(cls, n: int) -> "YoungDiagram":
        return cls((n,) if n else ())

    @classmethod
    def hook(cls, n: int) -> "YoungDiagram":
        """Two columns of n-1 and 1 boxes (n >= 2)."""
        if n < 2:
            raise ValueError("the two-column diagram needs at least 2 boxes")
        return cls((2,) + (1,) * (n - 2))

    def with_box_removed(self) -> list["YoungDiagram"]:
        out = []
        for r, length in enumerate(self.rows):
            if r + 1 < len(self.rows) and self.rows[r + 1] == length:
                continue
            rows = list(self.rows)
            rows[r] -= 1
            if rows[r] == 0:
                rows.pop(r)
            out.append(YoungDiagram(tuple(rows)))
        return out

    def with_box_added(self) -> list["YoungDiagram"]:
        out = []
        for r in range(len(self.rows)):
            if r == 0 or self.rows[r] < self.rows[r - 1]:
                rows = list(self.rows)
                rows[r] += 1
                out.append(YoungDiagram(tuple(rows)))
        out.append(YoungDiagram(self.rows + (1,)))
        return out

    def to_text(self) -> str:
        return ",".join(str(r) for r in self.rows) if self.rows else "-"

    @classmethod
    def from_text(cls, text: str) -> "YoungDiagram":
        text = text.strip()
        if text in ("", "-"):
            return cls.empty()
        try:
            rows = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"malformed partition {text!r}") from None
        return cls(rows)


def _partitions(total: int) -> Iterator[tuple[int, ...]]:
    """The partitions of total, weakly decreasing, in descending lexicographic order.

    The next partition drops the trailing 1s, lowers the last larger part by
    one and refills the remainder with parts no larger than it.
    """
    parts = [total] if total else []
    while True:
        yield tuple(parts)
        ones = parts.count(1)
        del parts[len(parts) - ones :]
        if not parts:
            return
        parts[-1] -= 1
        full, rest = divmod(ones + 1, parts[-1])
        parts += [parts[-1]] * full
        if rest:
            parts.append(rest)


def level_diagrams(n: int) -> list[YoungDiagram]:
    """All diagrams admissible at level n: |d| <= n and |d| = n mod 2.

    Ordered by increasing box count, then descending lexicographically.
    """
    if n < 1:
        raise ValueError("levels start at 1")
    out = []
    for size in range(n % 2, n + 1, 2):
        out.extend(YoungDiagram(rows) for rows in _partitions(size))
    return out


def _is_admissible(diagram: YoungDiagram, n: int) -> bool:
    return diagram.size <= n and diagram.size % 2 == n % 2


def bratteli_neighbors(diagram: YoungDiagram, n: int) -> list[YoungDiagram]:
    """Level n-1 diagrams connected to the given level-n diagram."""
    if not _is_admissible(diagram, n):
        raise ValueError(f"{diagram.rows} is not admissible at level {n}")
    out = diagram.with_box_removed()
    if diagram.size < n:
        out.extend(diagram.with_box_added())
    return out


def _standard_tableaux(rows: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula, with hook lengths h_i in the first
    column: k! prod_{i<j} (h_i - h_j) / prod_i h_i!."""
    firsts = [length + len(rows) - 1 - r for r, length in enumerate(rows)]
    vandermonde = math.prod(h - g for r, h in enumerate(firsts) for g in firsts[r + 1 :])
    return math.factorial(sum(rows)) * vandermonde // math.prod(map(math.factorial, firsts))


def bratteli_dim(n: int, diagram: YoungDiagram) -> int:
    """Number of downward paths from the diagram at level n to level 1.

    Computed in closed form: C(n, k) (n-k-1)!! f^lambda for a diagram
    lambda of k boxes, f^lambda its number of standard tableaux (cf.
    H. Wenzl, Ann. of Math. 128, 1988).
    """
    if not _is_admissible(diagram, n):
        raise ValueError(f"{diagram.rows} is not admissible at level {n}")
    k = diagram.size
    pairings = math.prod(range(n - k - 1, 0, -2))
    return math.comb(n, k) * pairings * _standard_tableaux(diagram.rows)


def sum_sq_dimensions(n: int) -> int:
    """Sum of squared module dimensions at level n (the algebra dimension)."""
    return sum(bratteli_dim(n, d) ** 2 for d in level_diagrams(n))


# -- symbolic relation checks ---------------------------------------------------

# q -> -a^-2 and t -> a^3 l^-1, landing in Laurent polynomials in (a, l)
_Q_TO = (-1, -2, 0)
_T_TO = (1, 3, -1)


class RelationCheck(Frozen):
    _fields = ("name", "holds", "required")

    def __init__(self, name: str, holds: bool, required: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "required", required)


class BMWReport(Frozen):
    _fields = ("n", "checks")

    def __init__(self, n: int, checks: tuple[RelationCheck, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks if c.required)


def _substituted_generator(n: int, i: int, sign: int) -> RepMatrix:
    alpha = LaurentPoly.monomial(1, 1, 0)
    alpha_inv = LaurentPoly.monomial(1, -1, 0)
    mat = lkb_generator(n, i, sign).subst_monomial(_Q_TO, _T_TO)
    return mat.scale(alpha if sign == 1 else alpha_inv)


def bmw_relation_check(n: int) -> BMWReport:
    """Verify the tower's quotient relations on the substituted LKB matrices.

    With S_i the scaled substituted generator and
    E_i = S_i + S_i^-1 - (a + a^-1) I (the idempotent with its denominator
    cleared), the required identities are

        E_i S_i           = l^-1 E_i
        E_i S_{i-1}^{+-1} E_i = l^{+-1} (a + a^-1) E_i   (i >= 2)

    all checked exactly over Z[a^{+-1}, l^{+-1}].  The mirrored identities
    with S_{i+1} in place of S_{i-1} are reported as well but are not part
    of the required list.
    """
    if not 2 <= n <= 6:
        raise ResourceGuardError(f"BMW relation check supported for 2 <= n <= 6, got {n}")
    alpha = LaurentPoly.monomial(1, 1, 0)
    alpha_inv = LaurentPoly.monomial(1, -1, 0)
    l_pos = LaurentPoly.monomial(1, 0, 1)
    l_inv = LaurentPoly.monomial(1, 0, -1)
    unit_sum = alpha + alpha_inv
    dim = lkb_dim(n)
    identity = RepMatrix.identity(dim)
    s = {(i, sign): _substituted_generator(n, i, sign) for i in range(1, n) for sign in (1, -1)}
    e = {i: s[i, 1] + s[i, -1] - identity.scale(unit_sum) for i in range(1, n)}

    checks: list[RelationCheck] = []
    for i in range(1, n):
        checks.append(
            RelationCheck(
                name=f"E{i}*S{i} == l^-1*E{i}",
                holds=e[i] * s[i, 1] == e[i].scale(l_inv),
                required=True,
            )
        )
    for offset, suffix in ((-1, ""), (1, " [mirror]")):
        for i in range(1, n):
            j = i + offset
            if not 1 <= j < n:
                continue
            for sign, factor, tag in ((1, l_pos, "l"), (-1, l_inv, "l^-1")):
                checks.append(
                    RelationCheck(
                        name=f"E{i}*S{j}^{sign:+d}*E{i} == {tag}*(a+a^-1)*E{i}{suffix}",
                        holds=e[i] * s[j, sign] * e[i] == e[i].scale(factor * unit_sum),
                        required=offset == -1,
                    )
                )
    return BMWReport(n, tuple(checks))
