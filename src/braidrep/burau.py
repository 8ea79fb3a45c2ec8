"""
The unreduced Burau representation and its specializations.

The i-th generator acts by the identity outside rows/columns i, i+1 and by
the block [[1-t, t], [1, 0]] there.  All matrices live over Laurent
polynomials in t alone (the first exponent slot stays 0).  Substituting
t = 1 recovers the permutation matrices of the symmetric group, and the
whole representation splits off a trivial one-dimensional summand, exposed
here as the reduced (n-1)-dimensional view.  Each generator and its inverse
are cached once, by ``burau_generator``; word images multiply their sparse
rows like the LKB ones (``matrix._product``).

This representation is unfaithful from five strands on (Bigelow, Geom.
Topol. 3, 1999); ``kernel_word_b6`` returns the classical 44-letter
commutator in B6 witnessing that, built from two conjugates of the third
generator whose Burau images commute while the braids themselves do not.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .braid import BraidWord, Permutation
from .errors import InternalCheckError
from .laurent import LaurentPoly
from .matrix import RepMatrix, _product, relation_inverse, solve


# The Hecke relation (s - 1)(s + t) = 0 gives s^-1 = u s + v with these (u, v).
_HECKE_INVERSE = (LaurentPoly.monomial(1, 0, -1), LaurentPoly({(0, 0): 1, (0, -1): -1}))


@functools.lru_cache(maxsize=None)
def burau_generator(n: int, i: int, sign: int = 1) -> RepMatrix:
    """Matrix of the i-th generator (sign=+1) or its inverse (sign=-1); the
    inverse comes from the Hecke relation and is checked by s * s^-1 = I."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1:
        u, v = _HECKE_INVERSE
        return relation_inverse(burau_generator(n, i, 1), (v, u), "Burau")
    one = LaurentPoly.one()
    t = LaurentPoly.var_t()
    rows = [((r, one),) for r in range(n)]
    rows[i - 1] = ((i - 1, one - t), (i, t))
    rows[i] = ((i - 1, one),)
    return RepMatrix.from_sparse_rows(rows)


def burau_of_word(word: BraidWord) -> RepMatrix:
    n = word.n
    return _product(n, [burau_generator(n, abs(e), 1 if e > 0 else -1) for e in word.letters])


def kernel_word_b6() -> BraidWord:
    """The 44-letter commutator in B_6 killed by Burau but not by LKB.

    With f1 = s1^2 s2^-1 s5^-2 s4 and f2 = s1^-1 s2 s5 s4^-1, the two
    conjugates a = f1 s3 f1^-1 and b = f2 s3 f2^-1 have commuting Burau
    images, so the commutator a^-1 b^-1 a b is in the kernel.
    """
    f1 = BraidWord(6, (1, 1, -2, -5, -5, 4))
    f2 = BraidWord(6, (-1, 2, 5, -4))
    s3 = BraidWord(6, (3,))
    a = f1 * s3 * f1.inverse()
    b = f2 * s3 * f2.inverse()
    return a.inverse() * b.inverse() * a * b


def burau_specialize_t1(matrix: RepMatrix) -> tuple[tuple[int, ...], ...]:
    """Evaluate at t = 1; the result must be a 0/1 permutation matrix."""
    one = Fraction(1)
    rows = []
    for row in matrix.entries:
        out = []
        for e in row:
            v = e.evaluate(one, one)
            if v not in (0, 1):
                raise InternalCheckError(f"entry {v} at t=1 is not 0 or 1")
            out.append(int(v))
        rows.append(tuple(out))
    result = tuple(rows)
    n = matrix.dim
    if any(sum(row) != 1 for row in result) or any(
        sum(result[r][c] for r in range(n)) != 1 for c in range(n)
    ):
        raise InternalCheckError("specialization at t=1 is not a permutation matrix")
    return result


def permutation_matrix(x: Permutation) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix with entry [r][c] = 1 iff x maps c to r (0-based)."""
    n = x.n
    return tuple(
        tuple(1 if x.image[c] == r else 0 for c in range(n)) for r in range(n)
    )


@functools.lru_cache(maxsize=None)
def _reduced_basis(n: int) -> RepMatrix:
    # Columns: h_i = t*e_i - e_{i+1} for i < n, then the all-ones fixed vector.
    # The h_i span the kernel of the invariant functional v -> sum t^(i-1) v_i.
    one = LaurentPoly.one()
    t = LaurentPoly.var_t()
    rows = [[(n - 1, one)] for _ in range(n)]
    for i in range(n - 1):
        rows[i].append((i, t))
        rows[i + 1].append((i, -one))
    return RepMatrix.from_sparse_rows(rows)


def burau_reduced_of_word(word: BraidWord) -> RepMatrix:
    """The (n-1)-dimensional summand of the Burau image of the word.

    Conjugates into the basis above and checks that the result is genuinely
    block diagonal with a trailing 1x1 identity block.
    """
    n = word.n
    if n < 2:
        raise ValueError("reduced Burau needs at least 2 strands")
    basis = _reduced_basis(n)
    full = burau_of_word(word)
    conj = solve(basis, full * basis)
    one = LaurentPoly.one()
    for k in range(n - 1):
        if conj.entries[k][n - 1] or conj.entries[n - 1][k]:
            raise InternalCheckError("Burau image is not block diagonal in the reduced basis")
    if conj.entries[n - 1][n - 1] != one:
        raise InternalCheckError("trivial summand does not act by 1")
    return RepMatrix(tuple(row[: n - 1] for row in conj.entries[: n - 1]))
