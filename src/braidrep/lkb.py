"""
The Lawrence-Krammer-Bigelow representation and the word-problem tools
built on its faithfulness.

The module V has basis x_s indexed by the pairs s = (i, j), 1 <= i < j <= n,
taken in lexicographic order, over Laurent polynomials in q and t.  The
action of the k-th generator on a basis vector x_{i,j} splits into seven
cases depending on how k sits relative to i and j:

    k < i-1 or j < k :  x_{i,j}
    k = i-1          :  x_{i-1,j} + (1-q) x_{i,j}
    k = i < j-1      :  t q (q-1) x_{i,i+1} + q x_{i+1,j}
    k = i = j-1      :  t q^2 x_{i,j}
    i < k < j-1      :  x_{i,j} + t q^(k-i) (q-1)^2 x_{k,k+1}
    k = j-1 (k > i)  :  x_{i,j-1} + t q^(j-i) (q-1) x_{j-1,j}
    k = j            :  (1-q) x_{i,j} + q x_{i,j+1}

Each generator and its inverse are cached once, by ``lkb_generator``: the
word images, the tables mod P, and the actions on W and on subsets of Ref
below all read the sparse rows of that one matrix.

Because the representation is faithful, the image matrix is a complete
invariant of the braid: triviality, word equality, and the word length with
respect to the simple elements and their inverses are all decided here.

One rule decides the word problem: ``words_equal`` asks two exact engines
and answers only when they agree, and ``is_trivial`` is equality with the
empty word.  The first engine applies the words to one fixed vector with the
generators evaluated at a fixed point (q, t) modulo the prime
P = 2^61 - 1, which costs O(length * nonzeros) and builds no matrix.
Evaluation is a ring homomorphism, so a difference there proves "no"
exactly (cf. J. T. Schwartz, J. ACM 27, 1980).  The second is the signed
Garside normal form Delta^p A_1 ... A_k (``garside``), a complete invariant
whose equality proves "yes".  Exact LKB images of both words are built
only when mod P agrees and the normal forms differ; a disagreement that
survives them raises ``InternalCheckError``.  There, in ``length_omega``
and in the CLI's ``matrix`` (either rep), only words of at most
BRAIDREP_MAX_EXACT_LETTERS letters get an exact image
(``ResourceGuardError`` beyond).

``lkb_of_word`` multiplies the letters as written, never a rewritten word:
it is the oracle that the normal form is tested against, and the exact
check that settles a collision mod P, so a fault in the normal form cannot
reach it.  ``length_omega`` alone skips the product of a signed word whose
normal form is empty, a trivial braid, after the cap and the exponent range
have judged the word as given.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING

from .braid import BraidWord, all_permutations, refpairs
from .errors import Frozen, InternalCheckError, ResourceGuardError
from .garside import _signed_normal_form
from .laurent import LaurentPoly, _accumulate, _check_range
from .matrix import RepMatrix, _product, relation_inverse, t_degree_range

# fractions is imported in the functions that make a Fraction: a cold CLI
# request never makes one, and the import costs it about 2 ms.
if TYPE_CHECKING:
    from fractions import Fraction


def lkb_dim(n: int) -> int:
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: idx for idx, pair in enumerate(refpairs(n))}


@functools.lru_cache(maxsize=None)
def _column_entry(c: int, a: int, b: int, e: int) -> LaurentPoly:
    """c q^a t^b (q - 1)^e, the form of every entry of ``_generator_column``."""
    return LaurentPoly.monomial(c, a, b) * (LaurentPoly.var_q() - LaurentPoly.one()) ** e


def _generator_column(n: int, k: int, i: int, j: int):
    """Image of x_{i,j} under sigma_k as (coefficient, target pair) terms."""
    one = _column_entry(1, 0, 0, 0)
    if k < i - 1 or j < k:
        return [(one, (i, j))]
    if k == i - 1:
        return [(one, (i - 1, j)), (_column_entry(-1, 0, 0, 1), (i, j))]
    if k == i and i == j - 1:
        return [(_column_entry(1, 2, 1, 0), (i, j))]
    if k == i:
        return [(_column_entry(1, 1, 1, 1), (i, i + 1)), (_column_entry(1, 1, 0, 0), (i + 1, j))]
    if i < k < j - 1:
        return [(one, (i, j)), (_column_entry(1, k - i, 1, 2), (k, k + 1))]
    if k == j - 1:
        return [(one, (i, j - 1)), (_column_entry(1, j - i, 1, 1), (j - 1, j))]
    if k == j:
        return [(_column_entry(-1, 0, 0, 1), (i, j)), (_column_entry(1, 1, 0, 0), (i, j + 1))]
    raise AssertionError(f"unreachable case k={k}, i={i}, j={j}")


# sigma_k has eigenvalues 1, -q and t q^2, so (s - 1)(s + q)(s - t q^2) = 0
# and s^-1 = u (s^2 + a s + b) with these (u, a, b).
_INVERSE_RELATION = (
    LaurentPoly.monomial(-1, -3, -1),
    LaurentPoly({(1, 0): 1, (0, 0): -1, (2, 1): -1}),
    LaurentPoly({(2, 1): 1, (1, 0): -1, (3, 1): -1}),
)


@functools.lru_cache(maxsize=None)
def lkb_generator(n: int, k: int, sign: int = 1) -> RepMatrix:
    """Matrix of sigma_k^(+-1) in the x basis, columns indexed lexicographically.

    The rows of sigma_k transpose the columns of ``_generator_column``.  The
    inverse comes from the cubic relation (s - 1)(s + q)(s - t q^2) = 0,
    which the transpose satisfies too, with no elimination, and is checked
    by s * s^-1 = I.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n={n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1:
        u, a, b = _INVERSE_RELATION
        return relation_inverse(lkb_generator(n, k, 1), (u * b, u * a, u), "LKB")
    index = _pair_index(n)
    rows: list[list] = [[] for _ in index]
    for col, (i, j) in enumerate(index):
        for coeff, target in _generator_column(n, k, i, j):
            rows[index[target]].append((col, coeff))
    return RepMatrix.from_sparse_rows(rows)


def _generator_tables(word: BraidWord) -> list[RepMatrix]:
    n = word.n
    return [lkb_generator(n, abs(e), 1 if e > 0 else -1) for e in word.letters]


def lkb_of_word(word: BraidWord) -> RepMatrix:
    """The product of the generator tables of the letters as written."""
    return _product(lkb_dim(word.n), _generator_tables(word))


@functools.lru_cache(maxsize=None)
def basis_change_v_of_x(n: int) -> tuple[RepMatrix, RepMatrix]:
    """The change of basis between the x basis and the fork basis v.

    Returns (P, Q) where column s of P expresses v_s in the x basis via
    v_{i,j} = x_{i,j} + (1-q) sum_{i<k<j} x_{k,j}, and Q expresses x in the
    v basis via x_{i,j} = v_{i,j} + (q-1) sum_{i<k<j} q^(k-1-i) v_{k,j}.
    The round trip is asserted to be the identity.
    """
    index = _pair_index(n)
    one = LaurentPoly.one()
    q = LaurentPoly.var_q()
    p_rows: list[list] = [[(col, one)] for col in index.values()]
    q_rows: list[list] = [[(col, one)] for col in index.values()]
    for (i, j), col in index.items():
        for k in range(i + 1, j):
            p_rows[index[(k, j)]].append((col, one - q))
            q_rows[index[(k, j)]].append((col, (q - one) * q ** (k - 1 - i)))
    p = RepMatrix.from_sparse_rows(p_rows)
    qm = RepMatrix.from_sparse_rows(q_rows)
    if not (p * qm).is_identity() or not (qm * p).is_identity():
        raise InternalCheckError("basis-change matrices are not mutually inverse")
    return p, qm


# -- one-sided certificate mod p ------------------------------------------------

_P = (1 << 61) - 1  # a Mersenne prime
_Q_MOD_P = 0x1D7F3A6C5B2E4981  # fixed nonzero evaluation point (q, t) mod P
_T_MOD_P = 0x0C3B92E7A51F6D37
_V_BASE = 0x15A4E35F1C0B2D69  # entry i of the start vector is _V_BASE^(i+1)


def _mod_p(poly: LaurentPoly) -> int:
    return sum(
        c * pow(_Q_MOD_P, a, _P) * pow(_T_MOD_P, b, _P) for (a, b), c in poly.terms().items()
    ) % _P


@functools.lru_cache(maxsize=None)
def _generator_mod_p(n: int, k: int, sign: int) -> tuple:
    """sigma_k^(+-1) evaluated at (q, t) = (Q, T) mod P, as sparse rows.

    Each row is (row index, ((col, value), ...)) over its nonzero values;
    rows equal to the identity's are left out.
    """
    rows = []
    for r, row in enumerate(lkb_generator(n, k, sign).sparse_rows):
        values = tuple((c, x) for c, e in row if (x := _mod_p(e)))
        if values != ((r, 1),):
            rows.append((r, values))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _start_vector(dim: int) -> tuple[int, ...]:
    return tuple(pow(_V_BASE, i + 1, _P) for i in range(dim))


def _image_mod_p(word: BraidWord) -> tuple[int, ...]:
    """The word's image at (Q, T) mod P applied to the start vector.

    Applies one generator table per letter, right to left, to the vector:
    no matrix is built.
    """
    v = _start_vector(lkb_dim(word.n))
    for e in reversed(word.letters):
        w = list(v)
        for r, row in _generator_mod_p(word.n, abs(e), 1 if e > 0 else -1):
            acc = 0
            for c, x in row:
                acc += x * v[c]
            w[r] = acc % _P
        v = w
    return tuple(v)


def _env_cap(name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


_MAX_EXACT_ENV = "BRAIDREP_MAX_EXACT_LETTERS"
_DEFAULT_MAX_EXACT = 100


def _guard_exact_images(*words: BraidWord, rep: str = "LKB") -> None:
    """Refuse, with ResourceGuardError, to build the exact image under rep of
    a word longer than BRAIDREP_MAX_EXACT_LETTERS letters (default 100)."""
    cap = _env_cap(_MAX_EXACT_ENV, _DEFAULT_MAX_EXACT)
    longest = max(len(w) for w in words)
    if longest > cap:
        raise ResourceGuardError(
            f"exact {rep} image of a {longest}-letter word exceeds {cap} letters"
            f" (set {_MAX_EXACT_ENV} to raise)"
        )


def _same_braid(a: BraidWord, b: BraidWord) -> bool:
    """The one word-problem rule, for two words on the same strands.

    Images that differ mod P prove "no"; equal signed Garside normal forms
    prove "yes".  When mod P agrees but the normal forms differ (a collision
    mod P, or a fault), the exact images of both words settle it, within
    ``_guard_exact_images``.  A disagreement left raises
    ``InternalCheckError``.
    """
    images_equal = _image_mod_p(a) == _image_mod_p(b)
    nf_equal = _signed_normal_form(a) == _signed_normal_form(b)
    if images_equal and not nf_equal:
        _guard_exact_images(a, b)
        images_equal = lkb_of_word(a) == lkb_of_word(b)
    if images_equal != nf_equal:
        raise InternalCheckError("LKB images and Garside normal forms disagree")
    return nf_equal


def is_trivial(word: BraidWord) -> bool:
    """Whether the word represents the identity braid.

    Triviality is equality with the empty word, decided as in
    ``words_equal``; a collision mod P builds the images of both words.
    """
    return _same_braid(word, BraidWord(word.n))


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid.

    Images that differ mod P prove "no", equal signed Garside normal forms
    prove "yes", and the exact images of both words settle a collision mod P.
    """
    if a.n != b.n:
        raise ValueError(f"strand count mismatch: {a.n} vs {b.n}")
    return _same_braid(a, b)


def length_omega(word: BraidWord) -> int:
    """Word length with respect to the simples and their inverses.

    Read off the t-degree span [k, l] of the image: the length is
    max(l-k, l, -k), which is 0 exactly for the trivial braid.  B_1 is
    trivial, so every word on one strand has length 0.

    A signed word whose signed normal form is empty is a trivial braid: it
    has length 0 with no product, once it has passed the checks its image
    would, the cap of ``_guard_exact_images`` and the exponent range.  Any
    other word is multiplied as given.
    """
    if word.n == 1:
        return 0
    _guard_exact_images(word)
    if not word.is_positive and _signed_normal_form(word) == (0, ()):
        _check_range(g.exponent_box for g in _generator_tables(word))
        return 0
    lo, hi = t_degree_range(lkb_of_word(word))
    return max(hi - lo, hi, -lo)


def full_twist_scalar(n: int) -> LaurentPoly:
    """The scalar by which the full twist (s_1 ... s_{n-1})^n acts.

    Raises when the image is not a scalar matrix.
    """
    if n < 2:
        raise ValueError("the full twist needs at least 2 strands")
    word = BraidWord(n, tuple(range(1, n)) * n)
    return lkb_of_word(word).scalar_value()


# -- brute-force word-length oracle -------------------------------------------

_MAX_BALL_ENV = "BRAIDREP_MAX_BALL"
_DEFAULT_MAX_BALL = 200_000


def omega_ball_oracle(
    n: int, radius: int
) -> dict[RepMatrix, tuple[int, BraidWord]]:
    """BFS over products of simples and inverse simples.

    Maps the LKB image (a complete invariant, hence a canonical element key)
    to the exact word length in the simples and a witness word.  Guarded to
    desk scale; the environment variable BRAIDREP_MAX_BALL caps the number
    of stored elements.
    """
    if n > 4 or radius > 3:
        raise ResourceGuardError(f"omega ball for n={n}, radius={radius} exceeds desk scale")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    cap = _env_cap(_MAX_BALL_ENV, _DEFAULT_MAX_BALL)
    generators: list[tuple[RepMatrix, BraidWord]] = []
    for x in all_permutations(n):
        if x.is_identity():
            continue
        word = x.reduced_word()
        generators.append((lkb_of_word(word), word))
        inverse = word.inverse()
        generators.append((lkb_of_word(inverse), inverse))
    identity = RepMatrix.identity(lkb_dim(n))
    found: dict[RepMatrix, tuple[int, BraidWord]] = {
        identity: (0, BraidWord(n))
    }
    frontier = [(identity, BraidWord(n))]
    for depth in range(1, radius + 1):
        new_frontier = []
        for matrix, word in frontier:
            for gen_matrix, gen_word in generators:
                product = matrix * gen_matrix
                if product not in found:
                    if len(found) >= cap:
                        raise ResourceGuardError(
                            f"omega ball exceeds {cap} elements (set {_MAX_BALL_ENV} to raise)"
                        )
                    witness = word * gen_word
                    found[product] = (depth, witness)
                    new_frontier.append((product, witness))
        frontier = new_frontier
    return found


# -- membership classes of the module lattice and the Ref action -------------


class WVector(Frozen):
    """Vector with polynomial-in-t coordinates over exact rationals, q fixed.

    Coordinates follow the lexicographic pair order.  Each coordinate is a
    tuple of (t-exponent, coefficient) pairs with nonnegative exponents.
    """

    _fields = ("n", "coords")

    def __init__(self, n: int, coords: tuple[tuple[tuple[int, Fraction], ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self):
        if len(self.coords) != lkb_dim(self.n):
            raise ValueError("coordinate count does not match the pair count")
        for coord in self.coords:
            for exp, _ in coord:
                if exp < 0:
                    raise ValueError("W vectors live in R[t]: exponents must be >= 0")

    @classmethod
    def from_maps(cls, n: int, maps) -> "WVector":
        from fractions import Fraction

        coords = tuple(
            tuple(sorted((int(e), Fraction(c)) for e, c in m.items() if c))
            for m in maps
        )
        return cls(n, coords)

    def constant_term(self, idx: int) -> Fraction:
        from fractions import Fraction

        for exp, c in self.coords[idx]:
            if exp == 0:
                return c
        return Fraction(0)


def w_class(vector: WVector) -> frozenset[tuple[int, int]]:
    """The set of pairs whose coordinate has vanishing t-constant term.

    Membership in W requires every constant term to be nonnegative; a
    negative constant term raises ValueError.
    """
    pairs = refpairs(vector.n)
    out = []
    for idx, pair in enumerate(pairs):
        c = vector.constant_term(idx)
        if c < 0:
            raise ValueError(f"coordinate {pair} has negative constant term {c}: not in W")
        if c == 0:
            out.append(pair)
    return frozenset(out)


def apply_positive_word(
    word: BraidWord, vector: WVector, q_value: Fraction | float = 0.5
) -> WVector:
    """Apply the matrix of a positive word to the vector, q evaluated
    exactly at q_value (0.5 is exactly 1/2 as a Fraction)."""
    if word.n != vector.n:
        raise ValueError(f"strand count mismatch: {word.n} vs {vector.n}")
    if not word.is_positive:
        raise ValueError("W is only preserved by positive words")
    coords = [dict(coord) for coord in vector.coords]
    for e in reversed(word.letters):
        new_coords: list[dict[int, Fraction]] = []
        for row in lkb_generator(word.n, e, 1).sparse_rows:
            acc: dict[int, Fraction] = {}
            for c, entry in row:
                if coord := coords[c]:
                    values = entry.evaluate_first(q_value).items()
                    _accumulate(acc, ((t + v, a * b) for t, a in values for v, b in coord.items()))
            new_coords.append(acc)
        coords = new_coords
    return WVector.from_maps(word.n, coords)


@functools.lru_cache(maxsize=None)
def _t_constant_support(n: int, k: int) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
    """For each row pair s', the column pairs s whose matrix entry has a
    nonzero t-constant term in the LKB generator matrix of sigma_k.

    Every nonzero constant term is one of 1, q, 1-q, hence positive for all
    q in (0, 1); this makes the induced set map independent of q, which is
    asserted here.
    """
    rows = lkb_generator(n, k, 1).sparse_rows  # checks k before refpairs(n) is built
    q = LaurentPoly.var_q()
    allowed = {LaurentPoly.one(), q, 1 - q}
    pairs = refpairs(n)
    support: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
    for s_prime, row in zip(pairs, rows):
        cols = []
        for c, entry in row:
            const = entry.t_constant_term()
            if const:
                if const not in allowed:
                    raise InternalCheckError(
                        f"unexpected t-constant term {const.pretty()} in generator table"
                    )
                cols.append(pairs[c])
        support[s_prime] = frozenset(cols)
    return support


def generator_action(
    n: int, k: int, pairs: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Image of a subset of Ref under the generator sigma_k.

    A pair s' survives exactly when every pair contributing a positive
    t-constant term to row s' already lies in the input set.  An index k
    outside 1..n-1 raises ValueError from ``lkb_generator``.
    """
    return frozenset(s for s, cols in _t_constant_support(n, k).items() if cols <= pairs)


def positive_action(
    word: BraidWord, pairs: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Monoid action of a positive word, rightmost letter acting first."""
    if not word.is_positive:
        raise ValueError("the Ref action is defined for positive words only")
    for e in reversed(word.letters):
        pairs = generator_action(word.n, e, pairs)
    return pairs
