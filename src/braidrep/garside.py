"""
Garside combinatorics for braids.

The simple elements (permutation braids) are identified with permutations
throughout: the positive lift of x in the symmetric group is the unique
positive braid of length |x| projecting to x, and these lifts multiply like
their permutations exactly when lengths add.  On top of that identification
this module provides

- the signed left normal form Delta^p A_1 ... A_k of any word, a complete
  equality oracle (El-Rifai & Morton, Q. J. Math. 45, 1994), whose
  [inf, sup] = [p, p + k] is the t-degree span of the LKB image (Krammer,
  Ann. of Math. 155, 2002); the greedy normal form of a positive word and
  its leftmost factor are read off it.  Each letter meets the last factor
  in one of four cases: an inverse letter on a right descent cancels in
  place, a positive letter on a right ascent is absorbed in place, a
  positive letter on a right descent is appended as a new factor, and
  otherwise a factor is appended (s_i w0 and one more Delta^-1 for an
  inverse letter).  After that last append, and after an absorb that gives
  A_k a starting generator which A_(k-1) can take, one step that
  left-weights a pair of simples in place (also behind ``simple_head``)
  runs on the pairs from the right,
- the greatest-braid map GB from half-permutations to simples, and
- the decomposition of an arbitrary word as x * y^-1 with x, y positive.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator

from .braid import BraidWord, Permutation, all_permutations, permutation_from_inversions, refpairs
from .errors import Frozen, InternalCheckError, wire_index


def _left_weight(u: list[int], v: list[int]) -> bool:
    """Left-weight the pair of simples with image lists u, v in place.

    While generator i is an ascent of u (positions i, i+1) and a left descent
    of v (value i sits after value i+1), it moves from the front of v to the
    back of u.  The position of each value in v is kept in an inverse list,
    updated on every move.  Returns whether anything moved.
    """
    where = [0] * len(v)
    for x, y in enumerate(v):
        where[y] = x
    moved = False
    i, end = 0, len(u) - 1
    while i < end:
        if u[i] < u[i + 1] and (a := where[i]) > (b := where[i + 1]):
            u[i], u[i + 1] = u[i + 1], u[i]
            v[a], v[b] = i + 1, i
            where[i], where[i + 1] = b, a
            moved = True
            if i:
                i -= 1
        else:
            i += 1
    return moved


def simple_head(u: Permutation, v: Permutation) -> tuple[Permutation, Permutation]:
    """Left-weight the pair of simples (u, v) without changing their product.

    Generators that extend u on the right and start v move from v to u until
    none is left.  The left-weighted pair is unique, so the order of the
    moves does not matter: the returned head is the leftmost factor of the
    product of the two simples.
    """
    head, rest = list(u.image), list(v.image)
    _left_weight(head, rest)
    return Permutation(tuple(head)), Permutation(tuple(rest))


def lf_positive(word: BraidWord) -> Permutation:
    """Leftmost factor of a positive word: the longest simple left-divisor,
    which is the first factor of its normal form."""
    if not word.is_positive:
        raise ValueError("leftmost factor is defined for positive words only")
    return (greedy_normal_form(word).factors or (Permutation.identity(word.n),))[0]


class NormalForm(Frozen):
    """Left-weighted sequence of non-identity simples.

    Two positive words represent the same braid iff their normal forms are
    identical.
    """

    _fields = ("n", "factors")

    def __init__(self, n: int, factors: tuple[Permutation, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)

    def is_trivial(self) -> bool:
        return not self.factors

    def to_word(self) -> BraidWord:
        letters: list[int] = []
        for f in self.factors:
            letters.extend(f.reduced_word().letters)
        return BraidWord(self.n, tuple(letters))


def _signed_normal_form(word: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Signed left normal form of any word: (p, (A_1, ..., A_k)) with the
    braid equal to Delta^p A_1 ... A_k, the A_i proper left-weighted simples
    given by image tuples.  Two words are the same braid iff these agree.

    The word so far is kept as Delta^p A_1 ... A_k Delta^(-m).  A letter +-e
    passes Delta^(-m) as s_i, i = e (m even) or n - e (m odd), and meets the
    last factor A_k in one of four cases:

    - -e, i a right descent of A_k: A_k = B s_i, so A_k becomes B in place
      and is dropped if that is the identity.  B left-divides A_k, so its
      starting set lies in A_k's and the sequence stays left-weighted.
    - +e, i a right ascent of A_k: A_k absorbs s_i in place.  With a < b the
      (0-based) values it swaps, A_k gains the one inversion (a, b), so it
      gains a starting generator only when b = a + 1, and that generator
      can move into A_(k-1) only when A_(k-1)[a] < A_(k-1)[a + 1].  If
      either test fails and k > 1 the sequence is still left-weighted; with
      k = 1, A_1 may have become Delta.
    - +e, i a right descent of A_k: s_i is appended as a new factor;
      (A_k, s_i) is left-weighted already.
    - otherwise (-e on an ascent, or no factor yet): +e appends s_i, and -e
      appends the simple s_i w0 (sigma_i^-1 Delta) and counts one more
      Delta^-1.

    After the last case, and after an absorb that the tests above do not
    rule out, the pairs are left-weighted from the last one leftwards, up to
    the first pair where nothing moves; only the last factor can become the
    identity (dropped), and only the first can become Delta (moved into
    p).  At the end
    Delta^p A Delta^(-m) = Delta^(p-m) tau^m(A), tau(x)(i) = n-1-x(n-1-i).
    """
    n = word.n
    identity = list(range(n))
    w0 = identity[::-1]
    factors: list[list[int]] = []
    p = m = 0
    for e in word.letters:
        i = abs(e) if m % 2 == 0 else n - abs(e)
        last = factors[-1] if factors else None
        if last is not None and (last[i - 1] > last[i]) == (e < 0):
            a, b = last[i - 1], last[i]
            last[i - 1], last[i] = b, a
            if e < 0:
                if last == identity:
                    factors.pop()
                continue
            if len(factors) > 1 and (b != a + 1 or (prev := factors[-2])[a] > prev[a + 1]):
                continue
        else:
            simple = identity[:]
            simple[i - 1], simple[i] = i, i - 1
            if e < 0:
                simple.reverse()  # s_i w0 as an image list
                m += 1
            factors.append(simple)
            if e > 0 and last is not None:
                continue
        for j in range(len(factors) - 2, -1, -1):
            if not _left_weight(factors[j], factors[j + 1]):
                break
        if factors[-1] == identity:
            factors.pop()
        if factors and factors[0] == w0:
            factors.pop(0)
            p += 1
    if m % 2:
        factors = [[n - 1 - f[n - 1 - i] for i in identity] for f in factors]
    # Built from lists: tuple() of a generator resizes its result, and the
    # resized tuples pile up in CPython's per-size free lists over many calls.
    return p - m, tuple([tuple(f) for f in factors])


def greedy_normal_form(word: BraidWord) -> NormalForm:
    """The signed normal form of a positive word, Delta^p written out as p
    factors Delta."""
    if not word.is_positive:
        raise ValueError("normal form is defined for positive words only")
    p, factors = _signed_normal_form(word)
    delta = Permutation.longest(word.n)
    return NormalForm(word.n, tuple([delta] * p + [Permutation(f) for f in factors]))


# -- half-permutations and the greatest braid --------------------------------


def is_half_permutation(n: int, pairs: frozenset[tuple[int, int]]) -> bool:
    """Transitive closure test: (i,j), (j,k) in A forces (i,k) in A."""
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j2 == j and (i, k) not in pairs:
                return False
    return True


def all_half_permutations(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    ref = refpairs(n)
    for r in range(len(ref) + 1):
        for combo in itertools.combinations(ref, r):
            a = frozenset(combo)
            if is_half_permutation(n, a):
                yield a


def half_permutation_to_json(pairs: frozenset[tuple[int, int]]) -> list[list[int]]:
    """Wire form: sorted list of [i, j] pairs."""
    return [[i, j] for i, j in sorted(pairs)]


def half_permutation_from_json(obj) -> frozenset[tuple[int, int]]:
    """Read the wire form back; ValueError unless each entry is an int pair 1 <= i < j."""
    try:
        pairs = frozenset((wire_index(i), wire_index(j)) for i, j in obj)
    except TypeError:
        raise ValueError("half-permutation entries must be pairs of integers") from None
    if not all(1 <= i < j for i, j in pairs):
        raise ValueError("half-permutation entries must be pairs 1 <= i < j")
    return pairs


def random_half_permutation(n: int, rng: random.Random) -> frozenset[tuple[int, int]]:
    """A random subset of Ref, transitively closed after sampling (one
    Warshall pass over the middle index j)."""
    pairs = {p for p in refpairs(n) if rng.random() < 0.4}
    for j in range(2, n):
        pairs |= {(i, k) for i, a in pairs if a == j for b, k in pairs if b == j}
    return frozenset(pairs)


def gb(n: int, pairs: Iterable[tuple[int, int]]) -> Permutation:
    """Greatest braid: the simple whose inversion set is the greatest
    inversion set contained in the given half-permutation.

    Pairs outside Ref(n) are rejected.  Removes each pair (i, k) for which
    some i < j < k has neither (i, j) nor (j, k) left, visiting pairs by
    increasing span k - i: the test reads only pairs of smaller span, which
    are settled by then, so one pass reaches the fixpoint.  Validated
    exhaustively against ``gb_oracle`` for n <= 5 in the test suite.
    """
    a = set(pairs)
    ref = refpairs(n)
    if not a <= set(ref) or not is_half_permutation(n, frozenset(a)):
        raise ValueError("input is not a half-permutation")
    for i, k in sorted(ref, key=lambda p: p[1] - p[0]):
        if (i, k) in a and any((i, j) not in a and (j, k) not in a for j in range(i + 1, k)):
            a.remove((i, k))
    return permutation_from_inversions(n, a)


def gb_oracle(n: int, pairs: Iterable[tuple[int, int]]) -> Permutation:
    """Brute force over all of S_n: the permutation with the largest inversion
    set contained in the given set.

    The largest such set must contain every other candidate (greatest, not
    merely maximal); this is asserted rather than assumed.
    """
    a = frozenset(pairs)
    candidates = [
        (x, inv)
        for x in all_permutations(n)
        if (inv := x.inversion_set()) <= a
    ]
    best, best_set = max(candidates, key=lambda item: len(item[1]))
    for _, inv in candidates:
        if not inv <= best_set:
            raise InternalCheckError("no greatest inversion subset: incomparable maxima")
    return best


# -- positive fractions --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _delta_complement(n: int, i: int, flip: int) -> tuple[int, ...]:
    """Letters of the simple D sigma_i^-1, the complement of sigma_i in D,
    with the conjugation j -> n-j applied when flip is 1."""
    letters = (Permutation.longest(n) * Permutation.transposition(n, i)).reduced_word().letters
    return tuple([n - j for j in letters]) if flip else letters


def positive_fraction(word: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Write the word as x * y^-1 with x and y positive.

    Each inverse letter is replaced using the half-twist D:
    sigma_i^-1 = D^-1 * (D sigma_i^-1), whose second factor is the simple
    complementing sigma_i in D (its letters cached per n, i and parity), and
    the accumulated D^-1 powers are pushed to the right through positive
    letters with the index-reversing conjugation i -> n-i; y is D^d.  The
    factorization is verified representation-side in the test suite rather
    than trusted.
    """
    n = word.n
    positive: list[int] = []
    d = 0
    for e in word.letters:
        if e > 0:
            positive.append(e if d % 2 == 0 else n - e)
        else:
            d += 1
            positive.extend(_delta_complement(n, -e, d % 2))
    y = Permutation.longest(n).reduced_word().letters * d
    return BraidWord(n, tuple(positive)), BraidWord(n, y)

