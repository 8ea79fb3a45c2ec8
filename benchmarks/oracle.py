"""Seeded braid words and answer checks that do not go through the LKB code.

Words are plain tuples of signed letters (+i for sigma_i, -i for its
inverse).  Expected answers come from construction wherever possible:

- ``rewrite`` applies defining relations, so its output is the same braid;
  ``u * rewrite(u)^-1`` is trivial and ``words_equal(u, rewrite(u))`` holds.
- Flipping the sign of one letter, ``a s^e b -> a s^-e b``, never gives an
  equal word: the two differ by the conjugate ``a s^2e a^-1`` of a nonzero
  power of a generator, and braid groups are torsion-free.  Hence also
  ``u * flip(rewrite(u))^-1 = a s^2e a^-1`` is nontrivial.

Normal forms are checked with this module's own permutation code and a
Burau image reduced modulo a prime at a random point: the factors must be
simple, left-weighted, and multiply to the input braid.
"""

from __future__ import annotations

import itertools
import random

PRIME = (1 << 61) - 1


def random_word(rng: random.Random, n: int, length: int, positive: bool = False) -> tuple[int, ...]:
    """A freely reduced word of exactly ``length`` letters."""
    out: list[int] = []
    while len(out) < length:
        e = rng.randint(1, n - 1)
        if not positive and rng.random() < 0.5:
            e = -e
        if out and out[-1] == -e:
            continue
        out.append(e)
    return tuple(out)


def _relation_sites(letters: list[int]) -> list[tuple[str, int]]:
    sites = []
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if abs(abs(a) - abs(b)) >= 2:
            sites.append(("commute", p))
        if a == -b:
            sites.append(("cancel", p))
    for p in range(len(letters) - 2):
        a, b, c = letters[p : p + 3]
        if abs(abs(a) - abs(b)) != 1:
            continue
        if a == c and (a > 0) == (b > 0):
            sites.append(("braid", p))
        elif a == -c:
            sites.append(("mixed", p))
    return sites


def rewrite(rng: random.Random, n: int, word: tuple[int, ...], moves: int) -> tuple[int, ...]:
    """Apply ``moves`` random defining-relation rewrites, respecting signs.

    The relations used, for |i - j| >= 2 and |i - k| = 1, and any signs:

        s_i^a s_j^b          = s_j^b s_i^a
        s_i s_k s_i          = s_k s_i s_k   (and the all-inverse mirror)
        s_i^a s_k^b s_i^-a   = s_k^-b s_i^a s_k^b   if a, b have equal sign
                             = s_k^b s_i^-a s_k^-b  otherwise
        s_i^a s_i^-a         = (empty), and its inverse, an inserted pair
    """
    letters = list(word)
    for _ in range(moves):
        sites = _relation_sites(letters)
        if not sites or rng.random() < 0.15:
            p = rng.randint(0, len(letters))
            e = rng.choice((1, -1)) * rng.randint(1, n - 1)
            letters[p:p] = [e, -e]
            continue
        kind, p = rng.choice(sites)
        if kind == "commute":
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
        elif kind == "cancel":
            del letters[p : p + 2]
        elif kind == "braid":
            a, b = letters[p], letters[p + 1]
            letters[p : p + 3] = [b, a, b]
        else:
            a, b = letters[p], letters[p + 1]
            letters[p : p + 3] = [-b, a, b] if (a > 0) == (b > 0) else [b, -a, -b]
    return tuple(letters)


def inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-e for e in reversed(word))


def flip_one(rng: random.Random, word: tuple[int, ...], stop: int | None = None) -> tuple[int, ...]:
    """The word with the sign of one letter, before position ``stop``, flipped."""
    p = rng.randrange(stop or len(word))
    return word[:p] + (-word[p],) + word[p + 1 :]


# -- permutations ------------------------------------------------------------


def permutation(n: int, word) -> tuple[int, ...]:
    image = list(range(n))
    for e in word:
        i = abs(e) - 1
        image[i], image[i + 1] = image[i + 1], image[i]
    return tuple(image)


def inversions(image: tuple[int, ...]) -> int:
    return sum(1 for a, b in itertools.combinations(image, 2) if a > b)


def reduced_word(image: tuple[int, ...]) -> tuple[int, ...]:
    """A positive word whose permutation is ``image`` (bubble sort)."""
    image = list(image)
    out: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(image) - 1):
            if image[k] > image[k + 1]:
                image[k], image[k + 1] = image[k + 1], image[k]
                out.append(k + 1)
                swapped = True
    return tuple(reversed(out))


def simples(n: int) -> list[tuple[int, ...]]:
    """Positive words of the non-identity simple braids of B_n."""
    return [reduced_word(p) for p in itertools.permutations(range(n)) if list(p) != sorted(p)]


# -- Burau image modulo a prime ------------------------------------------------


class BurauModP:
    """The unreduced Burau matrix of a word, evaluated at t = ``point`` mod PRIME."""

    def __init__(self, n: int, point: int):
        self.n = n
        self.t = point % PRIME
        self.t_inv = pow(self.t, PRIME - 2, PRIME)

    def image(self, word) -> tuple[tuple[int, ...], ...]:
        n, t, ti, p = self.n, self.t, self.t_inv, PRIME
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for e in word:
            i = abs(e) - 1
            for row in rows:
                a, b = row[i], row[i + 1]
                if e > 0:
                    row[i], row[i + 1] = (a * (1 - t) + b) % p, a * t % p
                else:
                    row[i], row[i + 1] = b * ti % p, (a + b * (1 - ti)) % p
        return tuple(tuple(row) for row in rows)


def normal_form_error(n: int, word, factors: list[tuple[int, ...]], burau: BurauModP) -> str | None:
    """Why ``factors`` is not the left-weighted normal form of positive ``word``.

    Returns None when each factor is a non-identity simple, each adjacent
    pair is left-weighted (no generator both extends the left factor as a
    simple and left-divides the right one), and the factors multiply to the
    word's braid (same length and same Burau image mod PRIME).
    """
    for f in factors:
        if not f or inversions(permutation(n, f)) != len(f):
            return f"factor {f} is not a non-identity simple"
    for a, b in zip(factors, factors[1:]):
        for j in range(1, n):
            extends = inversions(permutation(n, a + (j,))) == len(a) + 1
            divides = inversions(permutation(n, (j,) + b)) < len(b)
            if extends and divides:
                return f"factors {a} | {b} are not left-weighted at {j}"
    product = tuple(e for f in factors for e in f)
    if len(product) != len(word) or burau.image(product) != burau.image(word):
        return "factors do not multiply to the input braid"
    return None


def growth_spheres(n: int, radius: int, burau: BurauModP) -> list[int]:
    """Sphere sizes of the ball in the simples and their inverses.

    Elements are told apart by their Burau image mod PRIME at a random point;
    Burau is faithful on B_3, and no kernel element of B_4 is known, let
    alone one of length at most 2 * radius in the simples.
    """
    gens = []
    for s in simples(n):
        gens.append(s)
        gens.append(inverse(s))
    seen = {burau.image(())}
    frontier = [()]
    counts = [1]
    for _ in range(radius):
        new = []
        for w in frontier:
            for g in gens:
                key = burau.image(w + g)
                if key not in seen:
                    seen.add(key)
                    new.append(w + g)
        counts.append(len(new))
        frontier = new
    return counts


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!!, the dimension of the n-th BMW algebra."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out
