"""
Braid words over n strands and permutations of {1, ..., n}.

A braid word is a sequence of nonzero letters e with 1 <= |e| <= n-1, where
+i stands for the i-th Artin generator and -i for its inverse.  Projecting a
word to the symmetric group forgets the letter signs; the image of the i-th
generator is the transposition (i, i+1).

Permutations are stored as 0-based image tuples, but the pairs (i, j) making
up inversion sets are 1-based throughout, matching the generator numbering.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Iterator


@dataclasses.dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("strand count must be at least 1")
        for e in self.letters:
            if e == 0 or abs(e) > self.n - 1:
                raise ValueError(f"letter {e} out of range for {self.n} strands")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for e in self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"strand count mismatch: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-e for e in reversed(self.letters)))

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent (e, -e) pairs until none remain."""
        stack: list[int] = []
        for e in self.letters:
            if stack and stack[-1] == -e:
                stack.pop()
            else:
                stack.append(e)
        return BraidWord(self.n, tuple(stack))

    def to_permutation(self) -> "Permutation":
        image = list(range(self.n))
        for e in self.letters:
            i = abs(e) - 1
            image[i], image[i + 1] = image[i + 1], image[i]
        return Permutation(tuple(image))

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.letters)

    @classmethod
    def from_text(cls, n: int, text: str) -> "BraidWord":
        """Parse comma- or whitespace-separated nonzero integers."""
        parts = text.replace(",", " ").split()
        try:
            letters = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"malformed braid word {text!r}") from None
        return cls(n, letters)


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} stored as the 0-based image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation image: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition swapping i and i+1 (1-based, 1 <= i <= n-1)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range for n={n}")
        image = list(range(n))
        image[i - 1], image[i] = image[i], image[i - 1]
        return cls(tuple(image))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation, whose inversion set is all of Ref."""
        return cls(tuple(range(n - 1, -1, -1)))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(v) = self(other(v))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.image[v] for v in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    def __call__(self, i: int) -> int:
        """Value at a 1-based point."""
        return self.image[i - 1] + 1

    def length(self) -> int:
        """Number of inversions; the word length in adjacent transpositions."""
        img = self.image
        return sum(
            1
            for i in range(len(img))
            for j in range(i + 1, len(img))
            if img[i] > img[j]
        )

    def inversion_set(self) -> frozenset[tuple[int, int]]:
        """Pairs (i, j), i < j, whose preimages appear in reversed order."""
        inv = self.inverse().image
        n = self.n
        return frozenset(
            (i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, n)
            if inv[i] > inv[j]
        )

    def right_descents(self) -> set[int]:
        """1-based indices i with self(i) > self(i+1)."""
        img = self.image
        return {i + 1 for i in range(len(img) - 1) if img[i] > img[i + 1]}

    def left_descents(self) -> set[int]:
        return self.inverse().right_descents()

    def reduced_word(self) -> BraidWord:
        """Canonical positive word projecting to this permutation.

        Repeatedly strips the smallest right descent, so the output is
        deterministic and its length equals the inversion count.
        """
        image = list(self.image)
        collected: list[int] = []
        while True:
            i = next(
                (k for k in range(len(image) - 1) if image[k] > image[k + 1]), None
            )
            if i is None:
                break
            collected.append(i + 1)
            image[i], image[i + 1] = image[i + 1], image[i]
        return BraidWord(self.n, tuple(reversed(collected)))


def all_permutations(n: int) -> Iterator[Permutation]:
    for image in itertools.permutations(range(n)):
        yield Permutation(image)


def refpairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with 1 <= i < j <= n, in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), 2))


def permutation_from_inversions(
    n: int, pairs: Iterable[tuple[int, int]]
) -> Permutation:
    """The permutation whose inversion set is exactly the given pairs.

    Raises ValueError when the pairs are not the inversion set of any
    permutation.
    """
    a = frozenset(pairs)
    keys = []
    for v in range(1, n + 1):
        below = sum(1 for u in range(1, v) if (u, v) not in a)
        above = sum(1 for u in range(v + 1, n + 1) if (v, u) in a)
        keys.append(below + above)
    image = [0] * n
    for v, k in enumerate(keys):
        image[k] = v
    if sorted(image) != list(range(n)):
        raise ValueError("pairs are not an inversion set")
    x = Permutation(tuple(image))
    if x.inversion_set() != a:
        raise ValueError("pairs are not an inversion set")
    return x
