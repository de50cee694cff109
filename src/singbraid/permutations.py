"""
The projection of SG_n onto the symmetric group, and Schreier coset
representatives for its kernel.

Both s_i and t_i project to the transposition (i, i+1).  The kernel of the
projection is the pure subgroup SP_n, of index n! in SG_n.  A Schreier
transversal for SP_n is built from the descending products
m(k, l) = s_{k-1} s_{k-2} ... s_l (and m(k, k) = 1): the transversal is the
set of all products m(2, j_2) m(3, j_3) ... m(n, j_n) with 1 <= j_k <= k.
Every prefix of a transversal word is again a transversal word, which is
what makes the rewriting in ``rewriting`` work.

``Permutation`` objects are for building the transversal and the coset
table of ``rewriting``, once per strand count, and for the result of
``pi``.  ``pi`` itself composes no ``Permutation``: it swaps two entries of
one list per odd-exponent letter and validates the image once, so it costs
one step per syllable plus one pass over the strands.  The SG_3 decision
calls ``pi`` once, as an early exit for words outside the kernel; rewriting
a kernel word reads coset indices from the table and composes no
permutations.

Convention: words act left to right, so the image of a product applies the
first letter's transposition first.  Any consistent choice leaves the
transversal a bijection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .words import SIGMA, BraidWord, Letter


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition (i, i+1) on n points."""
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(image == point for point, image in enumerate(self.images, start=1))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def then(self, other: Permutation) -> Permutation:
        """Apply ``self`` first, then ``other`` (left-to-right composition)."""
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.images[image - 1] for image in self.images))

    def inverse(self) -> Permutation:
        images = [0] * self.size
        for point, image in enumerate(self.images, start=1):
            images[image - 1] = point
        return Permutation(tuple(images))

    def cycle_string(self) -> str:
        """Cycle notation with fixed points shown, e.g. ``(1 2)(3)``."""
        seen: set[int] = set()
        parts: list[str] = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            point = self(start)
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self(point)
            parts.append("(" + " ".join(str(p) for p in cycle) + ")")
        return "".join(parts)

    def one_line_string(self) -> str:
        return "[" + ",".join(str(image) for image in self.images) + "]"


def pi(word: BraidWord) -> Permutation:
    """Project a word to the symmetric group on its strands.

    Only exponent parity matters per letter, since each generator maps to
    an involution.  A word a_1 ... a_m sends a point p to
    tau_m(... tau_1(p)), so putting a letter in front of a suffix permutes
    the positions of the suffix's image list: reading the letters from the
    last one back, each odd-exponent letter swaps two entries.
    """
    images = list(range(1, word.strands + 1))
    for letter in reversed(word.letters):
        if letter.exponent % 2:
            i = letter.index
            images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class Transversal:
    """Schreier coset representatives for SP_n in SG_n, keyed by projection."""

    strands: int
    elements: tuple[BraidWord, ...]
    by_perm: dict[Permutation, BraidWord]

    def rep_of(self, perm: Permutation) -> BraidWord:
        try:
            return self.by_perm[perm]
        except KeyError:
            raise ValueError(
                f"{perm.images} is not a permutation of {self.strands} points"
            ) from None


def _descending_run(strands: int, k: int, j: int) -> BraidWord:
    """The word s_{k-1} s_{k-2} ... s_j, or the empty word when j = k."""
    letters = tuple(Letter(SIGMA, i, 1) for i in range(k - 1, j - 1, -1))
    return BraidWord(strands, letters)


@lru_cache(maxsize=None)
def schreier_transversal(strands: int) -> Transversal:
    """Build the Schreier transversal for SP_n in SG_n, 2 <= n <= 6.

    Representatives are enumerated from the m(k, j) products and then
    ordered by unit length, ties broken by the index sequence, which gives
    1, s1, s2, s1 s2, s2 s1, s1 s2 s1 on three strands.
    """
    if not 2 <= strands <= 6:
        raise ValueError(f"transversal supported for 2 <= n <= 6, got {strands}")
    words: list[BraidWord] = []
    ranges = [range(1, k + 1) for k in range(2, strands + 1)]
    for choices in itertools.product(*ranges):
        word = BraidWord(strands)
        for k, j in enumerate(choices, start=2):
            word = word * _descending_run(strands, k, j)
        words.append(word)
    words.sort(key=lambda w: (w.unit_length(), tuple(l.index for l in w.letters)))

    by_perm = {pi(word): word for word in words}
    if len(by_perm) != math.factorial(strands):
        raise RuntimeError(
            f"transversal for n={strands} does not hit every permutation"
        )
    return Transversal(strands, tuple(words), by_perm)


def coset_rep(word: BraidWord) -> BraidWord:
    """The transversal representative of the coset of ``word``."""
    return schreier_transversal(word.strands).rep_of(pi(word))
