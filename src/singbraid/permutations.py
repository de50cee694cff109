"""
The projection of SG_n onto the symmetric group.

Both s_i and t_i project to the transposition (i, i+1).  The kernel of the
projection is the pure subgroup SP_n, of index n! in SG_n; its coset table
lives in ``rewriting``.

``Permutation`` is the value ``pi`` returns: an image tuple, checked to be
a permutation, that prints in cycle or one-line notation and knows whether
it is the identity.  It has no algebra, since nothing composes or inverts
permutations: ``pi`` swaps two entries of one list per odd-exponent letter
and validates the image once, so it costs one step per syllable plus one
pass over the strands.  It reads the one stored shape of every word, a
parsed word's tokens unreduced or a built word's letters, so a parsed word
builds no letters for it: free reduction only merges runs and cancels
inverse pairs, which changes no product of swaps.  ``pi`` serves the
``pi`` command and the tests; no decision calls it.  The SG_3 decision
reads the projection off the rewrite's coset-table walk, which ends on
the trivial coset exactly when the projection is trivial, and the coset
table tells cosets apart by image tuples of its own.

Convention: words act left to right, so the image of a product applies the
first letter's transposition first.  Any consistent choice leaves the
transversal a bijection.
"""

from __future__ import annotations

from .words import BraidWord, Value


class Permutation(Value):
    """A permutation of {1, ..., n} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)

    @property
    def is_identity(self) -> bool:
        return all(image == point for point, image in enumerate(self.images, start=1))

    def cycle_string(self) -> str:
        """Cycle notation with fixed points shown, e.g. ``(1 2)(3)``."""
        seen: set[int] = set()
        parts: list[str] = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            point = self.images[start - 1]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self.images[point - 1]
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

    The word is read as stored, through ``FreeWord._tokens``: the
    projection is a homomorphism, so free reduction changes nothing here
    and a parsed word's tokens are read unreduced.  The distinct odd keys,
    tokens or a built word's letters, are mapped to their indices once, and
    the occurrences then in C.
    """
    images = list(range(1, word.strands + 1))
    keys, letter_of, _ = word._tokens()
    swaps = {key: index for key, (_, index, exponent) in letter_of.items() if exponent % 2}
    # An index is at least 1, so filter drops exactly the even keys.
    for i in filter(None, map(swaps.get, reversed(keys))):
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))
