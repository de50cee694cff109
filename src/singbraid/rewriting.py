"""
The coset table of the pure subgroup SP_n, its Schreier generators, and
rewriting over them.

A Schreier transversal for SP_n, of index n! in SG_n, is built from the
descending products m(k, l) = s_{k-1} s_{k-2} ... s_l (and m(k, k) = 1):
it is the set of all products m(2, j_2) m(3, j_3) ... m(n, j_n) with
1 <= j_k <= k.  Every prefix of a transversal word is again a transversal
word.  For a representative l and an ambient generator a, the element
S(l, a) = l a (rep(l a))^-1 lies in the kernel of the projection, and these
elements generate SP_n.  A kernel word u = a_1^e_1 ... a_m^e_m rewrites to
the product of S(k_j, a_j)^e_j where k_j is the representative of the
prefix of u before the j-th letter when e_j = +1 and of the prefix through
the j-th letter when e_j = -1.  Substituting each S(l, a) by its ambient
word telescopes back to u exactly, which is the correctness property the
tests machine-check.

Generators whose ambient word freely reduces to the empty word (for
example S(1, s1) = s1 s1^-1) carry no content and are dropped during
rewriting; all other generators are kept even when they happen to be
trivial as group elements, since dropping them would break the exact
telescoping above.

All of this is one ``CosetTable`` per strand count, built once by the
cached ``coset_table`` (coset-table Reidemeister-Schreier, as in Sims,
*Computation with Finitely Presented Groups*, 1994): the representatives,
the move of every coset under every unit letter with the Schreier factors
the letter emits, and one ``SchreierGenerator`` per coset and positive
letter with its ambient word rep_i a rep_j^-1, read off the move.  A coset
is told apart from the others by its projection, kept as a tuple of
images that the table composes itself, so this module imports nothing of
``permutations``.
``rewrite_tau`` walks a word through the moves of its table, keyed by
unit letter and by unit token alike, so one loop reads a built word's
letters and a parsed word's tokens; ``sp3.rewrite_to_sp3`` runs the same
loop over a table of the same moves that emit the SP_3 letters of the
factors' rows, so the SG_3 decision builds no factor.  Each unit letter
projects to an involution, so its moves have period 2 and the walk reads
a syllable a^e of any exponent with two lookups and one tuple product.
``sp3``, ``verify`` and the ``gens`` command read the same table, and
nothing else holds the transversal or the generators.

The walk is a homomorphism on the free group (Magnus, Karrass and
Solitar, *Combinatorial Group Theory*, ch. 2): the walk of a word and of
its free reduction emit freely equal Schreier words.  ``rewrite_tau`` reads
a word as stored, so a parsed word's tokens are walked unreduced, and the
one free reduction of the SP_3 letters in ``sp3.rewrite_to_sp3`` removes
whatever freely reducing the braid word first would have; free reduction
is confluent, so its output is the same either way.  The walk of a freely
reduced word, the stored form of a built word or of a parsed word whose
tokens are freely reduced, emits a freely reduced Schreier word, so no
cancellation pass follows it.  A unit letter emits no factor exactly when
it crosses a tree edge of the transversal: going down, a positive s_i from
a representative to that representative followed by s_i; going back up,
that s_i^-1.  Each tree edge is crossed with no factor by that one letter
in one direction and its inverse in the other.  If the output had a factor
F next to F^-1, the input would hold a, then a closed walk along tree
edges, then a^-1.  A nonempty closed walk in a tree steps straight back
somewhere, which puts x x^-1 in the input; an empty one puts a a^-1 there.
A freely reduced word has neither; unreduced tokens such as
``s1^2 s1^-2`` may have either.

A Schreier word is not a ``words.FreeWord``: it is only printed and
checked, never multiplied or reduced, and equal factors stay apart, so
s1^4 rewrites to S[s1,s1] S[s1,s1].  ``sp3`` expresses no Schreier word:
its moves emit the factors' rows directly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import NamedTuple

from .words import SIGMA, TAU, BraidWord, Letter, Value


class SchreierGenerator(Value):
    """The kernel element S(rep, letter) for a transversal word and a
    positive ambient generator.

    Equal when the representatives and letters are equal.  ``id`` is the
    generator's position in its coset table, which ``sp3`` indexes its rows
    by; a generator built elsewhere has none.
    """

    __slots__ = ("rep", "letter", "id")
    _fields = ("rep", "letter")

    def __init__(self, rep: BraidWord, letter: Letter, id: int | None = None) -> None:
        if letter.exponent != 1:
            raise ValueError("Schreier generators use bare ambient generators")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "id", id)

    def __str__(self) -> str:
        return f"S[{self.rep},{self.letter.token()}]"


class SchreierWord(Value):
    """A word over the Schreier generators, freely reduced when it is the
    walk of a freely reduced word; factors carry exponent +1 or -1.  From
    ``rewrite_tau`` over another table of moves, its factors are what that
    table emits in their place."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[SchreierGenerator, int], ...] = ()) -> None:
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(
            str(g) if e == 1 else f"{g}^-1" for g, e in self.factors
        )


class GeneratorEntry(NamedTuple):
    """A row of the coset table: a Schreier generator and its ambient word."""

    generator: SchreierGenerator
    ambient: BraidWord

    @property
    def trivial(self) -> bool:
        return self.ambient.is_empty


def _then_swap(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The images of a permutation followed by the transposition (i, i+1)."""
    return tuple(i + 1 if image == i else i if image == i + 1 else image for image in images)


class CosetTable:
    """The coset table of SP_n in SG_n, for 2 <= n <= 6; build it through
    the cached ``coset_table(n)``.

    - ``elements``: the Schreier transversal, ordered by unit length, ties
      broken by the index sequence (1, s1, s2, s1 s2, s2 s1, s1 s2 s1 on
      three strands).  A coset's index is its position, so 0 is the
      trivial coset.
    - ``letters``: the positive ambient generators, crossings first.
    - ``moves[u][i]``: for a unit letter u and a coset i, the next coset
      and the factors u emits.  A generator ``a`` leads coset i to the
      coset j of rep_i a and emits S(rep_i, a) unless its ambient word is
      freely empty; ``a`` projects to an involution, so ``a^-1`` leads j
      back to i and emits the inverse.
    - ``unit_moves``: the same rows keyed by each unit letter and by its
      token, ``s1`` and ``s1^-1`` for s1 and its inverse, so that the walk
      reads a built word's letters and a parsed word's tokens in one dict.
    - ``generators``: one ``GeneratorEntry`` per coset and positive letter,
      coset-major; a generator's ``id`` is its position here.
    """

    def __init__(self, strands: int) -> None:
        if not 2 <= strands <= 6:
            raise ValueError(f"transversal supported for 2 <= n <= 6, got {strands}")
        # The products m(2, j_2) ... m(n, j_n), with m(k, j) = s_{k-1} ... s_j.
        words = [
            BraidWord(strands, tuple(
                Letter(SIGMA, i, 1) for k, j in enumerate(choices, start=2) for i in range(k - 1, j - 1, -1)
            ))
            for choices in itertools.product(*(range(1, k + 1) for k in range(2, strands + 1)))
        ]
        words.sort(key=lambda w: (w.unit_length(), tuple(l.index for l in w.letters)))
        images = [reduce(_then_swap, (l.index for l in w.letters), tuple(range(1, strands + 1))) for w in words]
        self.strands = strands
        self.elements = tuple(words)
        by_images = {image: i for i, image in enumerate(images)}
        if len(by_images) != math.factorial(strands):
            raise RuntimeError(f"transversal for n={strands} does not hit every permutation")
        self.letters = tuple(Letter(kind, i, 1) for kind in (SIGMA, TAU) for i in range(1, strands))
        self.moves = {u: [None] * len(words) for a in self.letters for u in (a, a.inverse())}
        inverses = [w.inverse().letters for w in words]
        generators = []
        for i, rep in enumerate(words):
            for a in self.letters:
                j = by_images[_then_swap(images[i], a.index)]
                generator = SchreierGenerator(rep, a, len(generators))
                ambient = BraidWord(strands, rep.letters + (a,) + inverses[j])
                emits = not ambient.is_empty
                self.moves[a][i] = (j, ((generator, 1),) if emits else ())
                self.moves[a.inverse()][j] = (i, ((generator, -1),) if emits else ())
                generators.append(GeneratorEntry(generator, ambient))
        self.generators = tuple(generators)
        self.unit_moves = {key: row for u, row in self.moves.items() for key in (u, u.token())}


@lru_cache(maxsize=None)
def coset_table(strands: int) -> CosetTable:
    """The coset table on ``strands`` strands, built once."""
    return CosetTable(strands)


class _OffKernel(ValueError):
    """A walk that ended off the trivial coset: the word's projection is
    not the identity.  The SG_3 decision reads it as the verdict
    "nontrivial" and lets every other ``ValueError`` through."""


def rewrite_tau(word: BraidWord, moves: dict | None = None) -> SchreierWord:
    """Rewrite a kernel word as a word over the Schreier generators: read
    it through its coset table from the trivial coset and return everything
    its unit letters emit.  Generators with freely empty ambient words are
    skipped.  A word whose walk ends off the trivial coset projects to a
    nontrivial permutation and raises ``ValueError``.

    ``moves`` stands in for the table's ``unit_moves``: a table of the same
    moves, keyed alike, whose rows give for each coset the next coset and a
    tuple of what the move emits in place of its factors.
    ``sp3.rewrite_to_sp3`` passes one that emits the SP_3 letters of the
    factors' rows and reads those letters as the result's factors, so the
    SG_3 decision builds no Schreier factor, and this one loop stays the
    rewriting step of the decision, which the benchmark's traced runs time
    as the ``rewriting`` layer.

    The word is read as stored, through ``FreeWord._tokens``: a built
    word's reduced letters, or a parsed word's tokens, unreduced.  The walk
    is a homomorphism on the free group, so the factors of the unreduced
    tokens are freely equal to those of the reduced letters, but they are
    freely reduced only when the tokens are (see the module docstring):
    ``s1^2 s1^-2`` emits S[s1,s1] S[s1,s1]^-1.  ``sp3.rewrite_to_sp3``
    freely reduces what it reads, so its output does not depend on the
    form.  ``rewrite_tau``'s own result does: two equal words may rewrite
    to different, freely equal Schreier words, and a parsed word's result
    changes once anything (``str``, ``==``, ``hash``, pickling) has read
    its ``letters``.

    The walk goes syllable by syllable, in one loop: a unit key, a letter
    or a token whose ``str`` hash is cached, finds its row in the moves.
    Any other key's letter a^e reads the moves of a^+-1 from its coset i
    and from the coset j they lead to.  The action of every unit letter is
    an involution, so the next step leads back to i, and a^e emits the
    output of the two steps |e| // 2 times, then that of the step from i
    once more when |e| is odd, ending on j.  The repetition is one tuple
    product, so the syllable costs no Python step per unit letter.
    """
    if moves is None:
        moves = coset_table(word.strands).unit_moves
    keys, letter_of, _ = word._tokens()
    coset, emitted = 0, []
    for key in keys:
        row = moves.get(key)
        if row is not None:
            coset, out = row[coset]
            emitted += out
        else:
            kind, index, exponent = letter_of[key]
            # A plain tuple hashes and compares like the Letter it spells.
            row = moves[kind, index, 1 if exponent > 0 else -1]
            there, out = row[coset]
            pairs, odd = divmod(abs(exponent), 2)
            emitted += (out + row[there][1]) * pairs
            if odd:
                coset = there
                emitted += out
    if coset:
        raise _OffKernel("can only rewrite words with trivial projection")
    return SchreierWord(tuple(emitted))
