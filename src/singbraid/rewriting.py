"""
Subgroup generators and rewriting for the pure subgroup SP_n.

For a Schreier transversal L and an ambient generator a, the element
S(l, a) = l a (rep(l a))^-1 lies in the kernel of the projection, and
these elements generate SP_n.  A kernel word u = a_1^e_1 ... a_m^e_m
rewrites to the product of S(k_j, a_j)^e_j where k_j is the representative
of the prefix of u before the j-th letter when e_j = +1 and of the prefix
through the j-th letter when e_j = -1.  Substituting each S(l, a) by its
ambient word telescopes back to u exactly, which is the correctness
property the tests machine-check.

Generators whose ambient word freely reduces to the empty word (for
example S(1, s1) = s1 s1^-1) carry no content and are dropped during
rewriting; all other generators are kept even when they happen to be
trivial as group elements, since dropping them would break the exact
telescoping above.

Rewriting is one walk over a coset table, which is coset-table rewriting
as in Sims, *Computation with Finitely Presented Groups* (1994).
``coset_table`` derives, once per strand count and from the transversal
alone, the move of every coset index under every unit letter together with
the Schreier factors the letter emits; ``walk`` reads a word through such a
table, and ``rewrite_tau`` is that walk alone.  The table holds every
Schreier generator the walk can emit, so rewriting composes no
permutations and builds no Schreier generators.

The walk of a freely reduced word emits a freely reduced Schreier word
(Magnus, Karrass and Solitar, *Combinatorial Group Theory*, ch. 2), so no
cancellation pass follows it.  A unit letter emits no factor exactly when
it crosses a tree edge of the transversal: going down, a positive s_i from
a representative to that representative followed by s_i; going back up,
that s_i^-1.  Each tree edge is crossed with no factor by that one letter
in one direction and its inverse in the other.  If the output had a factor
F next to F^-1, the input would hold a, then a closed walk along tree
edges, then a^-1.  A nonempty closed walk in a tree steps straight back
somewhere, which puts x x^-1 in the input; an empty one puts a a^-1 there.
A freely reduced ``BraidWord`` has neither.

A Schreier word is not a ``words.FreeWord``: ``schreier_word`` cancels
adjacent inverse factors but never merges equal ones, so s1^4 rewrites to
S[s1,s1] S[s1,s1].  ``expand`` substitutes ambient words with
``words.substitute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .permutations import Permutation, pi, schreier_transversal
from .words import SIGMA, TAU, BraidWord, Letter, concat, conjugate, sg3_relators, substitute


@dataclass(frozen=True)
class SchreierGenerator:
    """The kernel element S(rep, letter) for a transversal word and a
    positive ambient generator.

    Equal when the representatives and letters are equal.  The hash is
    computed once, at construction: the coset table emits the same objects
    over and over into the lookups of their rows.
    """

    rep: BraidWord
    letter: Letter

    def __post_init__(self) -> None:
        if self.letter.exponent != 1:
            raise ValueError("Schreier generators use bare ambient generators")
        object.__setattr__(self, "_hash", hash((self.rep, self.letter)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"S[{self.rep},{self.letter.token()}]"


@dataclass(frozen=True)
class SchreierWord:
    """A freely reduced word over the Schreier generators; factors carry
    exponent +1 or -1."""

    factors: tuple[tuple[SchreierGenerator, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.factors

    def __mul__(self, other: SchreierWord) -> SchreierWord:
        return schreier_word(self.factors + other.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(
            str(g) if e == 1 else f"{g}^-1" for g, e in self.factors
        )


def schreier_word(factors) -> SchreierWord:
    """Cancel adjacent mutually inverse factors."""
    stack: list[tuple[SchreierGenerator, int]] = []
    for factor in factors:
        if stack and stack[-1][0] == factor[0] and stack[-1][1] == -factor[1]:
            stack.pop()
        else:
            stack.append(factor)
    return SchreierWord(tuple(stack))


def s_generator_word(generator: SchreierGenerator) -> BraidWord:
    """The ambient word l a (rep(l a))^-1, freely reduced."""
    rep = generator.rep
    transversal = schreier_transversal(rep.strands)
    if transversal.rep_of(pi(rep)) != rep:
        raise ValueError(f"{rep} is not a transversal representative")
    stepped = concat(rep, BraidWord(rep.strands, (generator.letter,)))
    return concat(stepped, transversal.rep_of(pi(stepped)).inverse())


@dataclass(frozen=True)
class GeneratorEntry:
    generator: SchreierGenerator
    ambient: BraidWord

    @property
    def trivial(self) -> bool:
        return self.ambient.is_empty


def _generator_letters(strands: int) -> list[Letter]:
    sigmas = [Letter(SIGMA, i, 1) for i in range(1, strands)]
    taus = [Letter(TAU, i, 1) for i in range(1, strands)]
    return sigmas + taus


def enumerate_generators(strands: int) -> tuple[GeneratorEntry, ...]:
    """All |L| * 2(n-1) Schreier generators with their ambient words,
    transversal-major, crossings before singular letters within a block."""
    transversal = schreier_transversal(strands)
    entries = []
    for rep in transversal.elements:
        for letter in _generator_letters(strands):
            generator = SchreierGenerator(rep, letter)
            entries.append(GeneratorEntry(generator, s_generator_word(generator)))
    return tuple(entries)


@lru_cache(maxsize=None)
def coset_table(strands: int) -> dict:
    """The coset table of SP_n in SG_n: a coset index and a unit letter map
    to the next coset index and the Schreier factors the letter emits.

    Coset indices follow the transversal order, so 0 is the trivial coset.
    A generator ``a`` leads coset i to the coset j of pi(rep_i) followed by
    the transposition of ``a``, and emits S(rep_i, a); since ``a`` projects
    to an involution, ``a^-1`` leads j back to i and emits S(rep_i, a)^-1.
    Representatives are positive words, so S(rep_i, a) = rep_i a rep_j^-1
    is freely empty, and emits nothing, exactly when rep_j spells rep_i a.
    """
    perms, reps = zip(*schreier_transversal(strands).by_perm.items())
    index = {perm: i for i, perm in enumerate(perms)}
    table = {}
    for letter in _generator_letters(strands):
        move = Permutation.transposition(strands, letter.index)
        for i, rep in enumerate(reps):
            j = index[perms[i].then(move)]
            out = () if reps[j].letters == rep.letters + (letter,) else ((SchreierGenerator(rep, letter), 1),)
            table[i, letter] = (j, out)
            table[j, letter.inverse()] = (i, tuple((g, -e) for g, e in out))
    return table


def walk(word: BraidWord, table: dict) -> tuple:
    """Read ``word`` through a coset table from the trivial coset and
    return everything its unit letters emit.

    The walk goes syllable by syllable: a letter of exponent +-1 is its own
    table key, and a syllable a^e with |e| > 1 builds one unit letter a^+-1
    and steps it |e| times.
    """
    coset, emitted = 0, []
    for letter in word.letters:
        exponent = letter.exponent
        if exponent == 1 or exponent == -1:
            coset, out = table[coset, letter]
            emitted += out
        else:
            unit = Letter(letter.kind, letter.index, 1 if exponent > 0 else -1)
            for _ in range(abs(exponent)):
                coset, out = table[coset, unit]
                emitted += out
    if coset:
        raise ValueError("can only rewrite words with trivial projection")
    return tuple(emitted)


def rewrite_tau(word: BraidWord) -> SchreierWord:
    """Rewrite a kernel word as a word over the Schreier generators;
    generators with freely empty ambient words are skipped.  The walk's
    output is freely reduced already (see the module docstring)."""
    return SchreierWord(walk(word, coset_table(word.strands)))


def expand(word: SchreierWord, strands: int = 3) -> BraidWord:
    """Substitute each Schreier generator by its ambient word."""
    ambient = {generator: s_generator_word(generator) for generator, _ in word.factors}
    return BraidWord(strands, substitute(word.factors, ambient))


@dataclass(frozen=True)
class RelatorRewrite:
    relator_index: int
    rep: BraidWord
    word: SchreierWord


def relator_rewrites() -> tuple[RelatorRewrite, ...]:
    """The 30 rewrites of the SG_3 relators conjugated by each transversal
    element; these words present SP_3 over the Schreier generators."""
    transversal = schreier_transversal(3)
    rewrites = []
    for index, relator in enumerate(sg3_relators(), start=1):
        for rep in transversal.elements:
            rewritten = rewrite_tau(conjugate(relator, rep))
            rewrites.append(RelatorRewrite(index, rep, rewritten))
    return tuple(rewrites)
