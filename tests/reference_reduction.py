"""The composed reduction that the stack-based reducer replaced, kept as a
differential oracle: split at the stable letters, take the free-product
normal form of each segment, then merge and cancel pinches with a scan that
restarts from the left after every step.  The segment normal forms and the
c-power test use ``FlagStack``, the stack of plain syllables with one
c-power flag per syllable that the engine's run-based entry lists
replaced, so the oracle shares no reduction code with the engine;
``base_word`` groups the c^+-1 pairs of a ``FlagStack`` form into runs
with its own scan, and ``syllables`` writes a stored form's runs out again.
``eliminate_a12`` is the substitution that the engine's reducer replaced
by reading a12^e as one run c^-e: it writes a12^e out as |e| copies of the
letters of c^-+1 and collects the d-exponent, so the reference
``britton_reduce``, which rejects a12, reduces the spelled-out residual.
``rewrite_tau`` is the rewriter that the coset-table walk replaced.  Its
``walk`` steps a word one unit letter at a time, from any coset: it
composes the projection of every prefix as a tuple of images and looks the
coset representative up in a dict from projections to the transversal
words, ``coset_table(n).elements``, which acceptance criterion 1 pins.  It
decides whether to drop a generator from the generator's ambient word
``rep a rep(pi(rep a))^-1``, composed here too, so it reads nothing else of
the engine's coset table.
``rewrite_to_sp3`` is the left fold over it that merged the whole word
again for every Schreier factor; it parses each factor's row from
``sp3._EXPRESSION_ROWS`` by name, so it shares no row table with the
engine.  ``expand`` substitutes each Schreier
factor by the ambient word that ``_ambient`` composes, so the telescoping
check reads none of the engine's ambient words.
``schreier_word`` cancels adjacent inverse factors, which the engine's
walk emits only for unreduced tokens; the tests multiply Schreier words
with it and reduce the walk of such tokens with it.
``pi`` is the projection that the list swap replaced: it composes the
image tuple of one transposition per odd-exponent letter, and builds no
``Permutation``.

The reduction and the fold are quadratic, the rewriter composes an image
tuple and builds a ``SchreierGenerator`` per letter, and ``pi`` costs
letters times strands; they exist only for the tests to compare the engine
against.
"""

from __future__ import annotations

from functools import lru_cache

from singbraid.normal_form import FactorSyllable, HNNForm
from singbraid.rewriting import SchreierGenerator, SchreierWord, coset_table
from singbraid.sp3 import _EXPRESSION_ROWS, A12, B12, SPLetter, SPWord, parse_sp_word
from singbraid.words import BraidWord, Letter, concat
from helpers import compose, unit_letters


# The syllables of c = a13 a23 and of c^-1 = a23^-1 a13^-1.
C_SYLLABLES = {
    1: (FactorSyllable("13", 1, 0), FactorSyllable("23", 1, 0)),
    -1: (FactorSyllable("23", -1, 0), FactorSyllable("13", -1, 0)),
}


class FlagStack:
    """A word of V held in normal form while it grows at the right end.

    ``signs[i]`` is 1 or -1 when syllables[0..i] spell the start of a
    positive or negative power of c, and 0 otherwise, so whether the whole
    word is a power of c is read off the top.
    """

    def __init__(self, syllables=()) -> None:
        self.syllables: list[FactorSyllable] = []
        self.signs: list[int] = []
        for syllable in syllables:
            self.push(syllable)

    def push(self, syllable: FactorSyllable) -> None:
        syllables = self.syllables
        signs = self.signs
        if syllables and syllables[-1].factor == syllable.factor:
            top = syllables.pop()
            signs.pop()
            a_exp = top.a_exp + syllable.a_exp
            b_exp = top.b_exp + syllable.b_exp
            if not (a_exp or b_exp):
                return
            syllable = FactorSyllable(syllable.factor, a_exp, b_exp)
        elif not (syllable.a_exp or syllable.b_exp):
            return
        sign = signs[-1] if signs else (1 if syllable.a_exp > 0 else -1)
        if sign and syllable != C_SYLLABLES[sign][len(signs) % 2]:
            sign = 0
        syllables.append(syllable)
        signs.append(sign)

    def c_power(self) -> int | None:
        if not self.syllables:
            return 0
        if len(self.syllables) % 2 or not self.signs[-1]:
            return None
        return self.signs[-1] * (len(self.syllables) // 2)


def base_word(syllables) -> tuple:
    """The normal form of a syllable sequence, built by ``FlagStack``, stored
    as the engine stores a base, a tuple of entries: each maximal sequence
    of c^+-1 pairs becomes one run, an int.  Pairs of one sign cannot
    overlap, and pairs of opposite signs would cancel, so the grouping is
    unique."""
    normal = FlagStack(syllables).syllables
    entries: list = []
    i = 0
    while i < len(normal):
        pair = tuple(normal[i : i + 2])
        sign = next((s for s, c in C_SYLLABLES.items() if pair == c), 0)
        if not sign:
            entries.append(normal[i])
            i += 1
            continue
        if entries and isinstance(entries[-1], int) and (entries[-1] > 0) == (sign > 0):
            entries[-1] += sign
        else:
            entries.append(sign)
        i += 2
    return tuple(entries)


def c_power_syllables(k: int) -> tuple[FactorSyllable, ...]:
    return C_SYLLABLES[1 if k > 0 else -1] * abs(k)


def syllables(word: tuple) -> tuple[FactorSyllable, ...]:
    """The alternating syllables of a stored form, every run c^n written
    out by ``c_power_syllables``."""
    return tuple(
        syllable
        for entry in word
        for syllable in (c_power_syllables(entry) if isinstance(entry, int) else (entry,))
    )


def cyclic_power_of_c(word: tuple) -> int | None:
    """The k with word = (a13 a23)^k in V, or None when no such k exists."""
    return FlagStack(syllables(word)).c_power()


def free_product_nf(letters) -> tuple:
    """Normal form of base letters a13, b13, a23, b23 in V."""
    return base_word(
        FactorSyllable(letter.name[1:], letter.exponent, 0)
        if letter.name[0] == "a"
        else FactorSyllable(letter.name[1:], 0, letter.exponent)
        for letter in letters
    )


# The letters of c^-1 and of c: a12^e = d^e c^-e.
A12_IMAGES = {
    1: (SPLetter("a23", -1), SPLetter("a13", -1)),
    -1: (SPLetter("a13", 1), SPLetter("a23", 1)),
}


def eliminate_a12(word: SPWord) -> tuple[int, SPWord]:
    """Substitute a12 = d a23^-1 a13^-1 letter by letter and collect the
    central d-powers: the d-exponent and the residual word over the other
    five generators, freely reduced by the checked ``SPWord``."""
    delta_exp = 0
    letters: list[SPLetter] = []
    for letter in word.letters:
        if letter.name == A12:
            delta_exp += letter.exponent
            letters.extend(A12_IMAGES[1 if letter.exponent > 0 else -1] * abs(letter.exponent))
        else:
            letters.append(letter)
    return delta_exp, SPWord(tuple(letters))


def _split_at_stable(word: SPWord) -> HNNForm:
    bases = []
    powers: list[int] = []
    current: list[SPLetter] = []
    for letter in word.letters:
        if letter.name == A12:
            raise ValueError("eliminate a12 before Britton reduction")
        if letter.name == B12:
            bases.append(free_product_nf(current))
            powers.append(letter.exponent)
            current = []
        else:
            current.append(letter)
    bases.append(free_product_nf(current))
    return HNNForm(tuple(bases), tuple(powers))


def britton_reduce(word: SPWord) -> HNNForm:
    """Reduce a V~ word to a form with no pinch.

    Repeatedly: merge stable powers separated by a base that is trivial in
    V, and cancel the leftmost pinch b12^-e (a13 a23)^k b12^e by sliding
    the c-power out to the left.  Every step removes at least two stable
    letters or one segment, so the loop terminates; by Britton's lemma the
    resulting form is trivial only if it is an empty base with no stable
    letters.
    """
    form = _split_at_stable(word)
    bases = list(form.bases)
    powers = list(form.powers)
    while True:
        # Merge through interior bases that are trivial in V.
        merged = False
        for i in range(1, len(bases) - 1):
            if not bases[i]:
                combined = powers[i - 1] + powers[i]
                if combined == 0:
                    joined = syllables(bases[i - 1]) + syllables(bases[i + 1])
                    bases[i - 1 : i + 2] = [base_word(joined)]
                    del powers[i - 1 : i + 1]
                else:
                    del bases[i]
                    powers[i - 1 : i + 1] = [combined]
                merged = True
                break
        if merged:
            continue
        # Cancel the leftmost opposite-sign pinch around a c-power.
        pinched = False
        for i in range(1, len(bases) - 1):
            if (powers[i - 1] > 0) == (powers[i] > 0):
                continue
            k = cyclic_power_of_c(bases[i])
            if k is None:
                continue
            combined = powers[i - 1] + powers[i]
            left = syllables(bases[i - 1]) + c_power_syllables(k)
            if combined == 0:
                bases[i - 1 : i + 2] = [base_word(left + syllables(bases[i + 1]))]
                del powers[i - 1 : i + 1]
            else:
                bases[i - 1 : i + 1] = [base_word(left)]
                powers[i - 1 : i + 1] = [combined]
            pinched = True
            break
        if not pinched:
            return HNNForm(tuple(bases), tuple(powers))


def _identity(strands: int) -> tuple[int, ...]:
    return tuple(range(1, strands + 1))


def _transposition(strands: int, i: int) -> tuple[int, ...]:
    """The image tuple of the adjacent transposition (i, i+1)."""
    images = list(_identity(strands))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def pi(word: BraidWord) -> tuple[int, ...]:
    """Project a word to the symmetric group, composing the transposition
    of each odd-exponent letter left to right; the image tuple."""
    result = _identity(word.strands)
    for letter in word.letters:
        if letter.exponent % 2:
            result = compose(result, _transposition(word.strands, letter.index))
    return result


@lru_cache(maxsize=None)
def _reps(strands: int) -> dict[tuple[int, ...], BraidWord]:
    """Each projection's representative among the transversal words."""
    return {pi(rep): rep for rep in coset_table(strands).elements}


@lru_cache(maxsize=None)
def _ambient(generator: SchreierGenerator) -> BraidWord:
    """The ambient word rep a rep(pi(rep a))^-1, freely reduced."""
    rep = generator.rep
    stepped = concat(rep, BraidWord(rep.strands, (generator.letter,)))
    return concat(stepped, _reps(rep.strands)[pi(stepped)].inverse())


def expand(word: SchreierWord, strands: int) -> BraidWord:
    """Substitute each Schreier generator by its ambient word, freely
    reduced: the inverse of ``rewrite_tau`` on kernel words."""
    letters = [letter for g, e in word.factors for letter in (_ambient(g) ** e).letters]
    return BraidWord(strands, tuple(letters))


def walk(word: BraidWord, start: BraidWord | None = None) -> tuple[list[tuple[SchreierGenerator, int]], BraidWord]:
    """Step the unit letters of ``word`` from the coset of ``start``, the
    trivial coset by default, one letter at a time.

    Returns the factors the letters emit, generators with freely empty
    ambient words skipped, and the representative of the coset the steps
    end in.
    """
    reps = _reps(word.strands)
    prefix = _identity(word.strands) if start is None else pi(start)
    factors: list[tuple[SchreierGenerator, int]] = []
    for letter in unit_letters(word):
        before = prefix
        prefix = compose(prefix, _transposition(word.strands, letter.index))
        key = before if letter.exponent == 1 else prefix
        generator = SchreierGenerator(reps[key], Letter(letter.kind, letter.index, 1))
        if _ambient(generator).is_empty:
            continue
        factors.append((generator, letter.exponent))
    return factors, reps[prefix]


def schreier_word(factors) -> SchreierWord:
    """Cancel adjacent mutually inverse factors."""
    stack: list[tuple[SchreierGenerator, int]] = []
    for factor in factors:
        if stack and stack[-1][0] == factor[0] and stack[-1][1] == -factor[1]:
            stack.pop()
        else:
            stack.append(factor)
    return SchreierWord(tuple(stack))


def rewrite_tau(word: BraidWord) -> SchreierWord:
    """Rewrite a kernel word as a word over the Schreier generators.

    Streams the projection over the prefixes of ``word`` once; generators
    with freely empty ambient words are skipped.
    """
    if pi(word) != _identity(word.strands):
        raise ValueError("can only rewrite words with trivial projection")
    return schreier_word(walk(word)[0])


def rewrite_to_sp3(word: BraidWord) -> SPWord:
    """Rewrite a kernel word of SG_3 as a word in the six SP_3 generators."""
    if word.strands != 3:
        raise ValueError("SP_3 rewriting needs a 3-strand word")
    schreier = rewrite_tau(word)
    result = SPWord()
    for generator, exponent in schreier.factors:
        expressed = parse_sp_word(_EXPRESSION_ROWS[str(generator.rep), generator.letter.token()])
        result = result * (expressed if exponent == 1 else expressed.inverse())
    return result
