"""The composed reduction that the stack-based reducer replaced, kept as a
differential oracle: split at the stable letters, take the free-product
normal form of each segment, then merge and cancel pinches with a scan that
restarts from the left after every step.  The c-power test compares
syllable patterns instead of reading the reducer's running flags.
``rewrite_tau`` is the rewriter that the coset-table walk replaced: it
composes the projection of every prefix as a ``Permutation`` and looks the
coset representative up in the transversal.  ``rewrite_to_sp3`` is the left
fold over it that merged the whole word again for every Schreier factor.
``pi`` is the projection that the list swap replaced: it composes one
``Permutation.transposition`` per odd-exponent letter.

The reduction and the fold are quadratic, the rewriter builds a
``Permutation`` and a ``SchreierGenerator`` per letter, and ``pi`` costs
letters times strands; they exist only for the tests to compare the engine
against.
"""

from __future__ import annotations

from functools import lru_cache

from singbraid.normal_form import FreeProductWord, HNNForm, _c_power, free_product_nf
from singbraid.permutations import Permutation, schreier_transversal
from singbraid.rewriting import SchreierGenerator, SchreierWord, s_generator_word, schreier_word
from singbraid.sp3 import A12, B12, SPLetter, SPWord, express_schreier_gen
from singbraid.words import BraidWord, Letter


def cyclic_power_of_c(word: FreeProductWord) -> int | None:
    """The k with word = (a13 a23)^k in V, or None when no such k exists.

    Positive powers alternate F13(1,0) F23(1,0); negative powers alternate
    F23(-1,0) F13(-1,0); the empty word is the zeroth power.  Any other
    syllable shape rules membership out because normal forms are unique.
    """
    syllables = word.syllables
    if not syllables:
        return 0
    if len(syllables) % 2:
        return None
    k = len(syllables) // 2
    if syllables == _c_power(k).syllables:
        return k
    if syllables == _c_power(-k).syllables:
        return -k
    return None


def _split_at_stable(word: SPWord) -> HNNForm:
    bases = []
    powers: list[int] = []
    current: list[SPLetter] = []
    for letter in word.letters:
        if letter.name == A12:
            raise ValueError("eliminate a12 before Britton reduction")
        if letter.name == B12:
            bases.append(free_product_nf(SPWord(tuple(current))))
            powers.append(letter.exponent)
            current = []
        else:
            current.append(letter)
    bases.append(free_product_nf(SPWord(tuple(current))))
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
            if bases[i].is_empty:
                combined = powers[i - 1] + powers[i]
                if combined == 0:
                    bases[i - 1 : i + 2] = [bases[i - 1] * bases[i + 1]]
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
            left = bases[i - 1] * _c_power(k)
            if combined == 0:
                bases[i - 1 : i + 2] = [left * bases[i + 1]]
                del powers[i - 1 : i + 1]
            else:
                bases[i - 1 : i + 1] = [left]
                powers[i - 1 : i + 1] = [combined]
            pinched = True
            break
        if not pinched:
            return HNNForm(tuple(bases), tuple(powers))


def pi(word: BraidWord) -> Permutation:
    """Project a word to the symmetric group, composing the transposition
    of each odd-exponent letter left to right."""
    result = Permutation.identity(word.strands)
    for letter in word.letters:
        if letter.exponent % 2:
            result = result.then(Permutation.transposition(word.strands, letter.index))
    return result


_ambient = lru_cache(maxsize=None)(s_generator_word)


def rewrite_tau(word: BraidWord) -> SchreierWord:
    """Rewrite a kernel word as a word over the Schreier generators.

    Streams the projection over the prefixes of ``word`` once; generators
    with freely empty ambient words are skipped.
    """
    transversal = schreier_transversal(word.strands)
    if not pi(word).is_identity:
        raise ValueError("can only rewrite words with trivial projection")
    prefix = Permutation.identity(word.strands)
    factors: list[tuple[SchreierGenerator, int]] = []
    for letter in word.unit_letters():
        before = prefix
        prefix = prefix.then(Permutation.transposition(word.strands, letter.index))
        key = before if letter.exponent == 1 else prefix
        generator = SchreierGenerator(
            transversal.rep_of(key), Letter(letter.kind, letter.index, 1)
        )
        if _ambient(generator).is_empty:
            continue
        factors.append((generator, letter.exponent))
    return schreier_word(factors)


def rewrite_to_sp3(word: BraidWord) -> SPWord:
    """Rewrite a kernel word of SG_3 as a word in the six SP_3 generators."""
    if word.strands != 3:
        raise ValueError("SP_3 rewriting needs a 3-strand word")
    schreier = rewrite_tau(word)
    result = SPWord()
    for generator, exponent in schreier.factors:
        expressed = express_schreier_gen(generator)
        result = result * (expressed if exponent == 1 else expressed.inverse())
    return result
