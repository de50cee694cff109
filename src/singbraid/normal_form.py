"""
Normal forms and word-problem decisions for SP_3 and SG_3.

The center of SP_3 is infinite cyclic, generated by d = a12 a13 a23, and
splits off as a direct factor: every element factors uniquely as a power
of d times an element of the subgroup V~ generated by a13, a23, b13, b23
and b12.  Since a12 = d a23^-1 a13^-1, the d-exponent of a word is its a12
exponent sum, and its image in V~ = SP_3/<d> reads each a12^e as c^-e.

V~ is built from the free product V = <a13, b13> * <a23, b23> of two rank
two free abelian groups by adjoining the stable letter b12, which commutes
with c = a13 a23: an HNN extension of V with cyclic associated subgroup
<c>.  ``britton_reduce`` reduces the V~ image of an SP_3 word with two
stack passes.  The first reads the letters once, left to right: the base
word between two stable letters keeps its syllables on a stack that merges
same-factor neighbours, a12^e goes onto it as one run c^-e, and a stable
power that follows an empty base merges with the power before it, which
gives the normal form in the free product V * <b12>.
The second reads the bases and powers of that form once and cancels every
pinch b12^-e c^k b12^e by sliding c^k into the base to its left; a
cancellation can only expose another at the top of the stack.  A base
stack holds each run c^n as one entry, an int, next to its plain
syllables, so a base is a power of c exactly when it is empty or one run:
the pinch test and the slide each cost O(1), and the reduction takes time
amortised linear in the letters.  The stack's entries are the stored form
of a word of V, runs included, from the reducer to the printer.
``FreeProductWord(entries)`` takes a normal form as given, so a word is
built with ``free_product_nf`` or ``*``, which go through a stack.  A form
prints through its ``sp_word``: the letters of its bases and stable powers
in one freely reduced SP word, each run c^n written as one product of the
letters of c^+-1.

By Britton's lemma a reduced word that still contains stable letters is
never trivial, so a V~ word is trivial exactly when its reduced form is an
empty base with no stable letters.  Triviality of the whole group element
then needs d-exponent zero as well, and equality is triviality of the
quotient.  ``is_trivial_sp3`` first reads the six exponent sums: every
defining relation balances each generator, so the sums are a homomorphism
SP_3 -> Z^6, a nonzero sum refutes the word at once, and only a word whose
six sums vanish goes through ``center_split``.  A word of SG_3 is trivial
when its projection to the symmetric group is trivial and its rewrite into
SP_3 is.  ``is_trivial_sg3`` first reads the crossing and singular exponent
sums, a homomorphism SG_3 -> Z^2 for the same reason, and refutes a word
with a nonzero sum before it projects or rewrites it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .permutations import pi
from .sp3 import (
    A12,
    A13,
    A23,
    B12,
    B13,
    B23,
    SP_NAMES,
    SPLetter,
    SPWord,
    _reduced_sp_word,
    rewrite_to_sp3,
)
from .words import BraidWord, exponent_sums

F13 = "13"
F23 = "23"

_FACTOR_OF = {A13: F13, B13: F13, A23: F23, B23: F23}


class FactorSyllable(NamedTuple):
    """A nontrivial element of one free factor: a^a_exp b^b_exp with the
    indices given by ``factor``."""

    factor: str
    a_exp: int
    b_exp: int

    def letters(self) -> tuple[SPLetter, ...]:
        a_name, b_name = (A13, B13) if self.factor == F13 else (A23, B23)
        letters = []
        if self.a_exp:
            letters.append(SPLetter(a_name, self.a_exp))
        if self.b_exp:
            letters.append(SPLetter(b_name, self.b_exp))
        return tuple(letters)


# The syllables of c = a13 a23 and of c^-1 = a23^-1 a13^-1: the power c^k
# repeats the pair for the sign of k, |k| times.
_C_SYLLABLES = {
    1: (FactorSyllable(F13, 1, 0), FactorSyllable(F23, 1, 0)),
    -1: (FactorSyllable(F23, -1, 0), FactorSyllable(F13, -1, 0)),
}
# The second syllable of c^sign mapped to the first one and the sign.
_C_PAIRS = {second: (first, sign) for sign, (first, second) in _C_SYLLABLES.items()}
# The letters of c^sign, which the printers write for a run c^n.
_C_LETTERS = {
    sign: tuple(letter for syllable in pair for letter in syllable.letters())
    for sign, pair in _C_SYLLABLES.items()
}


class _BaseStack:
    """A word of V held in normal form while it grows at the right end.

    Each entry is a ``FactorSyllable`` or a nonzero int n that stands for
    the run c^n.  Expanded, the entries alternate factors and hold no
    trivial syllable.  Two plain syllables at the top that spell c^+-1
    coalesce into a run, and that run merges into a same-sign run below
    it, so no two runs are adjacent and no two adjacent plain syllables
    spell c^+-1.  The word is then a power of c exactly when it is empty or
    one run: ``cyclic_power_of_c`` costs O(1), and so does ``push_run``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[FactorSyllable | int] = ()) -> None:
        # The entries of a normal form, taken as given.
        self.entries: list[FactorSyllable | int] = list(entries)

    def push(self, syllable: FactorSyllable) -> None:
        """Append a syllable, merging it into a same-factor top and dropping
        what cancels.  The stack never holds two adjacent same-factor
        entries, so one merge restores alternation.  A run whose last
        syllable has the factor of ``syllable`` first splits off one c^+-1,
        whose second syllable takes part in the merge."""
        entries = self.entries
        top = entries[-1] if entries else None
        if top.__class__ is int:
            sign = 1 if top > 0 else -1
            first, last = _C_SYLLABLES[sign]
            if last.factor == syllable.factor:
                if top == sign:
                    entries[-1] = first
                else:
                    entries[-1] = top - sign
                    entries.append(first)
                top = last
            else:
                top = None
        elif top is not None and top.factor == syllable.factor:
            entries.pop()
        else:
            top = None
        if top is not None:
            a_exp = top.a_exp + syllable.a_exp
            b_exp = top.b_exp + syllable.b_exp
            if not (a_exp or b_exp):
                return
            syllable = FactorSyllable(syllable.factor, a_exp, b_exp)
        elif not (syllable.a_exp or syllable.b_exp):
            return
        pair = _C_PAIRS.get(syllable)
        if pair is not None and entries and entries[-1] == pair[0]:
            entries.pop()
            # By alternation a run below the new one has its sign.
            if entries and entries[-1].__class__ is int:
                entries[-1] += pair[1]
            else:
                entries.append(pair[1])
            return
        entries.append(syllable)

    def push_run(self, k: int) -> None:
        """Append c^k for k != 0.  A run at the top absorbs it, or cancels
        against it and passes any remainder to the plain entry below; a
        plain top of the run's first factor takes one c^+-1 syllable by
        syllable."""
        entries = self.entries
        while k:
            if not entries:
                entries.append(k)
                return
            top = entries[-1]
            if top.__class__ is int:
                total = top + k
                if total and (total > 0) == (top > 0):
                    entries[-1] = total
                    return
                entries.pop()
                k = total
                continue
            sign = 1 if k > 0 else -1
            first, second = _C_SYLLABLES[sign]
            if top.factor != first.factor:
                entries.append(k)
                return
            self.push(first)
            self.push(second)
            k -= sign

    def extend(self, other: _BaseStack | FreeProductWord) -> None:
        """Append the entries of a stack or a word, run by run."""
        for entry in other.entries:
            if entry.__class__ is int:
                self.push_run(entry)
            else:
                self.push(entry)

    def word(self) -> FreeProductWord:
        return FreeProductWord(tuple(self.entries))


@dataclass(frozen=True)
class FreeProductWord:
    """Normal form in V: the entries of a ``_BaseStack``, plain syllables and
    an int n for each run c^n.  The constructor takes a normal form as given
    and does not check it; build one with ``free_product_nf`` or ``*``."""

    entries: tuple[FactorSyllable | int, ...] = ()

    @property
    def syllables(self) -> tuple[FactorSyllable, ...]:
        """The alternating nontrivial syllables, with every run expanded."""
        syllables: list[FactorSyllable] = []
        for entry in self.entries:
            if entry.__class__ is int:
                syllables.extend(_C_SYLLABLES[1 if entry > 0 else -1] * abs(entry))
            else:
                syllables.append(entry)
        return tuple(syllables)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __mul__(self, other: FreeProductWord) -> FreeProductWord:
        stack = _BaseStack(self.entries)
        stack.extend(other)
        return stack.word()

    def _letters(self) -> list[SPLetter]:
        """The letters of the entries, each run c^n as one product of the
        letters of c^+-1."""
        letters: list[SPLetter] = []
        for entry in self.entries:
            if entry.__class__ is int:
                letters += _C_LETTERS[1 if entry > 0 else -1] * abs(entry)
            else:
                letters += entry.letters()
        return letters

    def sp_word(self) -> SPWord:
        return _reduced_sp_word(self._letters())

    def __str__(self) -> str:
        return str(self.sp_word())


def _syllable(letter: SPLetter) -> FactorSyllable:
    factor = _FACTOR_OF.get(letter.name)
    if factor is None:
        raise ValueError(f"{letter.name} is not a generator of the base group")
    if letter.name in (A13, A23):
        return FactorSyllable(factor, letter.exponent, 0)
    return FactorSyllable(factor, 0, letter.exponent)


# What the first pass of ``britton_reduce`` reads for each of the eight unit
# base letters: its syllable, so that the pass builds none, then (None, 0)
# or, for the second letter of c^sign, the first syllable of c^sign and the
# sign: arriving on that very syllable, it turns it into a run.  The
# syllables of c^+-1 are the objects of _C_SYLLABLES, so that the pass can
# find the first one at the top of the stack by identity.
_UNITS = {
    syllable.letters()[0]: (syllable, *_C_PAIRS.get(syllable, (None, 0)))
    for syllable in _C_SYLLABLES[1] + _C_SYLLABLES[-1]
    + tuple(FactorSyllable(factor, 0, e) for factor in (F13, F23) for e in (1, -1))
}


def free_product_nf(word: SPWord) -> FreeProductWord:
    """Normal form of a word over a13, b13, a23, b23 in V."""
    stack = _BaseStack()
    for letter in word.letters:
        stack.push(_syllable(letter))
    return stack.word()


def _c_power(k: int) -> FreeProductWord:
    """(a13 a23)^k in normal form: one run, or nothing for k = 0."""
    return _BaseStack((k,) if k else ()).word()


def cyclic_power_of_c(word: FreeProductWord | _BaseStack) -> int | None:
    """The k with word = (a13 a23)^k in V, or None when no such k exists.

    Read in O(1) from the entries of a word or a stack: a normal form is a
    power of c exactly when it is empty or one run.
    """
    entries = word.entries
    if not entries:
        return 0
    if len(entries) == 1 and entries[0].__class__ is int:
        return entries[0]
    return None


@dataclass(frozen=True)
class HNNForm:
    """Alternating stable-letter powers and base words:
    bases[0] b12^powers[0] bases[1] ... b12^powers[m-1] bases[m]."""

    bases: tuple[FreeProductWord, ...]
    powers: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bases) != len(self.powers) + 1:
            raise ValueError("segment counts out of step")
        if any(power == 0 for power in self.powers):
            raise ValueError("stable-letter powers must be nonzero")

    @property
    def is_trivial(self) -> bool:
        return not self.powers and self.bases[0].is_empty

    def stable_letter_count(self) -> int:
        return sum(abs(power) for power in self.powers)

    def sp_word(self) -> SPWord:
        """The letters of every base and stable power, freely reduced once."""
        letters = self.bases[0]._letters()
        for power, base in zip(self.powers, self.bases[1:]):
            letters.append(SPLetter(B12, power))
            letters += base._letters()
        return _reduced_sp_word(letters)

    def __str__(self) -> str:
        return str(self.sp_word())


@dataclass(frozen=True)
class CenterSplitForm:
    """A power of the central element d times a reduced V~ form."""

    delta_exp: int
    v: HNNForm

    @property
    def is_trivial(self) -> bool:
        return self.delta_exp == 0 and self.v.is_trivial

    def __str__(self) -> str:
        return f"d^{self.delta_exp} | {self.v}"


def center_generator() -> SPWord:
    """The generator d = a12 a13 a23 of the center of SP_3."""
    return SPWord((SPLetter(A12, 1), SPLetter(A13, 1), SPLetter(A23, 1)))


def eliminate_a12(word: SPWord) -> tuple[int, SPWord]:
    """The d-exponent of a word, its a12 exponent sum, and the word itself.

    Since a12 = d c^-1 with d central, a word's coordinate in the factor
    <d> of SP_3 = V~ x <d> is its a12 exponent sum, and ``britton_reduce``
    reads each a12^e of the word as the run c^-e of its V~ part, so no
    letter is substituted here.  The name and the pair stay because the
    name is public and the benchmark times the two steps of
    ``center_split`` by it.
    """
    return sum(exponent for name, exponent in word.letters if name == A12), word


def britton_reduce(word: SPWord) -> HNNForm:
    """Reduce the V~ image of an SP_3 word to a form with no pinch, in two
    stack passes.

    The first pass pushes base letters onto the syllable stack of the open
    base, and each a12^e as the run c^-e, its image in V~ = SP_3/<d>; a
    stable power b12^e that follows an empty base merges with the power
    before it: the normal form in the free product V * <b12>.
    The second pass walks that form: when b12^e follows a base c^k and the
    power before the base has the opposite sign, the pinch cancels by
    sliding c^k, which commutes with b12, into the base to its left.  That
    can empty the left base or make it the middle of another pinch, so
    b12^e repeats both steps at the top of the stack until it cancels or
    stops; everything below the top stays reduced.

    Every merge comes before any pinch because a merge further right can
    change the base that a pinch would slide; the order fixes which of the
    equal reduced forms is returned.  A slide pushes c^k onto the left
    base as one run, in O(1), so the cost is amortised linear in the
    letters however long the slid powers are.  By Britton's lemma the
    resulting form is trivial only if it is an empty base with no stable
    letters.
    """
    # Deques, so that the second pass can consume them from the left and
    # free each base it slides away.
    bases = deque([_BaseStack()])
    powers: deque[int] = deque()
    push, entries = bases[-1].push, bases[-1].entries
    for letter in word.letters:
        unit = _UNITS.get(letter)
        if unit is not None:
            syllable, first, sign = unit
            if first is not None and entries and entries[-1] is first:
                # What push does with the second syllable of c^sign on the
                # first, without the call: SP words that spell c letter by
                # letter, such as pinch towers, meet it once per letter.
                entries.pop()
                if entries and entries[-1].__class__ is int:
                    entries[-1] += sign
                else:
                    entries.append(sign)
            else:
                push(syllable)
            continue
        if letter.name == A12:
            # a12^e = d^e c^-e, and d is central: its V~ part is c^-e.
            bases[-1].push_run(-letter.exponent)
            continue
        if letter.name != B12:
            push(_syllable(letter))
            continue
        exponent = letter.exponent
        if powers and not bases[-1].entries:
            bases.pop()
            exponent += powers.pop()
        if exponent:
            powers.append(exponent)
            bases.append(_BaseStack())
        push, entries = bases[-1].push, bases[-1].entries
    reduced = [bases.popleft()]
    reduced_powers: list[int] = []
    while powers:
        exponent, base = powers.popleft(), bases.popleft()
        while exponent and reduced_powers:
            top = reduced[-1]
            if top.entries:
                if (reduced_powers[-1] > 0) == (exponent > 0):
                    break
                k = cyclic_power_of_c(top)
                if k is None:
                    break
                reduced[-2].push_run(k)
            exponent += reduced_powers.pop()
            reduced.pop()
        if exponent:
            reduced_powers.append(exponent)
            reduced.append(base)
        else:
            reduced[-1].extend(base)
    return HNNForm(tuple(base.word() for base in reduced), tuple(reduced_powers))


def center_split(word: SPWord) -> CenterSplitForm:
    """The full normal-form pipeline: d-exponent plus reduced V~ form."""
    delta_exp, word = eliminate_a12(word)
    return CenterSplitForm(delta_exp, britton_reduce(word))


def is_trivial_sp3(word: SPWord) -> bool:
    """Decide triviality in SP_3: first by the six exponent sums, then by
    ``center_split``.

    Each defining relation has exponent sum zero in every generator, so the
    sums are a homomorphism SP_3 -> Z^6, and a word with a nonzero sum is
    nontrivial.  Only a word whose six sums vanish is reduced.
    """
    sums = dict.fromkeys(SP_NAMES, 0)
    for name, exponent in word.letters:
        sums[name] += exponent
    if any(sums.values()):
        return False
    return center_split(word).is_trivial


def equal_sp3(first: SPWord, second: SPWord) -> bool:
    """Decide equality in SP_3 via triviality of the quotient."""
    return is_trivial_sp3(first * second.inverse())


def is_trivial_sg3(word: BraidWord) -> bool:
    """Decide triviality in SG_3: zero crossing and singular exponent sums,
    trivial projection and trivial SP_3 part, in that order.

    Each defining relation of SG_3 balances the crossing letters and the
    singular letters separately, so the two sums are a homomorphism
    SG_3 -> Z^2, and a word with a nonzero sum is nontrivial before it is
    projected or rewritten.
    """
    if word.strands != 3:
        raise ValueError("the SG_3 decision needs a 3-strand word")
    if exponent_sums(word) != (0, 0):
        return False
    if not pi(word).is_identity:
        return False
    return is_trivial_sp3(rewrite_to_sp3(word))


def _best_slide(syllables: tuple[FactorSyllable, ...]) -> int:
    """The k for which c^-k B has the fewest syllables, the smallest |k|
    among equals.

    c^-k cancels the longest prefix of B that matches the syllable pattern
    of c^k, up to its own 2|k| syllables; only one sign of k has a
    nonempty such prefix, and the other only adds syllables.  Each k up to
    half the prefix removes two syllables.  Past an odd prefix that B
    continues, one more c-syllable cancels the last prefix syllable and
    merges with the next, which shares its factor by alternation: one
    syllable fewer again.  Any larger |k| adds syllables.
    """
    n = len(syllables)
    for sign, pattern in _C_SYLLABLES.items():
        j = 0
        while j < n and syllables[j] == pattern[j % 2]:
            j += 1
        if j:
            return sign * ((j + 1) // 2 if j % 2 and j < n else j // 2)
    return 0


def canonical_display(form: CenterSplitForm) -> str:
    """A prettier, display-only rendering of a reduced form.

    Each interior base is replaced by its minimal-syllable representative
    modulo sliding powers of c = a13 a23 across the stable letter to its
    left (see ``_best_slide``).  Equal group elements may still print
    differently; only the decision procedures are contractual.  The cost
    is linear in the syllables.
    """
    bases = list(form.v.bases)
    for i in range(1, len(bases)):
        best = _best_slide(bases[i].syllables)
        if best:
            bases[i - 1] = bases[i - 1] * _c_power(best)
            bases[i] = _c_power(-best) * bases[i]
    # Sliding can empty an interior base between same-sign stable letters;
    # merge those powers so the display stays compact.
    kept_bases, kept_powers = bases[:1], []
    for power, base in zip(form.v.powers, bases[1:]):
        if kept_powers and kept_bases[-1].is_empty:
            kept_powers[-1] += power
            kept_bases[-1] = base
        else:
            kept_powers.append(power)
            kept_bases.append(base)
    compacted = CenterSplitForm(form.delta_exp, HNNForm(tuple(kept_bases), tuple(kept_powers)))
    return str(compacted)
