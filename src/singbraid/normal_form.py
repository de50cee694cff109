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
stack passes.  The first reads the word once, left to right: the base
word between two stable letters keeps its syllables on a stack that merges
same-factor neighbours, a12^e goes onto it as one run c^-e, and a stable
power that follows an empty base merges with the power before it, which
gives the normal form in the free product V * <b12>.  That pass cancels
whatever free reduction would, so it reads a parsed word's tokens as the
parser stored them, unreduced, or a built word's reduced letters, in one
shape (see ``words.FreeWord._tokens``).
The second reads the bases and powers of that form once and cancels every
pinch b12^-e c^k b12^e by sliding c^k into the base to its left; a
cancellation can only expose another at the top of the stack.  A base
is a plain list of entries that ``_push`` and ``_push_run`` grow; it holds
each run c^n as one entry, an int, next to its plain syllables, so a base
is a power of c exactly when it is empty or one run: the pinch test and
the slide each cost O(1), and the reduction takes time amortised linear in
the letters.  A reduced form keeps each base as the tuple of its list's
entries, runs included: that tuple is the stored form of a word of V from
the reducer to the printer, and nothing wraps it.  A reduced form prints
through ``HNNForm.sp_word``: the letters of its bases and stable powers in
one freely reduced SP word, each run c^n written by ``_letters`` as one
product of the letters of c^+-1, the only place a run is written out.
``canonical_display`` slides runs as stored too: it reads a base's leading
run and the entry after it, and pushes the slid run onto the entry lists
on both sides.

By Britton's lemma a reduced word that still contains stable letters is
never trivial, so a V~ word is trivial exactly when its reduced form is an
empty base with no stable letters.  Triviality of the whole group element
then needs d-exponent zero as well, and equality is triviality of the
quotient.  ``is_trivial_sp3`` first reads the six exponent sums: every
defining relation balances each generator, so the sums are a homomorphism
SP_3 -> Z^6, a nonzero sum refutes the word at once, and only a word whose
six sums vanish goes through ``center_split``.  The sums depend only on
how often each letter occurs, so both sum stages read each distinct letter
with its count, and so does ``eliminate_a12``: the parser's token counts of
a parsed word, or a built word's letters, counted once for all three.
``britton_reduce`` reads the same keys in order.  So a parsed SP_3 word
never builds its letters and is never freely reduced on its way to a
verdict (see ``words.FreeWord``).
A word of SG_3 is trivial when its projection to the symmetric group is
trivial and its rewrite into SP_3 is.  ``is_trivial_sg3`` first reads the
crossing and singular exponent sums, a homomorphism SG_3 -> Z^2 for the
same reason, and refutes a word with a nonzero sum before it rewrites it.
The rewrite's one coset-table walk emits SP_3 letters and ends on the
trivial coset exactly when the projection is trivial, so the decision
reads the projection off the walk and calls no ``pi``.  The walk reads a
parsed word's tokens too, so a parsed SG_3 word never builds or freely
reduces its braid letters on its way to a verdict.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .rewriting import _OffKernel
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
    rewrite_to_sp3,
)
from .words import BraidWord, Value, exponent_sums

F13 = "13"
F23 = "23"


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


def _push(entries: list[FactorSyllable | int], syllable: FactorSyllable) -> None:
    """Append a syllable to the entries of a base, merging it into a
    same-factor top and dropping what cancels.

    The entries hold a word of V in normal form while it grows at the right
    end.  Each entry is a ``FactorSyllable`` or a nonzero int n that stands
    for the run c^n.  Expanded, the entries alternate factors and hold no
    trivial syllable.  Two plain syllables at the top that spell c^+-1
    coalesce into a run, and that run merges into a same-sign run below
    it, so no two runs are adjacent and no two adjacent plain syllables
    spell c^+-1.  The word is then a power of c exactly when it is empty or
    one run: ``cyclic_power_of_c`` costs O(1), and so does ``_push_run``.
    The entries never hold two adjacent same-factor entries, so one merge
    restores alternation.  A run whose last syllable has the factor of
    ``syllable`` first splits off one c^+-1, whose second syllable takes
    part in the merge."""
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


def _push_run(entries: list[FactorSyllable | int], k: int) -> None:
    """Append c^k for k != 0.  A run at the top absorbs it, or cancels
    against it and passes any remainder to the plain entry below; a plain
    top of the run's first factor takes one c^+-1 syllable by syllable."""
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
        _push(entries, first)
        _push(entries, second)
        k -= sign


def _extend(entries: list[FactorSyllable | int], other: Iterable[FactorSyllable | int]) -> None:
    """Append the entries of another base word, run by run."""
    for entry in other:
        if entry.__class__ is int:
            _push_run(entries, entry)
        else:
            _push(entries, entry)


def _letters(entries: Sequence[FactorSyllable | int]) -> list[SPLetter]:
    """The letters of a base's entries, each run c^n as one product of the
    letters of c^+-1: the one place that writes a run out."""
    letters: list[SPLetter] = []
    for entry in entries:
        if entry.__class__ is int:
            first, second = _C_SYLLABLES[1 if entry > 0 else -1]
            letters += (first.letters() + second.letters()) * abs(entry)
        else:
            letters += entry.letters()
    return letters


def _syllable(letter: SPLetter) -> FactorSyllable:
    """The syllable of a letter a13, a23, b13 or b23; the factor is the
    index in its name."""
    if letter.name in (A13, A23):
        return FactorSyllable(letter.name[1:], letter.exponent, 0)
    return FactorSyllable(letter.name[1:], 0, letter.exponent)


# What the first pass of ``britton_reduce`` reads for each of the eight unit
# base letters, keyed by the letter and by its token alike, so that a built
# word's letters and a parsed word's tokens find it: its syllable, so that
# the pass builds none, then (None, 0) or, for the second letter of c^sign,
# the first syllable of c^sign and the sign: arriving on that very syllable,
# it turns it into a run.  The syllables of c^+-1 are the objects of
# _C_SYLLABLES, so that the pass can find the first one at the top of the
# stack by identity.
_UNITS = {
    key: (syllable, *_C_PAIRS.get(syllable, (None, 0)))
    for syllable in _C_SYLLABLES[1] + _C_SYLLABLES[-1]
    + tuple(FactorSyllable(factor, 0, e) for factor in (F13, F23) for e in (1, -1))
    for key in (syllable.letters()[0], syllable.letters()[0].token())
}


def cyclic_power_of_c(entries: Sequence[FactorSyllable | int]) -> int | None:
    """The k with (a13 a23)^k equal in V to the word that the entries of a
    base spell, held in a tuple or in a growing list, or None when no such
    k exists.

    Read in O(1): a normal form is a power of c exactly when it is empty or
    one run.
    """
    if not entries:
        return 0
    if len(entries) == 1 and entries[0].__class__ is int:
        return entries[0]
    return None


class HNNForm(Value):
    """Alternating stable-letter powers and base words:
    bases[0] b12^powers[0] bases[1] ... b12^powers[m-1] bases[m], each base
    the tuple of the entries that ``_push`` and ``_push_run`` keep."""

    __slots__ = ("bases", "powers")

    def __init__(self, bases: tuple[tuple[FactorSyllable | int, ...], ...], powers: tuple[int, ...]) -> None:
        if len(bases) != len(powers) + 1:
            raise ValueError("segment counts out of step")
        if any(power == 0 for power in powers):
            raise ValueError("stable-letter powers must be nonzero")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "powers", powers)

    @property
    def is_trivial(self) -> bool:
        return not self.powers and not self.bases[0]

    def stable_letter_count(self) -> int:
        return sum(abs(power) for power in self.powers)

    def sp_word(self) -> SPWord:
        """The letters of every base and stable power, freely reduced once."""
        letters = _letters(self.bases[0])
        for power, base in zip(self.powers, self.bases[1:]):
            letters.append(SPLetter(B12, power))
            letters += _letters(base)
        return SPWord._reduced(letters)

    def __str__(self) -> str:
        return str(self.sp_word())


class CenterSplitForm(Value):
    """A power of the central element d times a reduced V~ form."""

    __slots__ = ("delta_exp", "v")

    def __init__(self, delta_exp: int, v: HNNForm) -> None:
        object.__setattr__(self, "delta_exp", delta_exp)
        object.__setattr__(self, "v", v)

    @property
    def is_trivial(self) -> bool:
        return self.delta_exp == 0 and self.v.is_trivial

    def __str__(self) -> str:
        return f"d^{self.delta_exp} | {self.v}"


def eliminate_a12(word: SPWord) -> tuple[int, SPWord]:
    """The d-exponent of a word, its a12 exponent sum, and the word itself.

    Since a12 = d c^-1 with d central, a word's coordinate in the factor
    <d> of SP_3 = V~ x <d> is its a12 exponent sum, and ``britton_reduce``
    reads each a12^e of the word as the run c^-e of its V~ part, so no
    letter is substituted here.  The sum reads each distinct letter with
    its count through ``FreeWord._letter_counts``, from the token counts of
    a parsed word, which builds no letter, or from a built word's letters,
    counted once for this sum and the six sums together.  The name and the
    pair stay because the name is public and the benchmark times the two
    steps of ``center_split`` by it.
    """
    return sum(exponent * count for (name, exponent), count in word._letter_counts() if name == A12), word


def britton_reduce(word: SPWord) -> HNNForm:
    """Reduce the V~ image of an SP_3 word to a form with no pinch, in two
    stack passes.

    The first pass pushes base letters onto the syllable stack of the open
    base, and each a12^e as the run c^-e, its image in V~ = SP_3/<d>; a
    stable power b12^e that follows an empty base merges with the power
    before it: the normal form in the free product V * <b12>.  It merges
    and cancels whatever free reduction would, so it reads the word as
    stored, through ``FreeWord._tokens``, in one loop: a parsed word's
    tokens, unreduced, or a built word's letters.  A unit key, a letter or
    a token, finds its syllable in ``_UNITS``; a token's ``str`` hash is
    cached.  Any other key is read as its letter, a token such as
    ``a13^1`` among them, although it spells a unit letter.
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
    bases: list[list[FactorSyllable | int]] = [[]]
    powers: list[int] = []
    entries = bases[-1]
    keys, letter_of, _ = word._tokens()
    for key in keys:
        unit = _UNITS.get(key)
        if unit is not None:
            syllable, first, sign = unit
            if first is not None and entries and entries[-1] is first:
                # What _push does with the second syllable of c^sign on the
                # first, without the call: SP words that spell c letter by
                # letter, such as pinch towers, meet it once per letter.
                # Without it, sp3-pinch words decide 1.05x slower: median
                # 211 against 199 us per main-class word (seed 7, best of 15
                # passes over 400 words), the step faster in 10 of 12
                # alternating pairs.
                entries.pop()
                if entries and entries[-1].__class__ is int:
                    entries[-1] += sign
                else:
                    entries.append(sign)
            else:
                _push(entries, syllable)
            continue
        letter = letter_of[key]
        name, exponent = letter
        if name == A12:
            # a12^e = d^e c^-e, and d is central: its V~ part is c^-e.
            _push_run(entries, -exponent)
            continue
        if name != B12:
            _push(entries, _syllable(letter))
            continue
        if powers and not entries:
            bases.pop()
            exponent += powers.pop()
        if exponent:
            powers.append(exponent)
            bases.append([])
        entries = bases[-1]
    reduced = [bases[0]]
    reduced_powers: list[int] = []
    for exponent, base in zip(powers, bases[1:]):
        while exponent and reduced_powers:
            top = reduced[-1]
            if top:
                if (reduced_powers[-1] > 0) == (exponent > 0):
                    break
                if cyclic_power_of_c(top) is None:
                    break
                # Top is one run c^k.  Pop it rather than read it: ``bases``
                # keeps the slid-away list until the return, and its k with it.
                _push_run(reduced[-2], top.pop())
            exponent += reduced_powers.pop()
            reduced.pop()
        if exponent:
            reduced_powers.append(exponent)
            reduced.append(base)
        else:
            _extend(reduced[-1], base)
    return HNNForm(tuple(map(tuple, reduced)), tuple(reduced_powers))


def center_split(word: SPWord) -> CenterSplitForm:
    """The full normal-form pipeline: d-exponent plus reduced V~ form."""
    delta_exp, word = eliminate_a12(word)
    return CenterSplitForm(delta_exp, britton_reduce(word))


def _six_sums(word: SPWord) -> dict[str, int]:
    """The exponent sum of each of the six generators, by name: exponent
    times count, added once per distinct letter read through
    ``FreeWord._letter_counts``, which counts in C, not once per letter,
    and keeps a built word's counts for ``eliminate_a12``."""
    sums = dict.fromkeys(SP_NAMES, 0)
    for (name, exponent), count in word._letter_counts():
        sums[name] += exponent * count
    return sums


def is_trivial_sp3(word: SPWord) -> bool:
    """Decide triviality in SP_3: first by the six exponent sums, then by
    ``center_split``.

    Each defining relation has exponent sum zero in every generator, so the
    sums are a homomorphism SP_3 -> Z^6, and a word with a nonzero sum is
    nontrivial.  They read the token counts of a parsed word, and
    ``center_split`` reads its tokens: a parsed word builds and reduces
    its letters only on the first read of its ``letters``, which no stage
    here makes.  Only a word whose six sums vanish is Britton-reduced.
    """
    sums = _six_sums(word)
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
    rewritten.  They read a parsed word's token counts.  The projection is
    read off the rewrite's one coset-table walk, with no call of ``pi``:
    the walk ends on the trivial coset exactly when the projection is
    trivial, and the walk refuses any other word with its own
    ``ValueError``, which alone reads as "nontrivial".  The walk and the
    reducer read the tokens, so a parsed word never builds or reduces its
    letters on the way to a verdict.
    """
    if word.strands != 3:
        raise ValueError("the SG_3 decision needs a 3-strand word")
    if exponent_sums(word) != (0, 0):
        return False
    try:
        return is_trivial_sp3(rewrite_to_sp3(word))
    except _OffKernel:
        # The walk ended off the trivial coset: a nontrivial projection.
        return False


def _best_slide(entries: Sequence[FactorSyllable | int]) -> int:
    """The k for which c^-k B has the fewest syllables, the smallest |k|
    among equals, read from at most the first three entries of B.

    c^-k cancels the longest prefix of B that spells the start of c^k, up
    to its own 2|k| syllables, and each k up to half that prefix removes two
    syllables.  A leading run c^n is such a prefix of 2|n| syllables.  If the
    next entry is the first syllable of c^+-1 and B goes on past it, one more
    c-syllable cancels it and merges with the entry after it, which shares
    its factor by alternation: one syllable fewer again.  Any larger |k|
    adds syllables.  Nothing later can extend the prefix: no two runs are
    adjacent, two plain syllables that spell c^+-1 coalesce, and after a run
    of sign s alternation rules out the first syllable of c^-s.
    """
    k = entries[0] if entries and entries[0].__class__ is int else 0
    i = 1 if k else 0
    if len(entries) > i + 1:
        for sign, (first, _) in _C_SYLLABLES.items():
            if entries[i] == first:
                return k + sign
    return k


def canonical_display(form: CenterSplitForm) -> str:
    """A prettier, display-only rendering of a reduced form.

    Each interior base is replaced by its minimal-syllable representative
    modulo sliding powers of c = a13 a23 across the stable letter to its
    left (see ``_best_slide``).  The slide pushes one run onto the entry
    list on each side, so no run is written out.  An interior base that
    the slide empties lies between two stable powers of the same sign:
    between opposite signs it was a power of c, a pinch that the reducer
    has cancelled.  The printer's one free reduction merges those two
    powers.  Equal group elements may still print differently; only the
    decision procedures are contractual.  The cost is linear in the entries.
    """
    stacks = [list(base) for base in form.v.bases]
    for i in range(1, len(stacks)):
        best = _best_slide(stacks[i])
        if best:
            _push_run(stacks[i - 1], best)
            right = [-best]
            _extend(right, stacks[i])
            stacks[i] = right
    return str(CenterSplitForm(form.delta_exp, HNNForm(tuple(map(tuple, stacks)), form.v.powers)))
