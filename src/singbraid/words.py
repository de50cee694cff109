"""
Free words, and the words in the generators of the n-strand singular braid
group.

The group SG_n is generated by the crossings s1, ..., s(n-1) and the
singular crossings t1, ..., t(n-1); a word is a finite product of these
letters and their inverses.  Every word of the package, braid words here
and SP_3 words in ``sp3``, is an element of a free group whose ``letters``
are freely reduced with run-length exponents: adjacent letters of the same
generator are merged and letters whose exponent cancels to zero are
removed.  A word built by a constructor is reduced at once; a parsed word
keeps the parser's tokens, counted once, and builds and reduces its
letters on the first read of ``letters``.  Every stage of a decision reads
a word in one shape, the ``_Tokens`` triple of ``FreeWord._tokens``: keys in
order, the letter of each distinct key and its count.  A parsed word's keys
are its tokens, unreduced; a built word's are its reduced letters, each
its own key.  The crossing and singular sums here and the six generator
sums and the a12 sum of ``normal_form`` read each distinct letter with its
count, through ``FreeWord._letter_counts``: every defining relation
balances each generator, so the sums are homomorphisms that depend only on
how often each letter occurs, and a parsed word that they refute never
builds its letters and is never reduced.  ``permutations.pi``, the
coset-table walk of ``rewriting`` and Britton reduction's first pass read
the keys in order, so no parsed word builds or reduces its letters on the
way to a verdict either: the first two are homomorphisms on the free
group, and the pass cancels whatever free reduction would.
This module holds that free-group core once: ``free_reduce`` is the one
reduction, ``FreeWord`` the one set of word operations (inverse, product,
power, printing) and ``substitute`` the one letter-by-word substitution,
which ``sp3.sp3_to_sg3`` uses.
Equality of words is therefore equality in the free group on the letters;
equality in SG_n itself is decided elsewhere (see normal_form).

All values are immutable and all functions are pure, so words can be
shared freely between threads: two threads that read the ``letters`` of
one parsed word at once each build and reduce them, to equal letters.
The parsers' token caches only memoise: a token gives the same letter on
every call, and a bad token raises anew.
``Value`` is the one base of the package's immutable classes: slotted,
compared and hashed by their fields, printed in ``repr`` as
``Name(field=value, ...)``, and refusing assignment.
"""

from __future__ import annotations

import re
from collections import _count_elements
from functools import lru_cache
from operator import attrgetter, itemgetter, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

SIGMA = "s"
TAU = "t"

# Parsed words longer than this many unit letters (exponents counted by
# magnitude, after free reduction) are rejected: decisions cost time and
# memory linear in the unit letters as written, or after free reduction
# where the written ones pass the limit, and 2**18 of them take seconds.
MAX_UNIT_LETTERS = 2**18
# A token's index or exponent of more digits than the limit has is refused.
MAX_DIGITS = len(str(MAX_UNIT_LETTERS))

_TOKEN_RE = re.compile(r"([st])([1-9][0-9]*)(?:\^(-?[1-9][0-9]*))?\Z")
# Each parser keeps the letters of at most this many distinct tokens, so
# that a process converts a recurring token once and hostile input evicts.
_TOKEN_CACHE_SIZE = 1024


class Letter(NamedTuple):
    """A single generator raised to a nonzero power, e.g. s2^-3."""

    kind: str
    index: int
    exponent: int

    def inverse(self) -> Letter:
        return Letter(self.kind, self.index, -self.exponent)

    def token(self) -> str:
        if self.exponent == 1:
            return f"{self.kind}{self.index}"
        return f"{self.kind}{self.index}^{self.exponent}"


def free_reduce(letters: Iterable) -> tuple:
    """Freely reduce a letter sequence by merging equal-generator runs.

    Letters are NamedTuples whose last field is the exponent and whose
    other fields, one or two of them, name the generator (``Letter`` and
    ``sp3.SPLetter``).  The stack never holds two adjacent letters of the
    same generator, so a single left-to-right pass suffices: cancellations
    that expose a new mergeable pair are caught when the next letter
    arrives.  A run of letters of the generator at the top of the stack is
    added up in a local and written back as one letter, so a run of any
    length builds at most one letter.
    """
    stack: list = []
    top = None  # stack[-1], kept in a local: this loop is on the hot path
    letters = iter(letters)
    for letter in letters:
        while letter[-1]:
            # Comparing the first field and the one before the exponent
            # names the generator without slicing either letter.
            if top is None or top[0] != letter[0] or top[-2] != letter[-2]:
                stack.append(letter)
                top = letter
                break
            total = top[-1] + letter[-1]
            if not total:
                # Cancelled at once, as inverse pairs mostly are: the next
                # letter meets the one below in the outer loop.
                stack.pop()
                top = stack[-1] if stack else None
                break
            # A run on the top's generator: add it up as far as the first
            # nonzero letter of another generator.
            letter = None
            for after in letters:
                if after[0] == top[0] and after[-2] == top[-2]:
                    total += after[-1]
                elif after[-1]:
                    letter = after
                    break
            if total:
                # What NamedTuple._make does, without its call and length check.
                top = stack[-1] = tuple.__new__(type(top), top[:-1] + (total,))
            else:
                stack.pop()
                top = stack[-1] if stack else None
            if letter is None:
                break
            # The letter that ended the run goes round again: if the run
            # cancelled, the letter below it may share its generator.
    return tuple(stack)


_W = TypeVar("_W", bound="FreeWord")


class Value:
    """An immutable value: the fields named by a subclass's ``__slots__``,
    or by its ``_fields`` where some slots are not compared.

    Two values are equal when they are of the same class and their fields
    are equal; the hash is the hash of the tuple of fields; ``repr`` reads
    ``Name(field=value, ...)``; assignment raises ``AttributeError``.  Each
    subclass writes its own ``__init__`` and stores its slots there with
    ``object.__setattr__``.  Pickling and copying rebuild a value through
    its constructor, from every slot in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: Callable[[Value], tuple]

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields:
            get = attrgetter(*fields)
            cls._fields = fields
            cls._key = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class _Tokens(NamedTuple):
    """The one shape in which every reader reads a word: its keys in order,
    the letter of each distinct key and the number of its occurrences, both
    keyed in the order of first occurrence.  A parsed word's keys are its
    tokens as ``parse_tokens`` leaves them, unreduced; a built word's tokens
    are its reduced letters, each distinct letter mapped to itself."""

    tokens: Sequence
    letter_of: dict
    counts: dict


class FreeWord(Value):
    """The operations of a freely reduced word with a ``letters`` field.

    ``letters`` is the last field of every subclass, whose constructor
    validates the letters and stores them through ``free_reduce``; every
    result here is built by that constructor, from the other fields and
    new letters, so it is reduced again.  ``_reduced`` is the one
    constructor that reduces without validating.

    ``_parsed`` is the parsers' constructor: it keeps their ``_Tokens`` in
    ``_stored`` and leaves the ``letters`` slot unset.  ``__getattr__``,
    which Python calls only for an attribute that it does not find, builds
    the letters from the tokens on the first read of ``letters``, reduces
    them and stores the result in both slots, dropping the tokens.  Every
    other constructor stores the reduced letters in both slots at once.

    Every reader of a decision reads one shape, the ``_Tokens`` triple of
    ``_tokens``: a parsed word's tokens, or a built word's reduced letters
    as their own keys, converted on the first such read and kept in
    ``_stored``.  The exponent sums read each distinct key with its count
    through ``_letter_counts``: free reduction changes no sum, so a parsed
    word that they refute never builds a letter list and is never reduced.
    ``pi``, the coset-table walk of ``rewrite_tau`` and
    ``sp3.rewrite_to_sp3``, and Britton reduction read the keys in order,
    each looked up in ``letter_of`` or in a table keyed by tokens and
    letters alike; none needs free reduction first.  ``pi`` and the walk
    are homomorphisms on the free group (the walk's result only up to free
    equality, which ``sp3.rewrite_to_sp3`` reduces away), and Britton
    reduction reduces as it goes.  ``_stored`` is one slot, read once by
    each reader, so a reader sees one triple or the reduced letters, never
    half of each.  It is not a field: it is not compared, hashed, printed
    or pickled, and a pickled or copied word is rebuilt from its reduced
    letters.
    """

    __slots__ = ("_stored",)
    _fields = ()
    letters: tuple
    _stored: _Tokens | tuple

    @classmethod
    def _reduced(cls: type[_W], *fields: object) -> _W:
        """``_parsed(*fields)`` with the letters freely reduced at once.  For
        letters whose generators are known to be valid: the expression rows,
        which ``verify --table`` checks, and the letters that the
        ``normal_form`` printers read from their entries."""
        word = cls._parsed(*fields)
        word._store(free_reduce(fields[-1]))
        return word

    @classmethod
    def _parsed(cls: type[_W], *fields: object) -> _W:
        """``cls(*fields)`` without the checks of the fields, the last one
        kept as given in ``_stored`` until the first read of ``letters``:
        for a parser's ``_Tokens``, whose distinct tokens it checked one at
        a time."""
        word = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields[:-1]):
            object.__setattr__(word, name, value)
        object.__setattr__(word, "_stored", fields[-1])
        return word

    def __getattr__(self, name: str) -> tuple:
        if name != "letters":
            raise AttributeError(f"{self.__class__.__name__!r} object has no attribute {name!r}")
        # Two threads that both read the tokens each reduce them, to equal
        # letters; a read that finds reduced letters reduces them again.
        keys, letter_of, _ = self._tokens()
        return self._store(free_reduce(map(letter_of.__getitem__, keys)))

    def _store(self, letters: tuple) -> tuple:
        """Store reduced letters as ``letters`` and as ``_stored``."""
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_stored", letters)
        return letters

    def _tokens(self) -> _Tokens:
        """The word as every reader reads it: the parser's ``_Tokens``, or
        for reduced letters a ``_Tokens`` whose keys are the letters, each
        distinct letter its own key, counted in C as ``parse_tokens`` counts
        tokens.  The first read of reduced letters builds that triple and
        keeps it in ``_stored``, so a word that is only printed or
        multiplied never counts its letters, and a word read twice counts
        them once.  ``_stored`` is read once, so another thread's first read
        of ``letters`` cannot mix the forms."""
        stored = self._stored
        if stored.__class__ is _Tokens:
            return stored
        counts: dict = {}
        _count_elements(counts, stored)
        tokens = _Tokens(stored, dict(zip(counts, counts)), counts)
        object.__setattr__(self, "_stored", tokens)
        return tokens

    def _letter_counts(self) -> Iterable[tuple[tuple, int]]:
        """``(letter, count)`` pairs whose counts add up to the word's
        letters as ``_tokens`` reads them.  A letter may come in more than
        one pair, as ``s1`` and ``s1^1`` do."""
        _, letter_of, counts = self._tokens()
        return zip(letter_of.values(), counts.values())

    def _with(self: _W, letters: tuple) -> _W:
        return self.__class__(*self._key(self)[:-1], letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def unit_length(self) -> int:
        return sum(map(abs, map(itemgetter(-1), self.letters)))

    def inverse(self: _W) -> _W:
        return self._with(tuple(l.inverse() for l in reversed(self.letters)))

    def __mul__(self: _W, other: _W) -> _W:
        return self._with(self.letters + other.letters)

    def __pow__(self: _W, power: int) -> _W:
        if power < 0:
            return self.inverse() ** (-power)
        return self._with(self.letters * power)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter.token() for letter in self.letters)


def substitute(pairs: Iterable[tuple], images: Mapping) -> tuple:
    """The letters of ``images[key] ** e`` for each ``(key, e)`` of
    ``pairs``, in order: words substituted for letters, for the caller to
    reduce once."""
    return tuple([letter for key, e in pairs for letter in (images[key] ** e).letters])


def concat(first: BraidWord, second: BraidWord) -> BraidWord:
    if first.strands != second.strands:
        raise ValueError(
            f"strand counts differ: {first.strands} vs {second.strands}"
        )
    return BraidWord(first.strands, first.letters + second.letters)


class BraidWord(FreeWord):
    """A freely reduced word over the SG_n generators on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[Letter] = ()) -> None:
        letters = tuple(letters)
        if strands < 2:
            raise ValueError(f"strand count must be at least 2, got {strands}")
        # Each distinct letter is checked once, read off a set that is built
        # without a Python step per letter; only a failing word is read again
        # in order, so that the message names its first offending letter.
        if not all(kind in (SIGMA, TAU) and 1 <= index < strands for kind, index, _ in set(letters)):
            for letter in letters:
                if letter.kind not in (SIGMA, TAU):
                    raise ValueError(f"unknown generator kind {letter.kind!r}")
                if not 1 <= letter.index <= strands - 1:
                    raise ValueError(
                        f"letter {letter.token()} out of range for {strands} strands"
                    )
        object.__setattr__(self, "strands", strands)
        self._store(free_reduce(letters))

    __mul__ = concat


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse the whitespace-separated ASCII grammar into a word whose
    ``letters`` are freely reduced on first read (see ``FreeWord``).

    Tokens are ``s<i>`` and ``t<i>`` with an optional nonzero integer
    exponent suffix ``^<k>``; the standalone token ``1`` denotes the empty
    word, so parsing is a left inverse of ``str()``.  Raises ``ValueError``
    when ``strands`` is more than ``MAX_UNIT_LETTERS`` (projections cost
    time and memory linear in it), when an index or exponent has more than
    ``MAX_DIGITS`` digits, or when the reduced word has more than
    ``MAX_UNIT_LETTERS`` unit letters.
    """
    if strands > MAX_UNIT_LETTERS:
        raise ValueError(f"strand count {strands} is more than the limit of {MAX_UNIT_LETTERS}")
    tokens, bound = parse_tokens(text, lambda token: _braid_letter(token, strands))
    # Every distinct token was checked above, so the tokens are only
    # stored.  Below two strands every token is out of range, so only the
    # empty word gets here, and BraidWord refuses its strand count.
    word = BraidWord._parsed(strands, tokens) if strands > 1 else BraidWord(strands)
    return check_unit_length(word, bound)


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _braid_letter(token: str, strands: int) -> Letter:
    """The letter of one braid token on ``strands`` strands, or
    ``ValueError`` for a token that does not match, an index of too many
    digits, an index out of range, or an exponent of too many digits, in
    that order.  Cached per token and strand count; an error is not."""
    match = _TOKEN_RE.match(token)
    if match is None:
        raise ValueError(f"bad token {token!r} in braid word")
    kind, index, exponent = match.group(1), parse_number(match.group(2)), match.group(3)
    if not 1 <= index <= strands - 1:
        raise ValueError(f"token {token!r} out of range for {strands} strands")
    return Letter(kind, index, 1 if exponent is None else parse_number(exponent))


def parse_tokens(text: str, letter: Callable[[str], tuple]) -> tuple[_Tokens, int]:
    """The whitespace-separated tokens of ``text``, skipping the token ``1``
    of the empty word, as a parsed word stores them, and the number of their
    unit letters as written: ``|exponent|`` times count, added once per
    distinct token.  ``letter`` makes the letter of a token, or raises for a
    bad one.

    The tokens are counted once, in C, into a dict whose keys come in the
    order of their first occurrence; ``letter`` is called once per distinct
    token in that order, so the first bad token in reading order is the one
    that raises, as it would be in a plain left-to-right loop.  Both parsers
    pass a cached function, so a token recurring across words is converted
    once per process.  No letter is built per token here: a parsed word
    builds its letters from the tokens on the first read of ``letters``.
    """
    tokens = text.split()
    # collections.Counter does the same count with about a microsecond more
    # of Python set-up per call, which short words would pay in full.
    counts: dict[str, int] = {}
    _count_elements(counts, tokens)
    if counts.pop("1", None):
        tokens = [token for token in tokens if token != "1"]
    letter_of = dict(zip(counts, map(letter, counts)))
    bound = sum(map(mul, map(abs, map(itemgetter(-1), letter_of.values())), counts.values()))
    return _Tokens(tokens, letter_of, counts), bound


def parse_number(digits: str) -> int:
    """``int(digits)`` for a token's index or exponent, refusing more than
    ``MAX_DIGITS`` digits before any conversion, so that hostile input costs
    nothing and the message does not repeat the digits."""
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"a number has more than {MAX_DIGITS} digits, past the limit of {MAX_UNIT_LETTERS}")
    return int(digits)


def check_unit_length(word: _W, bound: int) -> _W:
    """Return a parsed braid or SP_3 word, refusing one of more than
    ``MAX_UNIT_LETTERS`` unit letters.  ``bound`` is at least the unit
    letters of the word after reduction, such as the count before reduction
    that ``parse_tokens`` returns, so the word is reduced and counted only
    past the limit."""
    if bound > MAX_UNIT_LETTERS and word.unit_length() > MAX_UNIT_LETTERS:
        raise ValueError(f"word has {word.unit_length()} unit letters, more than the limit of {MAX_UNIT_LETTERS}")
    return word


def conjugate(word: BraidWord, by: BraidWord) -> BraidWord:
    """Return ``by * word * by^-1``."""
    return concat(concat(by, word), by.inverse())


def sg3_relators() -> list[BraidWord]:
    """The five defining relators of SG_3, each written as a left side times
    an inverted right side (s1 t1 = t1 s1 becomes s1 t1 s1^-1 t1^-1, etc.)."""
    texts = [
        "s1 t1 s1^-1 t1^-1",
        "s1 s2 s1 s2^-1 s1^-1 s2^-1",
        "s2 t2 s2^-1 t2^-1",
        "s1 s2 t1 s2^-1 s1^-1 t2^-1",
        "s2 s1 t2 s1^-1 s2^-1 t1^-1",
    ]
    return [parse_braid_word(text, 3) for text in texts]


def exponent_sums(word: BraidWord) -> tuple[int, int]:
    """Total exponent of crossing letters and of singular letters.

    Every defining relator of SG_n balances the two counts separately, so
    the pair is a homomorphism SG_n -> Z^2 and a nonzero sum proves a word
    nontrivial; ``is_trivial_sg3`` reads it first.  The sums depend only on
    how often each letter occurs, so they add exponent times count once per
    distinct letter, read through ``FreeWord._letter_counts``: from the
    parser's token counts in a parsed word whose ``letters`` were never
    read, which builds no letter and reduces nothing.  The kind of each
    letter was already checked by the parser or by ``BraidWord``.
    """
    sigma_sum = tau_sum = 0
    for (kind, _, exponent), n in word._letter_counts():
        if kind == SIGMA:
            sigma_sum += exponent * n
        else:
            tau_sum += exponent * n
    return sigma_sum, tau_sum
