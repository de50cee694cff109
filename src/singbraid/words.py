"""
Words in the generators of the n-strand singular braid group.

The group SG_n is generated by the crossings s1, ..., s(n-1) and the
singular crossings t1, ..., t(n-1); a word is a finite product of these
letters and their inverses.  Words are stored freely reduced with
run-length exponents: adjacent letters with the same name are merged and
letters whose exponent cancels to zero are removed.  Equality of stored
words is therefore equality in the free group on the letters; equality in
SG_n itself is decided elsewhere (see normal_form).

All values are immutable and all functions are pure, so words can be
shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

SIGMA = "s"
TAU = "t"

# Parsed words longer than this many unit letters (exponents counted by
# magnitude, after free reduction) are rejected: decisions cost time and
# memory linear in the unit letters, and 2**18 of them already take seconds.
MAX_UNIT_LETTERS = 2**18
# A token's index or exponent of more digits than the limit has is refused.
MAX_DIGITS = len(str(MAX_UNIT_LETTERS))

_TOKEN_RE = re.compile(r"([st])([1-9][0-9]*)(?:\^(-?[1-9][0-9]*))?\Z")


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


def _merge_runs(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence by merging equal-name runs.

    The stack never holds two adjacent entries with the same (kind, index),
    so a single left-to-right pass suffices: cancellations that expose a
    new mergeable pair are caught when the next letter arrives.
    """
    stack: list[Letter] = []
    for letter in letters:
        if letter.exponent == 0:
            continue
        if stack and (stack[-1].kind, stack[-1].index) == (letter.kind, letter.index):
            merged = stack[-1].exponent + letter.exponent
            if merged == 0:
                stack.pop()
            else:
                stack[-1] = Letter(letter.kind, letter.index, merged)
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced word over the SG_n generators on ``strands`` strands."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError(f"strand count must be at least 2, got {self.strands}")
        for letter in self.letters:
            if letter.kind not in (SIGMA, TAU):
                raise ValueError(f"unknown generator kind {letter.kind!r}")
            if not 1 <= letter.index <= self.strands - 1:
                raise ValueError(
                    f"letter {letter.token()} out of range for {self.strands} strands"
                )
        object.__setattr__(self, "letters", _merge_runs(self.letters))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def unit_letters(self) -> Iterator[Letter]:
        """Yield the word letter by letter with exponents split into +-1."""
        for letter in self.letters:
            step = 1 if letter.exponent > 0 else -1
            for _ in range(abs(letter.exponent)):
                yield Letter(letter.kind, letter.index, step)

    def unit_length(self) -> int:
        return sum(abs(letter.exponent) for letter in self.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(l.inverse() for l in reversed(self.letters)))

    def __mul__(self, other: BraidWord) -> BraidWord:
        return concat(self, other)

    def __pow__(self, power: int) -> BraidWord:
        if power < 0:
            return self.inverse() ** (-power)
        return BraidWord(self.strands, self.letters * power)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter.token() for letter in self.letters)


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse the whitespace-separated ASCII grammar into a freely reduced word.

    Tokens are ``s<i>`` and ``t<i>`` with an optional nonzero integer
    exponent suffix ``^<k>``; the standalone token ``1`` denotes the empty
    word, so parsing is a left inverse of ``str()``.  Raises ``ValueError``
    when an index or exponent has more than ``MAX_DIGITS`` digits, or
    the reduced word has more than ``MAX_UNIT_LETTERS`` unit letters.
    """
    letters: list[Letter] = []
    tokens = text.split()
    for token in tokens:
        if token == "1":
            continue
        match = _TOKEN_RE.match(token)
        if match is None:
            raise ValueError(f"bad token {token!r} in braid word")
        kind, index, exponent = match.group(1), parse_number(match.group(2)), match.group(3)
        if not 1 <= index <= strands - 1:
            raise ValueError(f"token {token!r} out of range for {strands} strands")
        letters.append(Letter(kind, index, 1 if exponent is None else parse_number(exponent)))
    word = BraidWord(strands, tuple(letters))
    check_unit_length(word.letters)
    return word


def parse_number(digits: str) -> int:
    """``int(digits)`` for a token's index or exponent, refusing more than
    ``MAX_DIGITS`` digits before any conversion, so that hostile input costs
    nothing and the message does not repeat the digits."""
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"a number has more than {MAX_DIGITS} digits, past the limit of {MAX_UNIT_LETTERS}")
    return int(digits)


def check_unit_length(letters: Iterable[Letter]) -> None:
    """Reject a parsed word of more than ``MAX_UNIT_LETTERS`` unit letters;
    ``letters`` are braid or SP_3 letters, anything with an exponent."""
    length = sum(abs(letter.exponent) for letter in letters)
    if length > MAX_UNIT_LETTERS:
        raise ValueError(
            f"word has {length} unit letters, more than the limit of {MAX_UNIT_LETTERS}"
        )


def concat(first: BraidWord, second: BraidWord) -> BraidWord:
    if first.strands != second.strands:
        raise ValueError(
            f"strand counts differ: {first.strands} vs {second.strands}"
        )
    return BraidWord(first.strands, first.letters + second.letters)


def invert(word: BraidWord) -> BraidWord:
    return word.inverse()


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
    both sums are invariants of the group element.
    """
    sigma_sum = sum(l.exponent for l in word.letters if l.kind == SIGMA)
    tau_sum = sum(l.exponent for l in word.letters if l.kind == TAU)
    return sigma_sum, tau_sum
