"""Derivations of the paper's data from the five defining relators of SG_3,
found by a bounded search and checked by a replay that decides nothing.

A claim is an SG_3 word that the paper's data says is trivial, mapped to
SG_3 by ``sp3_to_sg3``: each presentation relator of SP_3; each expression
row's ambient word ``rep a rep'^-1``, composed by the tests' own
``reference_reduction._ambient``, times the inverse of the row; and each
conjugation rule's ``g^-1 x g`` times the inverse of the image that
``sp3.ACTION_TABLES`` gives.  Words here are tuples of unit letters, each
a nonzero int: 1 and 2 for s1 and s2, 3 and 4 for t1 and t2, negated for
an inverse.

A step ``(position, relator, rotation, sign, cut)`` names the cyclic word
rho: relator ``relator`` of ``sg3_relators()``, inverted when ``sign`` is
-1, then rotated left by ``rotation`` letters.  Since rho is trivial in
SG_3, its first ``cut`` letters equal the inverse of the rest, so the step
replaces the ``cut`` letters that the word reads at ``position``, which
must spell rho's first ``cut`` letters, by the inverse of the rest, and
freely reduces.  ``replay`` applies steps and accepts only when each one
matches and the last leaves the empty word: a claim that replays is a
consequence of the five relators, checked by free reduction alone.

``derive`` searches best-first, shortest word first, over words at most
``SLACK`` unit letters longer than the claim, and gives up once it has
expanded ``MAX_STATES`` words, so a false claim finds no derivation in
bounded time.  The derivations are computed from the data when called;
none is written down.  Nothing here calls a function of ``normal_form``
or a walk of ``rewriting``.
"""

from __future__ import annotations

import heapq
from itertools import count

from singbraid import sp3
from singbraid.rewriting import SchreierGenerator
from singbraid.words import BraidWord, parse_braid_word, sg3_relators
from helpers import unit_letters
from reference_reduction import _ambient

# A claim's words may grow by this many unit letters on the way to 1.
SLACK = 6
# The search gives up after expanding this many words.  Every claim of the
# paper's data derives within 11 expansions.
MAX_STATES = 1000

Step = tuple[int, int, int, int, int]


def units(word: BraidWord) -> tuple[int, ...]:
    """The unit letters of a 3-strand word as signed ints."""
    return tuple(
        (letter.index + (0 if letter.kind == "s" else 2)) * letter.exponent for letter in unit_letters(word)
    )


def inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


RELATORS = [units(relator) for relator in sg3_relators()]


def cyclic_word(relator: int, rotation: int, sign: int) -> tuple[int, ...]:
    rho = RELATORS[relator] if sign == 1 else inverse(RELATORS[relator])
    return rho[rotation:] + rho[:rotation]


def apply(word: tuple[int, ...], step: Step) -> tuple[int, ...] | None:
    """The word after one step, freely reduced, or None when the step names
    no cyclic word of a relator or does not match the word."""
    position, relator, rotation, sign, cut = step
    if not (0 <= relator < len(RELATORS) and sign in (1, -1)):
        return None
    rho = cyclic_word(relator, rotation, sign)
    if not (0 <= rotation < len(rho) and 0 < cut <= len(rho) and 0 <= position):
        return None
    if word[position : position + cut] != rho[:cut]:
        return None
    return free_reduce(word[:position] + inverse(rho[cut:]) + word[position + cut :])


def replay(claim: tuple[int, ...], steps: list[Step]) -> bool:
    """Whether the steps take the claim, freely reduced, to the empty word."""
    word = free_reduce(claim)
    for step in steps:
        word = apply(word, step)
        if word is None:
            return False
    return not word


def _cyclic_words_by_first_letter() -> dict[int, list[tuple[int, int, int, tuple[int, ...]]]]:
    """Every cyclic word of a relator or its inverse, with the relator,
    rotation and sign that name it, by its first letter: the search reads at
    each position only the cyclic words that start with the letter there."""
    table: dict[int, list[tuple[int, int, int, tuple[int, ...]]]] = {}
    for relator, word in enumerate(RELATORS):
        for sign in (1, -1):
            for rotation in range(len(word)):
                rho = cyclic_word(relator, rotation, sign)
                table.setdefault(rho[0], []).append((relator, rotation, sign, rho))
    return table


_BY_FIRST_LETTER = _cyclic_words_by_first_letter()


def _steps(word: tuple[int, ...]):
    """Every step that matches the word."""
    for position, letter in enumerate(word):
        for relator, rotation, sign, rho in _BY_FIRST_LETTER.get(letter, ()):
            cut = 0
            while cut < len(rho) and position + cut < len(word) and word[position + cut] == rho[cut]:
                cut += 1
                yield position, relator, rotation, sign, cut


def derive(claim: tuple[int, ...]) -> list[Step] | None:
    """The shortest-word-first derivation of the claim from the relators:
    steps that ``replay`` accepts, or None when the bounds are reached."""
    start = free_reduce(claim)
    limit = len(start) + SLACK
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], Step] | None] = {start: None}
    order = count()
    frontier = [(len(start), next(order), start)]
    for _ in range(MAX_STATES):
        if not frontier:
            return None
        word = heapq.heappop(frontier)[2]
        if not word:
            steps = []
            while parents[word] is not None:
                word, step = parents[word]
                steps.append(step)
            return steps[::-1]
        for step in _steps(word):
            after = apply(word, step)
            if len(after) <= limit and after not in parents:
                parents[after] = (word, step)
                heapq.heappush(frontier, (len(after), next(order), after))
    return None


def relator_claims() -> dict[str, tuple[int, ...]]:
    """The eight presentation relators of SP_3, as SG_3 words."""
    return {str(relator): units(sp3.sp3_to_sg3(relator)) for relator in sp3.presentation_relators()}


def row_claim(rep: str, letter: str, row: str) -> tuple[int, ...]:
    """The ambient word of S[rep, letter] times the inverse of ``row``."""
    generator = SchreierGenerator(parse_braid_word(rep, 3), parse_braid_word(letter, 3).letters[0])
    return units(_ambient(generator)) + inverse(units(sp3.sp3_to_sg3(sp3.parse_sp_word(row))))


def row_claims() -> dict[str, tuple[int, ...]]:
    """The claim of each expression row, read from ``sp3._EXPRESSION_ROWS``
    when called.  Five rows name generators whose ambient words are freely
    empty, and their claims are empty when the rows read "1"."""
    rows = sp3._EXPRESSION_ROWS
    return {f"S[{rep},{letter}]": row_claim(rep, letter, row) for (rep, letter), row in rows.items()}


def rule_claim(generator: str, name: str, image: str) -> tuple[int, ...]:
    """``g^-1 x g`` times the inverse of ``image``, for g and x named."""
    g = units(parse_braid_word(generator, 3))
    x = units(sp3.sp3_to_sg3(sp3.parse_sp_word(name)))
    return inverse(g) + x + g + inverse(units(sp3.sp3_to_sg3(sp3.parse_sp_word(image))))


def rule_claims() -> dict[str, tuple[int, ...]]:
    """The claim of each conjugation rule of ``sp3.ACTION_TABLES``."""
    return {
        f"{name}^{generator}": rule_claim(generator, name, str(image))
        for generator, images in sp3.ACTION_TABLES.items()
        for name, image in images.items()
    }
