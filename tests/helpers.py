"""Shared word generators for the test suite, and the few word and
permutation operations that only the tests need.  Everything is seeded, so
failures reproduce."""

from __future__ import annotations

import random
from functools import lru_cache

from singbraid import (
    BraidWord,
    Letter,
    SPLetter,
    SPWord,
    concat,
    conjugate,
    coset_table,
    parse_sp_word,
    pi,
    sg3_relators,
)
from singbraid.sp3 import SP_NAMES
from singbraid.words import SIGMA, TAU


# The generator d = a12 a13 a23 of the center of SP_3.
CENTER = parse_sp_word("a12 a13 a23")


def unit_letters(word: BraidWord) -> list[Letter]:
    """The letters of a word in order, with exponents split into +-1."""
    return [
        Letter(letter.kind, letter.index, 1 if letter.exponent > 0 else -1)
        for letter in word.letters
        for _ in range(abs(letter.exponent))
    ]


def compose(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of applying ``first``, then ``second``."""
    return tuple(second[image - 1] for image in first)


@lru_cache(maxsize=None)
def _reps_by_image(strands: int) -> dict[tuple[int, ...], BraidWord]:
    return {pi(rep).images: rep for rep in coset_table(strands).elements}


def coset_rep(word: BraidWord) -> BraidWord:
    """The transversal representative of the coset of ``word``: the
    element of ``coset_table`` with the same projection."""
    return _reps_by_image(word.strands)[pi(word).images]


def random_letter(rng: random.Random, strands: int = 3) -> Letter:
    kind = rng.choice((SIGMA, TAU))
    return Letter(kind, rng.randrange(1, strands), rng.choice((-1, 1)))


def random_word(rng: random.Random, strands: int = 3, max_len: int = 20) -> BraidWord:
    length = rng.randrange(max_len + 1)
    return BraidWord(strands, tuple(random_letter(rng, strands) for _ in range(length)))


def random_pi_trivial(rng: random.Random, strands: int = 3, max_len: int = 40) -> BraidWord:
    """A random kernel word: a random word with its coset representative
    cancelled off, keeping the unit length within max_len."""
    margin = strands * (strands - 1) // 2
    base = random_word(rng, strands, max_len - margin)
    return concat(base, coset_rep(base).inverse())


def random_kernel_word(rng: random.Random, strands: int = 3, max_len: int = 20, max_exp: int = 5) -> BraidWord:
    """A random kernel word whose letters carry exponents up to +-max_exp,
    with its coset representative cancelled off."""
    letters = tuple(
        Letter(rng.choice((SIGMA, TAU)), rng.randrange(1, strands), rng.choice((-1, 1)) * rng.randint(1, max_exp))
        for _ in range(rng.randrange(max_len + 1))
    )
    base = BraidWord(strands, letters)
    return concat(base, coset_rep(base).inverse())


def conjugated_relators() -> list[tuple[int, BraidWord, BraidWord]]:
    """Each SG_3 relator, numbered from 1, conjugated by each of the six
    transversal elements: the 30 words whose rewrites present SP_3
    (Reidemeister-Schreier), as (relator number, element, word)."""
    return [
        (index, rep, conjugate(relator, rep))
        for index, relator in enumerate(sg3_relators(), start=1)
        for rep in coset_table(3).elements
    ]


def random_relator_product(rng: random.Random, max_factors: int = 6, conj_len: int = 8) -> BraidWord:
    """A product of conjugated SG_3 relators: trivial by construction."""
    relators = sg3_relators()
    word = BraidWord(3)
    for _ in range(rng.randrange(1, max_factors + 1)):
        relator = rng.choice(relators)
        if rng.random() < 0.5:
            relator = relator.inverse()
        word = concat(word, conjugate(relator, random_word(rng, 3, conj_len)))
    return word


def random_sp_word(rng: random.Random, max_len: int = 20) -> SPWord:
    length = rng.randrange(max_len + 1)
    letters = tuple(
        SPLetter(rng.choice(SP_NAMES), rng.choice((-1, 1))) for _ in range(length)
    )
    return SPWord(letters)


def _token(name: str, exponent: int) -> str:
    return name if exponent == 1 else f"{name}^{exponent}"


def unreduced_sp_text(rng: random.Random) -> str:
    """An SP_3 text that free reduction changes: cancelling pairs, runs
    split over two tokens (one of them sometimes written ``a13^1``), tokens
    ``1``, ``a12^k ... a12^-k`` and ``b12 ... b12^-1`` around a base that
    empties, between plain tokens."""
    tokens = []
    for _ in range(rng.randrange(1, 10)):
        name, e = rng.choice(SP_NAMES), rng.choice((-3, -2, -1, 1, 2, 3))
        piece = rng.randrange(6)
        if piece == 0:
            tokens += [_token(name, e), _token(name, -e)]
        elif piece == 1:
            tokens += [_token(name, e), rng.choice((f"{name}^1", _token(name, rng.choice((-2, -1, 2)))))]
        elif piece == 2:
            tokens.append("1")
        elif piece == 3:
            tokens += [_token("a12", e), _token(name, 1), _token("a12", -e)]
        elif piece == 4:
            x = rng.choice(("a13", "a23", "b13", "b23"))
            tokens += [_token("b12", e), x, "1", f"{x}^-1", _token("b12", rng.choice((-e, 1)))]
        else:
            tokens.append(_token(name, e))
    return " ".join(tokens)


def unreduced_braid_text(rng: random.Random, strands: int = 3) -> str:
    """A braid text that free reduction changes: cancelling pairs, runs
    split over two tokens (``s1 s1^1``, ``t2^2 t2^-3``, ``s1^3 s1^-1``),
    tokens ``1``, and big syllables ``s2^e ... s2^-e`` around a part that
    cancels or does not, between plain tokens; on three strands also whole
    relators, so that trivial words are common."""
    names = [f"{kind}{i}" for kind in (SIGMA, TAU) for i in range(1, strands)]
    relators = [str(relator) for relator in sg3_relators()] if strands == 3 else ["1"]
    tokens = []
    for _ in range(rng.randrange(1, 10)):
        name, e = rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 3))
        piece = rng.randrange(7)
        if piece == 0:
            tokens += [_token(name, e), _token(name, -e)]
        elif piece == 1:
            tokens += [_token(name, e), rng.choice((f"{name}^1", _token(name, rng.choice((-3, -2, -1, 2)))))]
        elif piece == 2:
            tokens.append("1")
        elif piece == 3:
            big, x = rng.choice((-1, 1)) * rng.randint(4, 300), rng.choice(names)
            middle = rng.choice(([x, f"{x}^-1"], ["1"], [], [_token(x, e)]))
            tokens += [_token(name, big), *middle, _token(name, -big)]
        elif piece == 4:
            tokens += rng.choice(relators).split()
        else:
            tokens.append(_token(name, e))
    return " ".join(tokens)


def exponent_sums(word: SPWord) -> dict[str, int]:
    """The exponent sum of each of the six SP_3 generators in a word."""
    sums = dict.fromkeys(SP_NAMES, 0)
    for letter in word.letters:
        sums[letter.name] += letter.exponent
    return sums


def braid_exponent_sums(letters) -> tuple[int, int]:
    """The crossing and the singular exponent sum of a sequence of
    ``Letter``s, counted one letter at a time; free reduction keeps both."""
    sigma = sum(letter.exponent for letter in letters if letter.kind == SIGMA)
    tau = sum(letter.exponent for letter in letters if letter.kind == TAU)
    return sigma, tau


def random_run_letters(rng: random.Random, strands: int = 3, max_runs: int = 12, max_exp: int = 4) -> list[Letter]:
    """Letters in runs of one generator, with exponents up to +-max_exp, so
    that ``BraidWord`` merges and cancels them as it reduces."""
    letters = []
    for _ in range(rng.randrange(max_runs + 1)):
        kind, index = rng.choice((SIGMA, TAU)), rng.randrange(1, strands)
        for _ in range(rng.randint(1, 4)):
            letters.append(Letter(kind, index, rng.choice((-1, 1)) * rng.randint(1, max_exp)))
    return letters
