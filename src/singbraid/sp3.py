"""
The six-generator presentation of the 3-strand pure subgroup SP_3.

SP_3 is generated by

    a12 = s1^2          a13 = s2 s1^2 s2^-1      a23 = s2^2
    b12 = s1 t1         b13 = s2 s1 t1 s2^-1     b23 = s2 t2

subject to eight relations (see ``presentation_relators``).  An SP word
is a ``words.FreeWord``: it is reduced, multiplied, inverted, powered and
printed by the same free-group core as a braid word, and only checks its
letter names itself.  Every Schreier generator of SP_3 equals a short word
in these six letters: ``_EXPRESSION_ROWS`` holds the paper's literal rows,
named by representative and letter, and ``_MOVES``, the one table built
from them at import, holds the moves of ``rewriting.coset_table(3)`` with
each Schreier factor replaced by the letters of its row or of the row's
inverse, keyed like the coset table's ``unit_moves``; its builder refuses
rows that do not name each generator once.  ``rewrite_to_sp3``, the
table's one reader, turns a kernel word of SG_3 into an SP word with one
walk of ``rewriting.rewrite_tau`` over it, which emits the letters and no
Schreier factor, and one merge of the letters; a word outside the kernel
ends its walk off the trivial coset and is refused.  ``verify --rs``
expresses the rewritten relators through it, and ``verify --table`` reads
each row through it too, as the rewrite of its generator's ambient word,
whose walk emits that generator's row alone.  The merge builds the word
through ``SPWord._reduced``, which skips the check of each letter's name:
the rows are checked once, by ``verify --table``.
``parse_sp_word`` skips the check too, since its token pattern admits only
the six names, and builds its word through ``SPWord._parsed``, which keeps
the counted tokens and builds the letters only on the first read of
``letters``: the six sums of ``normal_form`` read the token counts.
Conjugation by the four ambient generators restricts to automorphisms of
SP_3: ``ACTION_TABLES`` holds the paper's rules for x -> g^-1 x g, and
``conjugate_by_sg3_generator`` computes any power of the action by
rewriting the conjugated ambient word, the same walk again, so
``verify --prop41`` checks the rules against that one path.
``sp3_to_sg3`` substitutes the defining words with ``words.substitute``.
The module imports no decision: the ``verify`` module checks all of the
data above against ``normal_form``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import rewriting
from .words import (
    _TOKEN_CACHE_SIZE,
    BraidWord,
    FreeWord,
    Letter,
    check_unit_length,
    conjugate,
    free_reduce,
    parse_braid_word,
    parse_number,
    parse_tokens,
    substitute,
)

A12, A13, A23 = "a12", "a13", "a23"
B12, B13, B23 = "b12", "b13", "b23"
SP_NAMES = (A12, A13, A23, B12, B13, B23)

_SP_TOKEN_RE = re.compile(rf"({'|'.join(SP_NAMES)})(?:\^(-?[1-9][0-9]*))?\Z")


class SPLetter(NamedTuple):
    """One of the six SP_3 generators raised to a nonzero power."""

    name: str
    exponent: int

    def inverse(self) -> SPLetter:
        return SPLetter(self.name, -self.exponent)

    def token(self) -> str:
        if self.exponent == 1:
            return self.name
        return f"{self.name}^{self.exponent}"


class SPWord(FreeWord):
    """A freely reduced word over the six SP_3 generators."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[SPLetter] = ()) -> None:
        letters = tuple(letters)
        for letter in letters:
            if letter.name not in SP_NAMES:
                raise ValueError(f"unknown SP_3 generator {letter.name!r}")
        self._store(free_reduce(letters))


def parse_sp_word(text: str) -> SPWord:
    """Parse the SP_3 word grammar (tokens a12 .. b23 with optional ``^<k>``,
    ``1`` for the empty word) into at most ``words.MAX_UNIT_LETTERS`` unit letters.
    The word keeps its counted tokens, and builds and freely reduces its
    letters on the first read of ``letters`` (see ``words.FreeWord``);
    exponents of more than ``words.MAX_DIGITS`` digits are refused unread."""
    tokens, bound = parse_tokens(text, _sp_letter)
    return check_unit_length(SPWord._parsed(tokens), bound)


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _sp_letter(token: str) -> SPLetter:
    """The letter of one SP_3 token, or ``ValueError`` for a token that does
    not match or an exponent of too many digits.  Cached per token; an
    error is not."""
    match = _SP_TOKEN_RE.match(token)
    if match is None:
        raise ValueError(f"bad token {token!r} in SP word")
    name, exponent = match.groups()
    return SPLetter(name, 1 if exponent is None else parse_number(exponent))


# The defining SG_3 words of the six generators, parsed once.
_SP_TO_SG = {
    A12: parse_braid_word("s1^2", 3),
    A13: parse_braid_word("s2 s1^2 s2^-1", 3),
    A23: parse_braid_word("s2^2", 3),
    B12: parse_braid_word("s1 t1", 3),
    B13: parse_braid_word("s2 s1 t1 s2^-1", 3),
    B23: parse_braid_word("s2 t2", 3),
}


def sp3_to_sg3(word: SPWord) -> BraidWord:
    """Substitute each SP_3 generator by its defining SG_3 word."""
    return BraidWord(3, substitute(word.letters, _SP_TO_SG))


# Every Schreier generator of SP_3, named by its representative and letter,
# as a word in the six letters.  The five generators with freely empty
# ambient words map to the empty word, and so does S[s2 s1, s2]: its ambient
# word is a conjugate of the braid relator, hence trivial as a group element.
_EXPRESSION_ROWS = {
    ("1", "s1"): "1",
    ("1", "s2"): "1",
    ("1", "t1"): "b12 a12^-1",
    ("1", "t2"): "b23 a23^-1",
    ("s1", "s1"): "a12",
    ("s1", "s2"): "1",
    ("s1", "t1"): "b12",
    ("s1", "t2"): "a23^-1 b13 a13^-1 a23",
    ("s2", "s1"): "1",
    ("s2", "s2"): "a23",
    ("s2", "t1"): "b13 a13^-1",
    ("s2", "t2"): "b23",
    ("s1 s2", "s1"): "1",
    ("s1 s2", "s2"): "a23^-1 a13 a23",
    ("s1 s2", "t1"): "b23 a23^-1",
    ("s1 s2", "t2"): "a23^-1 b13 a23",
    ("s2 s1", "s1"): "a13",
    ("s2 s1", "s2"): "1",
    ("s2 s1", "t1"): "b13",
    ("s2 s1", "t2"): "b12 a12^-1",
    ("s1 s2 s1", "s1"): "a23",
    ("s1 s2 s1", "s2"): "a12",
    ("s1 s2 s1", "t1"): "b23",
    ("s1 s2 s1", "t2"): "b12",
}


def _moves() -> dict[object, list[tuple[int, tuple[SPLetter, ...]]]]:
    """The moves of ``rewriting.coset_table(3)`` with SP_3 letters for
    Schreier factors, read from ``_EXPRESSION_ROWS`` when called: keyed
    like the table's ``unit_moves``, by unit letter and by unit token, then
    indexed by coset, each move holds the next coset and the letters of the
    rows, or of the inverse rows, of the factors that the same move of
    ``unit_moves`` emits.  ``RuntimeError`` unless the rows name each
    generator exactly once."""
    table = rewriting.coset_table(3)
    generators = [entry.generator for entry in table.generators]
    names = [(str(g.rep), g.letter.token()) for g in generators]
    if _EXPRESSION_ROWS.keys() != set(names):
        raise RuntimeError("the expression rows do not name each Schreier generator of SP_3 once")
    rows = [parse_sp_word(_EXPRESSION_ROWS[name]) for name in names]
    return {
        key: [(j, tuple(x for g, e in out for x in (rows[g.id] ** e).letters)) for j, out in moves]
        for key, moves in table.unit_moves.items()
    }


_MOVES = _moves()


def rewrite_to_sp3(word: BraidWord) -> SPWord:
    """Rewrite a kernel word of SG_3 as a word in the six SP_3 generators:
    the letters that ``rewriting.rewrite_tau`` emits on its walk through
    ``_MOVES``, the rows of its Schreier factors without the factors,
    freely reduced once.  ``ValueError`` for a word of another strand count
    or one whose walk ends off the trivial coset, a nontrivial projection."""
    if word.strands != 3:
        raise ValueError("SP_3 rewriting needs a 3-strand word")
    return SPWord._reduced(rewriting.rewrite_tau(word, _MOVES).factors)


def presentation_relators() -> list[SPWord]:
    """The eight defining relators of SP_3 over the six generators, each as
    left side times inverted right side."""
    equalities = [
        ("a12 a13 a12^-1", "a23^-1 a13 a23"),
        ("a12 a23 a12^-1", "a23^-1 a13^-1 a23 a13 a23"),
        ("a12 b12", "b12 a12"),
        ("a13 b13", "b13 a13"),
        ("a23 b23", "b23 a23"),
        ("b12 a13 a23 b12^-1", "a13 a23"),
        ("a12 b13 a12^-1", "a23^-1 b13 a23"),
        ("a12 b23 a12^-1", "a23^-1 a13^-1 b23 a13 a23"),
    ]
    return [
        parse_sp_word(left) * parse_sp_word(right).inverse()
        for left, right in equalities
    ]


def _action_tables() -> dict[str, dict[str, SPWord]]:
    """Images of the six generators under conjugation x -> g^-1 x g for
    g = s1, s2, t1, t2: the paper's data, checked by ``verify --prop41``."""
    forward = {
        "s1": {
            A12: "a12",
            A13: "a13 a23 a13^-1",
            A23: "a13",
            B12: "b12",
            B13: "a13 b23 a13^-1",
            B23: "b13",
        },
        "s2": {
            A12: "a23^-1 a13 a23",
            A13: "a12",
            A23: "a23",
            B12: "a23^-1 b13 a23",
            B13: "b12",
            B23: "b23",
        },
        "t1": {
            A12: "a12",
            A13: "b12^-1 a23 b12",
            A23: "b12^-1 a23^-1 a13 a23 b12",
            B12: "b12",
            B13: "b12^-1 b23 b12",
            B23: "b12^-1 a12 b13 a12^-1 b12",
        },
        "t2": {
            A12: "b23^-1 a13 b23",
            A13: "b23^-1 a23 a12 a23^-1 b23",
            A23: "a23",
            B12: "b23^-1 b13 b23",
            B13: "b23^-1 a23 b12 a23^-1 b23",
            B23: "b23",
        },
    }
    return {
        token: {name: parse_sp_word(text) for name, text in rows.items()}
        for token, rows in forward.items()
    }


ACTION_TABLES = _action_tables()


def conjugate_by_sg3_generator(word: SPWord, generator: Letter) -> SPWord:
    """Conjugate by an ambient generator power g^e: x -> g^-e x g^e.

    ``generator`` must be one of s1, s2, t1, t2 with any nonzero exponent.
    The word's SG_3 image is conjugated and rewritten by one coset-table
    walk (``rewrite_to_sp3``), so the cost is linear in |e| + |word|; the
    result is an equal word, not the letterwise image under
    ``ACTION_TABLES``.
    """
    token = f"{generator.kind}{generator.index}"
    if token not in ("s1", "s2", "t1", "t2") or generator.exponent == 0:
        raise ValueError(f"cannot conjugate by {generator.token()}")
    return rewrite_to_sp3(conjugate(sp3_to_sg3(word), BraidWord(3, (generator.inverse(),))))


class SP2Form(NamedTuple):
    """Normal form in SP_2, which is free abelian on a12 and b12."""

    a_exp: int
    b_exp: int

    @property
    def is_trivial(self) -> bool:
        return self == (0, 0)


def sp2_normal_form(word: SPWord) -> SP2Form:
    """Exponent-sum pair of a word over a12 and b12 only."""
    a_exp = b_exp = 0
    for letter in word.letters:
        if letter.name == A12:
            a_exp += letter.exponent
        elif letter.name == B12:
            b_exp += letter.exponent
        else:
            raise ValueError(f"{letter.name} is not an SP_2 generator")
    return SP2Form(a_exp, b_exp)
