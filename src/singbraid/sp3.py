"""
The six-generator presentation of the 3-strand pure subgroup SP_3.

SP_3 is generated by

    a12 = s1^2          a13 = s2 s1^2 s2^-1      a23 = s2^2
    b12 = s1 t1         b13 = s2 s1 t1 s2^-1     b23 = s2 t2

subject to eight relations (see ``presentation_relators``).  An SP word
is a ``words.FreeWord``: it is reduced, multiplied, inverted, powered and
printed by the same free-group core as a braid word, and only checks its
letter names itself.  Every Schreier generator of SP_3 equals a short word
in these six letters; the lookup lives in ``EXPRESSION_TABLE``.  At import
each Schreier factor S^+-1 is mapped to the letters of its row or of the
row's inverse, and ``_express`` reads those rows: ``rewrite_to_sp3`` turns
a kernel word of SG_3 into an SP word with one coset-table walk of
``rewriting.rewrite_tau``, one lookup per factor and one merge of the
letters, and ``verify --rs`` expresses the rewritten relators the same
way.  Conjugation by the four ambient generators restricts to
automorphisms of SP_3 (``conjugate_by_sg3_generator``); their rules are
tabulated, the rules of the inverse automorphisms are solved from them,
and both are applied with ``words.substitute``, as is ``sp3_to_sg3``.

``verify_presentation`` machine-checks all of the above against the
normal-form engine: the 30 rewritten relators and the 8 presentation
relators must be trivial, the 24 conjugation formulas must hold, and the
expression table must agree with the ambient generator words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import rewriting
from .words import (
    BraidWord,
    FreeWord,
    Letter,
    check_unit_length,
    concat,
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

_SP_TOKEN_RE = re.compile(r"([ab](?:12|13|23))(?:\^(-?[1-9][0-9]*))?\Z")


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


@dataclass(frozen=True)
class SPWord(FreeWord):
    """A freely reduced word over the six SP_3 generators."""

    letters: tuple[SPLetter, ...] = ()

    def __post_init__(self) -> None:
        for letter in self.letters:
            if letter.name not in SP_NAMES:
                raise ValueError(f"unknown SP_3 generator {letter.name!r}")
        object.__setattr__(self, "letters", free_reduce(self.letters))


def parse_sp_word(text: str) -> SPWord:
    """Parse the SP_3 word grammar (tokens a12 .. b23 with optional ``^<k>``,
    ``1`` for the empty word) into at most ``words.MAX_UNIT_LETTERS`` unit letters;
    exponents of more than ``words.MAX_DIGITS`` digits are refused unread."""

    def letter(match: re.Match) -> SPLetter:
        name, exponent = match.groups()
        return SPLetter(name, 1 if exponent is None else parse_number(exponent))

    return check_unit_length(SPWord(parse_tokens(text, _SP_TOKEN_RE, "SP", letter)))


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


def _schreier_generator(rep_text: str, letter_token: str) -> rewriting.SchreierGenerator:
    (letter,) = parse_braid_word(letter_token, 3).letters
    return rewriting.SchreierGenerator(parse_braid_word(rep_text, 3), letter)


def _expression_table() -> dict[rewriting.SchreierGenerator, SPWord]:
    """Every Schreier generator of SP_3 as a word in the six letters.

    The five generators with freely empty ambient words map to the empty
    word, and so does S[s2 s1, s2]: its ambient word is a conjugate of the
    braid relator, hence trivial as a group element.
    """
    rows = {
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
    return {
        _schreier_generator(rep, letter): parse_sp_word(text)
        for (rep, letter), text in rows.items()
    }


EXPRESSION_TABLE = _expression_table()


def express_schreier_gen(generator: rewriting.SchreierGenerator) -> SPWord:
    """Look up a Schreier generator in the six-letter expression table."""
    try:
        return EXPRESSION_TABLE[generator]
    except KeyError:
        raise ValueError(f"unknown Schreier generator {generator}") from None


def _factor_rows() -> dict:
    """Each Schreier factor (generator, +-1) of SP_3 mapped to the letters
    of its row of ``EXPRESSION_TABLE``, or of the row's inverse, read when
    called.

    The factor objects of ``rewriting.coset_table(3)`` go in first, so they
    are the keys: a factor the walk emits is then found by identity, without
    comparing generator words.  Equal factors built elsewhere still find
    their rows by value.
    """
    by_value = {(g, e): (row**e).letters for g, row in EXPRESSION_TABLE.items() for e in (1, -1)}
    rows = {}
    for _, out in rewriting.coset_table(3).values():
        for factor in out:
            rows[factor] = by_value[factor]
    for factor, letters in by_value.items():
        rows.setdefault(factor, letters)
    return rows


_FACTOR_ROWS = _factor_rows()


def _express(factors: Iterable[tuple[rewriting.SchreierGenerator, int]]) -> SPWord:
    """Substitute each Schreier factor by its row, or the inverse of the
    row, and freely reduce the whole word once."""
    # A list, not a generator: tuple() over a generator grows by resizing,
    # which raised peak memory by about 1 MB over 30k short words.
    return SPWord(tuple([letter for factor in factors for letter in _FACTOR_ROWS[factor]]))


def rewrite_to_sp3(word: BraidWord) -> SPWord:
    """Rewrite a kernel word of SG_3 as a word in the six SP_3 generators:
    ``rewrite_tau``'s Schreier factors, each replaced by its row, merged
    once."""
    if word.strands != 3:
        raise ValueError("SP_3 rewriting needs a 3-strand word")
    return _express(rewriting.rewrite_tau(word).factors)


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


def _inverse_rules(forward: dict[str, SPWord]) -> dict[str, SPWord]:
    """Solve an automorphism's rules x -> u y^e u^-1, e = +-1, for its
    inverse psi: psi(y) = psi(u)^-1 x^e psi(u) once psi is known on the
    letters of u.  Each round solves every rule it can."""
    pending: dict[str, tuple[SPLetter, SPWord]] = {}
    for x, image in forward.items():
        letters, half = image.letters, len(image.letters) // 2
        u = SPWord(letters[:half])
        if not letters or abs(letters[half].exponent) != 1 or letters[half + 1 :] != u.inverse().letters:
            raise ValueError(f"{x} -> {image} does not conjugate a single letter")
        y, exponent = letters[half]
        if y in pending:
            raise ValueError(f"two rules conjugate {y}")
        pending[y] = (SPLetter(x, exponent), u)
    inverse: dict[str, SPWord] = {}
    while pending:
        ready = [y for y, (_, u) in pending.items() if all(l.name in inverse for l in u.letters)]
        if not ready:
            raise ValueError(f"cannot solve the rules for {', '.join(pending)}")
        for y in ready:
            x, u = pending.pop(y)
            image_u = SPWord(substitute(u.letters, inverse))
            inverse[y] = SPWord(image_u.inverse().letters + (x,) + image_u.letters)
    return inverse


def _action_tables() -> dict[tuple[str, int], dict[str, SPWord]]:
    """Images of the six generators under conjugation x -> g^-1 x g.

    The four positive directions are the paper's data, checked by
    ``verify --prop41``; each inverse direction x -> g x g^-1 is solved
    from its forward rules by ``_inverse_rules``.
    """
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
    tables: dict[tuple[str, int], dict[str, SPWord]] = {}
    for token, rows in forward.items():
        tables[(token, 1)] = {name: parse_sp_word(text) for name, text in rows.items()}
        tables[(token, -1)] = _inverse_rules(tables[(token, 1)])
    return tables


ACTION_TABLES = _action_tables()


def conjugate_by_sg3_generator(word: SPWord, generator: Letter) -> SPWord:
    """Apply x -> g^-1 x g letterwise for an ambient generator g.

    ``generator`` must be one of s1, s2, t1, t2 with any nonzero exponent;
    exponents of magnitude above one apply the unit action repeatedly.
    """
    token = f"{generator.kind}{generator.index}"
    if token not in ("s1", "s2", "t1", "t2") or generator.exponent == 0:
        raise ValueError(f"cannot conjugate by {generator.token()}")
    table = ACTION_TABLES[(token, 1 if generator.exponent > 0 else -1)]
    for _ in range(abs(generator.exponent)):
        word = SPWord(substitute(word.letters, table))
    return word


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


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class CheckGroup:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> int:
        return sum(check.passed for check in self.checks)

    @property
    def total(self) -> int:
        return len(self.checks)


@dataclass(frozen=True)
class VerificationReport:
    groups: tuple[CheckGroup, ...]

    @property
    def passed(self) -> int:
        return sum(group.passed for group in self.groups)

    @property
    def total(self) -> int:
        return sum(group.total for group in self.groups)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def failures(self) -> list[tuple[str, Check]]:
        return [
            (group.name, check)
            for group in self.groups
            for check in group.checks
            if not check.passed
        ]


GROUP_REWRITTEN = "rewritten-relators"
GROUP_PRESENTATION = "presentation-relators"
GROUP_CONJUGATION = "conjugation-rules"
GROUP_EXPRESSION = "expression-table"


def _check_rewritten_relators(is_trivial_sp3) -> CheckGroup:
    checks = []
    for rewrite in rewriting.relator_rewrites():
        expressed = _express(rewrite.word.factors)
        checks.append(
            Check(
                label=f"r{rewrite.relator_index} @ {rewrite.rep}",
                passed=is_trivial_sp3(expressed),
                witness=str(expressed),
            )
        )
    return CheckGroup(GROUP_REWRITTEN, tuple(checks))


def _check_presentation_relators(is_trivial_sp3) -> CheckGroup:
    checks = [
        Check(label=f"relator {i}", passed=is_trivial_sp3(relator), witness=str(relator))
        for i, relator in enumerate(presentation_relators(), start=1)
    ]
    return CheckGroup(GROUP_PRESENTATION, tuple(checks))


def _check_conjugation_rules(equal_sp3) -> CheckGroup:
    checks = []
    for token in ("s1", "s2", "t1", "t2"):
        inverse = parse_braid_word(token, 3).inverse()
        for name in SP_NAMES:
            claimed = ACTION_TABLES[(token, 1)][name]
            x = sp3_to_sg3(SPWord((SPLetter(name, 1),)))
            computed = rewrite_to_sp3(conjugate(x, inverse))
            checks.append(
                Check(
                    label=f"{name}^{token}",
                    passed=equal_sp3(computed, claimed),
                    witness=f"{computed} vs {claimed}",
                )
            )
    return CheckGroup(GROUP_CONJUGATION, tuple(checks))


def _check_expression_table(is_trivial_sg3) -> CheckGroup:
    checks = []
    for entry in rewriting.enumerate_generators(3):
        if entry.trivial:
            continue
        row = express_schreier_gen(entry.generator)
        difference = concat(sp3_to_sg3(row), entry.ambient.inverse())
        checks.append(
            Check(
                label=str(entry.generator),
                passed=is_trivial_sg3(difference),
                witness=f"{entry.generator} = {row}",
            )
        )
    return CheckGroup(GROUP_EXPRESSION, tuple(checks))


def verify_presentation(groups: Iterable[str] | None = None) -> VerificationReport:
    """Machine-check the presentation data against the decision engine.

    Runs four suites (30 + 8 + 24 + 19 checks): triviality of the
    rewritten relators after expression through the six-letter table,
    triviality of the presentation relators, the conjugation formulas for
    all generator pairs, and agreement of the expression table with the
    ambient Schreier generator words.
    """
    from .normal_form import equal_sp3, is_trivial_sg3, is_trivial_sp3

    wanted = (
        (GROUP_REWRITTEN, GROUP_PRESENTATION, GROUP_CONJUGATION, GROUP_EXPRESSION)
        if groups is None
        else tuple(groups)
    )
    builders = {
        GROUP_REWRITTEN: lambda: _check_rewritten_relators(is_trivial_sp3),
        GROUP_PRESENTATION: lambda: _check_presentation_relators(is_trivial_sp3),
        GROUP_CONJUGATION: lambda: _check_conjugation_rules(equal_sp3),
        GROUP_EXPRESSION: lambda: _check_expression_table(is_trivial_sg3),
    }
    report_groups = []
    for name in wanted:
        if name not in builders:
            raise ValueError(f"unknown check group {name!r}")
        report_groups.append(builders[name]())
    return VerificationReport(tuple(report_groups))
