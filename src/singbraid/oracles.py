"""
Independent necessary conditions for triviality in SG_3.

Sending every singular letter t_i to s_i (or to s_i^-1) respects all five
defining relations, so each substitution is a homomorphism onto the
3-strand braid group; that is re-checked once per process and any failure
raises.  Braid words on three strands are decided through the classical
2x2 integer matrix representation s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]],
whose kernel is generated by the fourth power of the half twist; since
that element has exponent sum 12, a braid word is trivial exactly when its
matrix image is the identity and its exponent sum is zero.  Both
generators are unipotent, so their powers have closed forms,
s1^e = [[1,e],[0,1]] and s2^e = [[1,0],[-e,1]], and ``b3_matrix`` reads each
syllable with one row operation however large its exponent.

These checks can refute equality but never certify it (both quotients
collapse the singular letters), so the decision engine in ``normal_form``
remains the authority; the test suite couples the two directions.

Arithmetic uses Python integers, so entries stay exact at any word length.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .permutations import pi
from .words import SIGMA, TAU, BraidWord, Letter, exponent_sums, sg3_relators

TAU_TO_SIGMA = "tau_to_sigma"
TAU_TO_SIGMA_INVERSE = "tau_to_sigma_inverse"
TAU_RULES = (TAU_TO_SIGMA, TAU_TO_SIGMA_INVERSE)


class IntMatrix2(NamedTuple):
    """A 2x2 integer matrix in row-major order."""

    a: int
    b: int
    c: int
    d: int


IDENTITY = IntMatrix2(1, 0, 0, 1)


def _substitute(word: BraidWord, tau_rule: str) -> BraidWord:
    if tau_rule not in TAU_RULES:
        raise ValueError(f"unknown tau rule {tau_rule!r}")
    flip = -1 if tau_rule == TAU_TO_SIGMA_INVERSE else 1
    letters = tuple(
        Letter(SIGMA, l.index, l.exponent if l.kind == SIGMA else flip * l.exponent)
        for l in word.letters
    )
    return BraidWord(word.strands, letters)


@cache
def _homomorphy_audit() -> bool:
    """Both substitutions must kill every defining relator of SG_3."""
    for relator in sg3_relators():
        for rule in TAU_RULES:
            image = _substitute(relator, rule)
            if not b3_is_trivial(image):
                raise RuntimeError(
                    f"tau substitution {rule} breaks relator {relator}"
                )
    return True


def quotient_to_b3(word: BraidWord, tau_rule: str) -> BraidWord:
    """Image of a 3-strand word under t_i -> s_i or t_i -> s_i^-1."""
    if word.strands != 3:
        raise ValueError("the braid-group quotients are set up for 3 strands")
    _homomorphy_audit()
    return _substitute(word, tau_rule)


def b3_matrix(word: BraidWord) -> IntMatrix2:
    """Multiply out the matrix image of a 3-strand crossing-only word, one
    closed-form power per syllable."""
    if word.strands != 3:
        raise ValueError("the matrix image is set up for 3 strands")
    a, b, c, d = IDENTITY
    for letter in word.letters:
        if letter.kind == TAU:
            raise ValueError("matrix image is defined for crossing letters only")
        e = letter.exponent
        if letter.index == 1:
            b, d = a * e + b, c * e + d
        else:
            a, c = a - b * e, c - d * e
    return IntMatrix2(a, b, c, d)


def b3_is_trivial(word: BraidWord) -> bool:
    """Exact triviality test for 3-strand braid words."""
    if word.strands != 3:
        raise ValueError("the braid-group test is set up for 3 strands")
    sigma_sum, _ = exponent_sums(word)
    return sigma_sum == 0 and b3_matrix(word) == IDENTITY


def sg3_necessary_trivial(word: BraidWord) -> bool:
    """All cheap invariants at once: trivial projection, balanced exponent
    sums, and trivial image in both braid-group quotients.  A False here
    certifies the word is nontrivial in SG_3; a True decides nothing."""
    if word.strands != 3:
        raise ValueError("the oracle is set up for 3 strands")
    if not pi(word).is_identity:
        return False
    sigma_sum, tau_sum = exponent_sums(word)
    if sigma_sum != 0 or tau_sum != 0:
        return False
    return all(
        b3_is_trivial(quotient_to_b3(word, rule)) for rule in TAU_RULES
    )


def oracle_report(word: BraidWord) -> list[tuple[str, str]]:
    """Per-invariant verdicts for the CLI table."""
    sigma_sum, tau_sum = exponent_sums(word)
    rows = [
        ("projection", "trivial" if pi(word).is_identity else "nontrivial"),
        ("crossing-sum", str(sigma_sum)),
        ("singular-sum", str(tau_sum)),
    ]
    for rule, label in ((TAU_TO_SIGMA, "b3-image(t->s)"), (TAU_TO_SIGMA_INVERSE, "b3-image(t->s^-1)")):
        verdict = "trivial" if b3_is_trivial(quotient_to_b3(word, rule)) else "nontrivial"
        rows.append((label, verdict))
    rows.append(
        ("necessary-trivial", "yes" if sg3_necessary_trivial(word) else "no")
    )
    return rows
