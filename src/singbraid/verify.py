"""
Machine checks of the SP_3 presentation data against the decision engine.

``verify_presentation`` checks the paper's literal data in ``sp3`` with the
decisions of ``normal_form``: the 30 rewritten relators and the 8
presentation relators must be trivial, the 24 conjugation rules of
``sp3.ACTION_TABLES`` must hold, and the 19 rows of the expression table
whose generators have nonempty ambient words must agree with those words.
A row is read as ``sp3.rewrite_to_sp3`` of its generator's ambient word:
the walk of that word emits the generator alone, so the row checked is the
one the decisions read.  The rewritten relators are made here: each of the
five SG_3 relators, conjugated by each of the six transversal elements,
goes through ``sp3.rewrite_to_sp3``, so these 30 words over the six
letters present SP_3 by Reidemeister-Schreier rewriting.  This
is the one module that needs both the data and the decisions, so the data
modules never import the engine they feed.  Each suite is written once, as a
generator of (label, passed, witness) triples; one table maps each
``GROUP_*`` name to its suite.  The tables are read through ``sp3`` when a
suite runs, so a patched row is what gets checked.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from . import rewriting, sp3
from .normal_form import equal_sp3, is_trivial_sg3, is_trivial_sp3
from .words import concat, conjugate, parse_braid_word, sg3_relators

GROUP_REWRITTEN = "rewritten-relators"
GROUP_PRESENTATION = "presentation-relators"
GROUP_CONJUGATION = "conjugation-rules"
GROUP_EXPRESSION = "expression-table"


class Check(NamedTuple):
    group: str
    label: str
    passed: bool
    witness: str


def _check_rewritten_relators() -> Iterator[tuple[str, bool, str]]:
    for index, relator in enumerate(sg3_relators(), start=1):
        for rep in rewriting.coset_table(3).elements:
            expressed = sp3.rewrite_to_sp3(conjugate(relator, rep))
            yield f"r{index} @ {rep}", is_trivial_sp3(expressed), str(expressed)


def _check_presentation_relators() -> Iterator[tuple[str, bool, str]]:
    for i, relator in enumerate(sp3.presentation_relators(), start=1):
        yield f"relator {i}", is_trivial_sp3(relator), str(relator)


def _check_conjugation_rules() -> Iterator[tuple[str, bool, str]]:
    for token, rows in sp3.ACTION_TABLES.items():
        (generator,) = parse_braid_word(token, 3).letters
        for name, claimed in rows.items():
            letter = sp3.SPWord((sp3.SPLetter(name, 1),))
            computed = sp3.conjugate_by_sg3_generator(letter, generator)
            yield f"{name}^{token}", equal_sp3(computed, claimed), f"{computed} vs {claimed}"


def _check_expression_table() -> Iterator[tuple[str, bool, str]]:
    for entry in rewriting.coset_table(3).generators:
        if not entry.trivial:
            row = sp3.rewrite_to_sp3(entry.ambient)
            same = is_trivial_sg3(concat(sp3.sp3_to_sg3(row), entry.ambient.inverse()))
            yield str(entry.generator), same, f"{entry.generator} = {row}"


# Every suite in the order ``verify`` runs and prints them.
_SUITES = {
    GROUP_REWRITTEN: _check_rewritten_relators,
    GROUP_PRESENTATION: _check_presentation_relators,
    GROUP_CONJUGATION: _check_conjugation_rules,
    GROUP_EXPRESSION: _check_expression_table,
}


def verify_presentation(groups: Iterable[str] | None = None) -> tuple[Check, ...]:
    """Machine-check the presentation data against the decision engine.

    ``groups`` names suites by their ``GROUP_*`` constants, run in the
    order given; None runs all four (30 + 8 + 24 + 19 checks): triviality of the rewritten
    relators after expression through the six-letter table, triviality of
    the presentation relators, the conjugation formulas for all generator
    pairs, and agreement of the expression table with the ambient Schreier
    generator words.  The result is every check in that order, each
    tagged with its group.  An empty selection or an unknown name raises
    ``ValueError``: a run of no checks would pass vacuously.
    """
    names = tuple(_SUITES if groups is None else groups)
    if not names:
        raise ValueError("no check group selected")
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown check group {name!r}")
    return tuple(Check(name, *fields) for name in names for fields in _SUITES[name]())
