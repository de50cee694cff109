"""The paper's data follows from the five defining relators of SG_3: every
presentation relator of SP_3, expression row and conjugation rule derives
by ``derivations.derive``, and the derivation replays, through free
reduction alone and without any decision of the engine."""

import sys
from pathlib import Path

import pytest

import derivations
from derivations import derive, replay, row_claim, rule_claim

ENGINE = Path(derivations.sp3.__file__).parent


def derive_all(claims: dict) -> dict:
    """Each claim's derivation, asserting that each replays."""
    derived = {label: derive(claim) for label, claim in claims.items()}
    replayed = {label for label, steps in derived.items() if steps is not None and replay(claims[label], steps)}
    assert replayed == set(claims), set(claims) - replayed
    return derived


def test_presentation_relators_derive_from_the_sg3_relators():
    derived = derive_all(derivations.relator_claims())
    assert len(derived) == 8
    assert all(2 <= len(steps) <= 8 for steps in derived.values())


def test_expression_rows_derive_from_the_sg3_relators():
    # 19 rows name generators whose ambient words are not freely empty; 13
    # of them are not the ambient word spelled in the six letters, and take
    # at least one step.
    derived = derive_all(derivations.row_claims())
    assert len(derived) == 24
    assert sum(map(bool, derived.values())) == 13
    assert max(map(len, derived.values())) <= 3


def test_conjugation_rules_derive_from_the_sg3_relators():
    derived = derive_all(derivations.rule_claims())
    assert len(derived) == 24
    assert max(map(len, derived.values())) <= 4


def test_derivations_call_no_decision():
    # Traced apart from the tests above: a traced search runs about 20 times
    # slower, and a false claim runs it to its bound.
    called = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if Path(code.co_filename) == ENGINE / "normal_form.py" or code.co_name == "rewrite_tau":
            called.add(f"{Path(code.co_filename).stem}.{code.co_name}")

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for claims in (derivations.relator_claims, derivations.row_claims, derivations.rule_claims):
            derive_all(claims())
    finally:
        sys.settrace(previous)
    assert not called, called


@pytest.mark.parametrize(
    "claim",
    [
        # The row of S[s2,t1] with a13 for a13^-1, as in the named mutant
        # expression-row-corrupt: its crossing sum is 4.
        row_claim("s2", "t1", "b13 a13"),
        # a13^s2 is a12; a23 balances every sum that a12 does.
        rule_claim("s2", "a13", "a23"),
    ],
)
def test_a_false_claim_finds_no_derivation(claim):
    assert derive(claim) is None


def test_replay_rejects_a_dropped_or_shifted_step():
    claims = {**derivations.relator_claims(), **derivations.row_claims(), **derivations.rule_claims()}
    derived = {label: derive(claim) for label, claim in claims.items()}
    tried = 0
    for label, steps in derived.items():
        for i, (position, *rest) in enumerate(steps):
            for mutated in (steps[:i] + steps[i + 1 :], [*steps[:i], (position + 1, *rest), *steps[i + 1 :]]):
                assert not replay(claims[label], mutated), (label, mutated)
                tried += 1
    assert tried > 100
