"""Tests of the benchmark's own code: certificates, seeding, span arithmetic.

Run from the root of a checkout:  python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import singbraid as sb
from run import layer_metrics
from spans import Span, Tracer, covered, self_times
from workloads import (
    SG_RELATORS,
    WORKLOADS,
    certify_sg3,
    certify_sp3,
    exponent_sums,
    invert,
    matrix_image,
    permutation,
    render,
    tokens_of,
    word_stream,
)

IDENTITY = (1, 0, 0, 1)


def small(workload):
    """The same families at sizes where the engine answers in milliseconds."""
    bounds = (2, 40) if workload.size_unit == "|e|" else (4, 60)
    return dataclasses.replace(workload, main=bounds, large=bounds)


def test_tokens_round_trip_through_text():
    for workload in WORKLOADS.values():
        for word in itertools.islice(word_stream(small(workload), "main", 2), 9):
            assert render(tokens_of(word.text)) == word.text


def test_certificates_are_invariants_of_the_relators():
    for relator in SG_RELATORS:
        for word in (relator, invert(relator)):
            assert permutation(word) == (0, 1, 2)
            assert exponent_sums(word) == (0, 0)
            assert matrix_image(word, 1) == IDENTITY
            assert matrix_image(word, -1) == IDENTITY
            assert certify_sg3(word) is None
    for relator in sb.presentation_relators():
        assert certify_sp3(tokens_of(str(relator))) is None


def test_matrix_image_agrees_with_the_oracle_matrices():
    rng_words = word_stream(small(WORKLOADS["short-mixed"]), "main", 5)
    for word in itertools.islice(rng_words, 60):
        parsed = sb.parse_braid_word(word.text, 3)
        for sign, rule in ((1, "tau_to_sigma"), (-1, "tau_to_sigma_inverse")):
            image = sb.oracles.b3_matrix(sb.quotient_to_b3(parsed, rule))
            assert tuple(image) == matrix_image(tokens_of(word.text), sign)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_certificate_holds_on_small_sizes(name):
    workload = small(WORKLOADS[name])
    for word in itertools.islice(word_stream(workload, "main", 11), 90):
        tokens = tokens_of(word.text)
        if workload.group == "sp3":
            parsed = sb.parse_sp_word(word.text)
            assert sb.is_trivial_sp3(parsed) == word.trivial, word
            if not word.trivial:
                assert certify_sp3(tokens) == word.certificate
            continue
        parsed = sb.parse_braid_word(word.text, 3)
        assert sb.is_trivial_sg3(parsed) == word.trivial, word
        if word.trivial:
            assert word.certificate.startswith("trivial:")
            assert certify_sg3(tokens) is None
        elif word.certificate == "projection":
            assert not sb.pi(parsed).is_identity
        elif word.certificate == "exponent-sum":
            assert sb.exponent_sums(parsed) != (0, 0)
        else:
            rule = {"matrix(t->s)": "tau_to_sigma", "matrix(t->s^-1)": "tau_to_sigma_inverse"}
            assert not sb.b3_is_trivial(sb.quotient_to_b3(parsed, rule[word.certificate]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]
    for size_class in ("main", "large"):
        first = list(itertools.islice(word_stream(workload, size_class, 7), 12))
        again = list(itertools.islice(word_stream(workload, size_class, 7), 12))
        other = list(itertools.islice(word_stream(workload, size_class, 8), 12))
        assert first == again
        assert first != other


def test_families_take_turns_and_sizes_stay_in_bounds():
    for workload in WORKLOADS.values():
        words = list(itertools.islice(word_stream(workload, "main", 3), 2 * len(workload.families)))
        names = [f.__name__ for f in workload.families]
        assert [w.family for w in words] == names * 2
        low, high = workload.main
        for word in words:
            assert 0.8 * low <= word.size <= 1.1 * high, word.size


def test_covered_is_the_union_length():
    assert covered([]) == 0
    assert covered([(0, 10), (20, 30)]) == 20
    assert covered([(0, 10), (5, 15), (12, 14)]) == 15


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("bench.decide", 0, 100, -1, 0),
        Span("sp3.rewrite_to_sp3", 10, 60, 0, 0),
        Span("rewriting.rewrite_tau", 15, 35, 1, 0),
        Span("permutations.pi", 20, 25, 2, 0),
        Span("normal_form.britton_reduce", 70, 90, 0, 0),
    ]
    assert self_times(spans) == [30, 30, 15, 5, 20]
    metrics = layer_metrics(spans, {}, words=1)
    assert metrics["sp3.rewrite_to_sp3_ms"][0] == pytest.approx(50e-6)
    assert metrics["sp3.express_self_ms"][0] == pytest.approx(30e-6)
    assert metrics["sp3.self_ms"][0] == pytest.approx(30e-6)
    assert metrics["rewriting.self_ms"][0] == pytest.approx(15e-6)
    assert metrics["normal_form.self_ms"][0] == pytest.approx(20e-6)


def test_tracer_reaches_calls_between_modules_and_restores_them():
    original = sb.normal_form.rewrite_to_sp3
    tracer = Tracer({})
    with tracer.installed():
        verdict = tracer.span(
            "bench.decide", lambda: sb.is_trivial_sg3(sb.parse_braid_word("t1 s1 t1^-1 s1^-1", 3))
        )
    assert verdict is True
    assert sb.normal_form.rewrite_to_sp3 is original
    names = [span.name for span in tracer.spans]
    parent = {span.name: names[span.parent] if span.parent >= 0 else None for span in tracer.spans}
    assert parent["words.parse_braid_word"] == "bench.decide"
    assert parent["rewriting.rewrite_tau"] == "sp3.rewrite_to_sp3"
    assert parent["normal_form.britton_reduce"] == "normal_form.center_split"
    assert all(s.start <= s.end for s in tracer.spans)
