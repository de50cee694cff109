"""
Acceptance suite: one test per release criterion, each printing a PASS
line when it holds.  Every check is exact; the timed ones also assert
their wall-clock budget.
"""

import itertools
import math
import random
import time

from singbraid import (
    SPLetter,
    SPWord,
    center_split,
    coset_table,
    equal_sp3,
    is_trivial_sg3,
    parse_braid_word,
    parse_sp_word,
    pi,
    rewrite_tau,
    rewrite_to_sp3,
    sg3_necessary_trivial,
    sp2_normal_form,
)
from singbraid.cli import main as cli_main
from helpers import CENTER, random_pi_trivial, random_relator_product, random_word
from reference_reduction import expand

EXPECTED_GENERATOR_TABLE_N3 = [
    ("1", "s1", "1"),
    ("1", "s2", "1"),
    ("1", "t1", "t1 s1^-1"),
    ("1", "t2", "t2 s2^-1"),
    ("s1", "s1", "s1^2"),
    ("s1", "s2", "1"),
    ("s1", "t1", "s1 t1"),
    ("s1", "t2", "s1 t2 s2^-1 s1^-1"),
    ("s2", "s1", "1"),
    ("s2", "s2", "s2^2"),
    ("s2", "t1", "s2 t1 s1^-1 s2^-1"),
    ("s2", "t2", "s2 t2"),
    ("s1 s2", "s1", "1"),
    ("s1 s2", "s2", "s1 s2^2 s1^-1"),
    ("s1 s2", "t1", "s1 s2 t1 s1^-1 s2^-1 s1^-1"),
    ("s1 s2", "t2", "s1 s2 t2 s1^-1"),
    ("s2 s1", "s1", "s2 s1^2 s2^-1"),
    ("s2 s1", "s2", "s2 s1 s2 s1^-1 s2^-1 s1^-1"),
    ("s2 s1", "t1", "s2 s1 t1 s2^-1"),
    ("s2 s1", "t2", "s2 s1 t2 s1^-1 s2^-1 s1^-1"),
    ("s1 s2 s1", "s1", "s1 s2 s1^2 s2^-1 s1^-1"),
    ("s1 s2 s1", "s2", "s1 s2 s1 s2 s1^-1 s2^-1"),
    ("s1 s2 s1", "t1", "s1 s2 s1 t1 s2^-1 s1^-1"),
    ("s1 s2 s1", "t2", "s1 s2 s1 t2 s1^-1 s2^-1"),
]

EXPECTED_GENERATOR_TABLE_N2 = [
    ("1", "s1", "1"),
    ("1", "t1", "t1 s1^-1"),
    ("s1", "s1", "s1^2"),
    ("s1", "t1", "s1 t1"),
]


def test_criterion_1_transversals():
    assert [str(w) for w in coset_table(2).elements] == ["1", "s1"]
    assert [str(w) for w in coset_table(3).elements] == [
        "1",
        "s1",
        "s2",
        "s1 s2",
        "s2 s1",
        "s1 s2 s1",
    ]
    for n in (2, 3, 4, 5):
        transversal = coset_table(n)
        images = {pi(word).images for word in transversal.elements}
        assert len(images) == math.factorial(n)
    print("ACCEPTANCE 1: PASS transversals reproduced exactly, bijective up to n=5")


def test_criterion_2_generator_tables():
    got3 = [
        (str(e.generator.rep), e.generator.letter.token(), str(e.ambient))
        for e in coset_table(3).generators
    ]
    assert got3 == EXPECTED_GENERATOR_TABLE_N3
    assert sum(ambient == "1" for _, _, ambient in got3) == 5
    got2 = [
        (str(e.generator.rep), e.generator.letter.token(), str(e.ambient))
        for e in coset_table(2).generators
    ]
    assert got2 == EXPECTED_GENERATOR_TABLE_N2
    print("ACCEPTANCE 2: PASS generator tables match for n=2 and n=3")


def test_criterion_3_rewriting_soundness():
    rng = random.Random(2024)
    start = time.monotonic()
    for _ in range(1000):
        word = random_pi_trivial(rng, max_len=40)
        assert word.unit_length() <= 40
        assert expand(rewrite_tau(word), 3) == word
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"rewriting soundness took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3: PASS 1000 rewrites substitute back exactly ({elapsed:.2f}s)")


def test_criterion_4_presentation_verification(capsys):
    start = time.monotonic()
    code = cli_main(["verify", "--all"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert sum(line.startswith("PASS") for line in lines) == 81
    assert not any(line.startswith("FAIL") for line in lines)
    assert elapsed < 10.0, f"verification took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 4: PASS verify --all is 81/81 ({elapsed:.2f}s)")


def test_criterion_5_center():
    delta = CENTER
    for name in ("a12", "a13", "a23", "b12", "b13", "b23"):
        x = SPWord((SPLetter(name, 1),))
        assert equal_sp3(delta * x, x * delta)
    twist = rewrite_to_sp3(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
    assert equal_sp3(twist, delta)
    print("ACCEPTANCE 5: PASS the center commutes and equals the full twist")


def test_criterion_6_word_problem_consistency():
    rng = random.Random(2025)
    start = time.monotonic()
    decided_trivial = 0
    for _ in range(1000):
        word = random_relator_product(rng)
        assert is_trivial_sg3(word), f"relator product judged nontrivial: {word}"
        decided_trivial += 1

    refuted = 0
    while refuted < 1000:
        word = random_word(rng, max_len=40)
        if sg3_necessary_trivial(word):
            continue
        assert not is_trivial_sg3(word), f"oracle-refuted word judged trivial: {word}"
        # A kernel word with a nonzero exponent sum stops before the
        # reducer, so check the reducer's verdict on it as well.
        if pi(word).is_identity:
            assert not center_split(rewrite_to_sp3(word)).is_trivial, f"reducer judged trivial: {word}"
        refuted += 1

    for _ in range(1000):
        word = random_pi_trivial(rng)
        if is_trivial_sg3(word):
            assert sg3_necessary_trivial(word), f"engine contradicts oracle on {word}"

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"consistency run took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 6: PASS {decided_trivial} trivial and {refuted} nontrivial "
        f"words decided, engine never contradicts the oracle ({elapsed:.2f}s)"
    )


def test_criterion_7_hnn_discrimination():
    from singbraid import is_trivial_sp3

    stable = parse_sp_word("b12")
    for k in range(-10, 11):
        c_power = parse_sp_word("a13 a23") ** k
        word = stable.inverse() * c_power * stable * c_power**-1
        assert is_trivial_sp3(word), f"c^{k} commutator judged nontrivial"
    for k in [k for k in range(-10, 11) if k != 0]:
        a_power = parse_sp_word("a13") ** k
        word = stable.inverse() * a_power * stable * a_power**-1
        assert not is_trivial_sp3(word), f"a13^{k} commutator judged trivial"
    print("ACCEPTANCE 7: PASS associated-subgroup boundary at |k| <= 10")


def test_criterion_8_sp2_exhaustive():
    unit_letters = [
        SPLetter("a12", 1),
        SPLetter("a12", -1),
        SPLetter("b12", 1),
        SPLetter("b12", -1),
    ]
    checked = 0
    for length in range(9):
        for combo in itertools.product(unit_letters, repeat=length):
            # Independent oracle: count signed letters directly.
            a_sum = sum(l.exponent for l in combo if l.name == "a12")
            b_sum = sum(l.exponent for l in combo if l.name == "b12")
            form = sp2_normal_form(SPWord(combo))
            assert form == (a_sum, b_sum)
            assert form.is_trivial == (a_sum == 0 and b_sum == 0)
            checked += 1
    assert checked == sum(4**length for length in range(9))
    print(f"ACCEPTANCE 8: PASS SP_2 decision matches brute force on {checked} words")
