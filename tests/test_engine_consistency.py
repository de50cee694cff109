"""
Cross-validation of the decision engine against independent ground truth
on subgroups where the answer is known by elementary means.
"""

import random

from singbraid import (
    BraidWord,
    SPLetter,
    SPWord,
    center_split,
    concat,
    conjugate,
    equal_sp3,
    is_trivial_sg3,
    is_trivial_sp3,
    parse_sp_word,
    presentation_relators,
    rewrite_to_sp3,
    sg3_relators,
    sp2_normal_form,
)
from helpers import exponent_sums, random_pi_trivial, random_sp_word, random_word, unit_letters


def restricted_word(rng, names, max_len=30):
    letters = tuple(
        SPLetter(rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randrange(max_len))
    )
    return SPWord(letters)


def test_engine_matches_rank_two_abelian_factors():
    # Inside either free factor the group is Z^2, so triviality is just
    # exponent bookkeeping.
    rng = random.Random(601)
    for names in (("a13", "b13"), ("a23", "b23")):
        for _ in range(300):
            word = restricted_word(rng, names)
            expected = not any(exponent_sums(word).values())
            assert is_trivial_sp3(word) == expected
            # Words with a nonzero sum stop before the reducer; check it too.
            assert center_split(word).is_trivial == expected


def test_engine_matches_sp2_plane():
    # Words over a12 and b12 live in the Z^2 spanned by the center split
    # and the stable letter; this exercises the d-extraction and the
    # pinches at once.
    rng = random.Random(607)
    for _ in range(500):
        word = restricted_word(rng, ("a12", "b12"))
        assert is_trivial_sp3(word) == sp2_normal_form(word).is_trivial
        assert center_split(word).is_trivial == sp2_normal_form(word).is_trivial


def test_engine_matches_free_group_on_a_letters():
    # a13 and a23 generate a rank-two free subgroup of the free product, so
    # a reduced nonempty word over them is never trivial.
    rng = random.Random(613)
    for _ in range(300):
        word = restricted_word(rng, ("a13", "a23"))
        assert is_trivial_sp3(word) == word.is_empty


def test_nonzero_letter_sum_is_never_trivial():
    # Every defining relator balances each generator separately, so the six
    # exponent sums are invariants; the engine must refute any word that
    # fails one, and so must the reducer, which is_trivial_sp3 does not
    # call for such a word.
    rng = random.Random(617)
    checked = 0
    while checked < 300:
        word = random_sp_word(rng, max_len=30)
        if not any(exponent_sums(word).values()):
            continue
        assert not is_trivial_sp3(word)
        assert not center_split(word).is_trivial
        checked += 1


def test_equal_after_relator_insertion():
    rng = random.Random(619)
    relators = presentation_relators()
    for _ in range(200):
        word = random_sp_word(rng, max_len=16)
        cut = rng.randrange(len(word.letters) + 1)
        head = SPWord(word.letters[:cut])
        tail = SPWord(word.letters[cut:])
        conjugator = random_sp_word(rng, max_len=6)
        relator = rng.choice(relators)
        padded = head * conjugator * relator * conjugator.inverse() * tail
        assert equal_sp3(padded, word)


def test_sg3_triviality_survives_relator_insertion():
    rng = random.Random(631)
    relators = sg3_relators()
    for _ in range(200):
        word = random_pi_trivial(rng, max_len=24)
        units = unit_letters(word)
        cut = rng.randrange(len(units) + 1)
        insert = conjugate(rng.choice(relators), random_word(rng, max_len=6))
        padded = concat(
            concat(BraidWord(3, tuple(units[:cut])), insert),
            BraidWord(3, tuple(units[cut:])),
        )
        assert is_trivial_sg3(concat(padded, word.inverse()))


def test_sg3_decision_is_conjugation_invariant():
    rng = random.Random(641)
    for _ in range(150):
        word = random_pi_trivial(rng, max_len=20)
        moved = conjugate(word, random_word(rng, max_len=8))
        assert is_trivial_sg3(moved) == is_trivial_sg3(word)
        # Most of these words stop at the crossing and singular exponent
        # sums, so the rewrite and the reducer are compared on their own.
        reduced = center_split(rewrite_to_sp3(moved)).is_trivial
        assert reduced == center_split(rewrite_to_sp3(word)).is_trivial


def test_heavy_stable_letter_words_reduce_soundly():
    from singbraid import britton_reduce
    from singbraid.normal_form import cyclic_power_of_c

    rng = random.Random(643)
    names = ("a13", "a23", "b12", "b12", "b13", "b23")
    for _ in range(200):
        letters = tuple(
            SPLetter(rng.choice(names), rng.choice((-1, 1)))
            for _ in range(rng.randrange(60))
        )
        word = SPWord(letters)
        form = britton_reduce(word)
        assert equal_sp3(form.sp_word(), word)
        for i in range(1, len(form.bases) - 1):
            assert form.bases[i]
            if (form.powers[i - 1] > 0) != (form.powers[i] > 0):
                assert cyclic_power_of_c(form.bases[i]) is None


def test_equality_respects_multiplication():
    rng = random.Random(647)
    delta = parse_sp_word("a12 a13 a23")
    shifted = parse_sp_word("a13 a23 a12")
    for _ in range(100):
        word = random_sp_word(rng, max_len=12)
        assert equal_sp3(delta * word, shifted * word)
        assert equal_sp3(word * delta, word * shifted)


def test_equality_is_symmetric_and_reflexive():
    rng = random.Random(653)
    for _ in range(100):
        u = random_sp_word(rng, max_len=12)
        v = random_sp_word(rng, max_len=12)
        assert equal_sp3(u, u)
        assert equal_sp3(u, v) == equal_sp3(v, u)
