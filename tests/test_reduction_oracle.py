"""Differential tests: the stack-based reducer, the coset-table
``rewrite_tau`` and the single-merge ``rewrite_to_sp3`` against the composed
reduction, the ``Permutation``-based rewriter and the left fold they
replaced (``reference_reduction``).  Forms, renderings and verdicts must be
identical, not only equal as group elements."""

import random

from singbraid import (
    SPLetter,
    SPWord,
    britton_reduce,
    center_split,
    eliminate_a12,
    is_trivial_sp3,
    parse_sp_word,
    rewrite_tau,
    rewrite_to_sp3,
)
import reference_reduction as reference
from helpers import random_kernel_word, random_pi_trivial, random_relator_product, random_sp_word

C = parse_sp_word("a13 a23")
B12 = parse_sp_word("b12")
BASE_NAMES = ("a13", "a23", "b13", "b23")


def assert_same_reduction(word: SPWord) -> None:
    delta_exp, residual = eliminate_a12(word)
    expected = reference.britton_reduce(residual)
    assert britton_reduce(residual) == expected, str(word)
    split = center_split(word)
    assert split.v == expected, str(word)
    assert str(split) == f"d^{delta_exp} | {expected}", str(word)
    assert is_trivial_sp3(word) == (delta_exp == 0 and expected.is_trivial), str(word)


def base_letter(rng: random.Random) -> SPWord:
    return SPWord((SPLetter(rng.choice(BASE_NAMES), rng.choice((-1, 1))),))


def test_random_words_match_reference():
    rng = random.Random(401)
    for _ in range(20000):
        assert_same_reduction(random_sp_word(rng, max_len=40))


def test_a12_heavy_words_match_reference():
    rng = random.Random(409)
    names = ("a12", "a12", "a12", "a13", "a23", "b12", "b13", "b23")
    for _ in range(2000):
        letters = tuple(
            SPLetter(rng.choice(names), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randrange(30))
        )
        assert_same_reduction(SPWord(letters))


def test_piece_words_match_reference():
    # Pieces that make empty bases and c-power bases common, so merges and
    # pinches meet in every order; a single pass that pinches before the
    # merges to its right returns a different form on these.
    pieces = [
        parse_sp_word(text)
        for text in (
            "b12", "b12^-1", "b12^2", "b12^-2", "a13 a23", "a23^-1 a13^-1",
            "a13", "a13^-1", "a23", "b13", "b23^-1",
            "a13 b13 a13^-1 b13^-1", "a12", "a12^-1",
        )
    ]
    rng = random.Random(419)
    for _ in range(5000):
        word = SPWord()
        for _ in range(rng.randrange(25)):
            word = word * rng.choice(pieces)
        assert_same_reduction(word)


def test_pinch_towers_match_reference():
    rng = random.Random(421)
    for s in (-2, -1, 1, 2):
        for k in (-2, -1, 1, 2):
            for m in range(1, 9):
                tower = (B12**s * C**k) ** m * B12 ** (-s * m) * C ** (-k * m)
                assert is_trivial_sp3(tower)
                assert_same_reduction(tower)
                u = random_sp_word(rng, max_len=4)
                assert_same_reduction(u * tower * u.inverse())
                assert_same_reduction(u * tower * base_letter(rng) * u.inverse())


def test_single_pinches_match_reference():
    rng = random.Random(431)
    for _ in range(1000):
        s, k = rng.choice((-2, -1, 1, 2)), rng.choice((-3, -1, 1, 3))
        word = random_sp_word(rng, max_len=6)
        for _ in range(rng.randrange(1, 6)):
            word = word * B12**s * C**k * B12 ** (-s) * base_letter(rng)
        assert_same_reduction(word)


def test_pinch_free_words_match_reference():
    rng = random.Random(433)
    for _ in range(1000):
        word = SPWord()
        for _ in range(rng.randrange(1, 10)):
            s = rng.choice((-1, 1))
            word = word * B12**s * base_letter(rng) * B12 ** (-s) * base_letter(rng)
        assert_same_reduction(word)
        assert britton_reduce(word).stable_letter_count() == sum(
            abs(letter.exponent) for letter in word.letters if letter.name == "b12"
        )


def test_rewrite_to_sp3_matches_left_fold():
    rng = random.Random(439)
    for _ in range(500):
        word = random_pi_trivial(rng, max_len=120)
        assert rewrite_to_sp3(word) == reference.rewrite_to_sp3(word)
    for _ in range(100):
        word = random_relator_product(rng)
        assert rewrite_to_sp3(word) == reference.rewrite_to_sp3(word)
    for _ in range(500):
        word = random_kernel_word(rng, max_len=30, max_exp=5)
        assert rewrite_to_sp3(word) == reference.rewrite_to_sp3(word), str(word)


def test_rewrite_tau_matches_permutation_rewriter():
    # Short exponents, then long syllables, which the walk steps through
    # with one unit letter per syllable.
    rng = random.Random(443)
    for strands in range(2, 7):
        for _ in range(1500):
            word = random_kernel_word(rng, strands=strands, max_len=12, max_exp=5)
            assert rewrite_tau(word) == reference.rewrite_tau(word), str(word)
        for _ in range(100):
            word = random_kernel_word(rng, strands=strands, max_len=10, max_exp=50)
            assert rewrite_tau(word) == reference.rewrite_tau(word), str(word)
    for _ in range(25):
        word = random_kernel_word(rng, strands=3, max_len=6, max_exp=2000)
        assert rewrite_tau(word) == reference.rewrite_tau(word), str(word)
