import math
import random

import pytest

from singbraid import (
    BraidWord,
    Letter,
    Permutation,
    concat,
    coset_table,
    parse_braid_word,
    pi,
)
import reference_reduction as reference
from singbraid import words
from helpers import compose, coset_rep, random_word, unit_letters, unreduced_braid_text


def test_pi_of_empty_word():
    assert pi(parse_braid_word("1", 3)).is_identity


def test_pi_of_single_crossing():
    assert pi(parse_braid_word("s1", 3)).images == (2, 1, 3)
    assert pi(parse_braid_word("t1", 3)).images == (2, 1, 3)


def test_pi_left_to_right():
    # s1 then t2: 1 -> 3, 2 -> 1, 3 -> 2 when applied pointwise in order.
    assert pi(parse_braid_word("s1 t2", 3)).images == (3, 1, 2)


def test_pi_exponent_parity():
    assert pi(parse_braid_word("s1^2", 3)).is_identity
    assert pi(parse_braid_word("t1^-3", 3)).images == (2, 1, 3)


def test_pi_is_homomorphic():
    rng = random.Random(5)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert pi(concat(u, v)).images == compose(pi(u).images, pi(v).images)


def test_pi_matches_composition_reference():
    # Exponents up to +-6, odd and even, so that some letters move points
    # and others, however large, do not.
    rng = random.Random(13)
    for strands in range(2, 8):
        for _ in range(300):
            letters = tuple(
                Letter(rng.choice("st"), rng.randrange(1, strands), rng.choice((-1, 1)) * rng.randint(1, 6))
                for _ in range(rng.randrange(25))
            )
            word = BraidWord(strands, letters)
            assert pi(word).images == reference.pi(word), str(word)


def test_pi_of_parsed_tokens_equals_pi_of_their_letters():
    # pi reads a parsed word's tokens unreduced, each odd one by its swap
    # index, and must agree with the same word once its letters are read,
    # and with a word freshly built from the letters.
    rng = random.Random(17)
    for _ in range(3000):
        strands = rng.choice((2, 3, 3, 4, 6))
        text = unreduced_braid_text(rng, strands)
        read = parse_braid_word(text, strands)
        assert read.letters is read._stored
        parsed = parse_braid_word(text, strands)
        assert pi(parsed) == pi(read) == pi(BraidWord(strands, read.letters)) == Permutation(reference.pi(read)), text
        assert parsed._stored.__class__ is words._Tokens, text


def test_permutation_inverse_and_strings():
    perm = pi(parse_braid_word("s1 t2", 3))
    assert perm.cycle_string() == "(1 3 2)"
    assert perm.one_line_string() == "[3,1,2]"
    assert pi(parse_braid_word("s1", 3)).cycle_string() == "(1 2)(3)"


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_transversal_n2():
    transversal = coset_table(2)
    assert [str(w) for w in transversal.elements] == ["1", "s1"]


def test_transversal_n3():
    transversal = coset_table(3)
    assert [str(w) for w in transversal.elements] == [
        "1",
        "s1",
        "s2",
        "s1 s2",
        "s2 s1",
        "s1 s2 s1",
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_transversal_is_bijective(n):
    transversal = coset_table(n)
    assert len(transversal.elements) == math.factorial(n)
    images = {pi(word) for word in transversal.elements}
    assert len(images) == math.factorial(n)
    for word in transversal.elements:
        assert coset_rep(word) == word


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transversal_words_are_positive_crossings(n):
    for word in coset_table(n).elements:
        assert all(l.kind == "s" and l.exponent == 1 for l in word.letters)
    assert coset_rep(BraidWord(n)).is_empty


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transversal_schreier_property(n):
    transversal = coset_table(n)
    members = set(transversal.elements)
    for word in transversal.elements:
        units = unit_letters(word)
        for cut in range(len(units) + 1):
            assert BraidWord(n, tuple(units[:cut])) in members


def test_transversal_rejects_out_of_range():
    with pytest.raises(ValueError):
        coset_table(1)
    with pytest.raises(ValueError):
        coset_table(7)


def test_coset_rep_examples():
    assert coset_rep(parse_braid_word("s1^2", 3)).is_empty
    assert str(coset_rep(parse_braid_word("t1", 3))) == "s1"
    assert str(coset_rep(parse_braid_word("s1 t2", 3))) == "s1 s2"


def test_coset_rep_matches_projection():
    rng = random.Random(7)
    for _ in range(100):
        word = random_word(rng)
        rep = coset_rep(word)
        assert pi(rep) == pi(word)
        assert pi(concat(word, rep.inverse())).is_identity
