import random

import pytest

from singbraid import (
    b3_is_trivial,
    concat,
    conjugate,
    is_trivial_sg3,
    parse_braid_word,
    quotient_to_b3,
    sg3_necessary_trivial,
    sg3_relators,
)
from singbraid import oracles
from singbraid.oracles import (
    IDENTITY,
    TAU_RULES,
    TAU_TO_SIGMA,
    TAU_TO_SIGMA_INVERSE,
    IntMatrix2,
    b3_matrix,
    oracle_report,
    _homomorphy_audit,
)
from helpers import random_pi_trivial, random_word


def test_quotient_examples():
    relator = parse_braid_word("s1 t1 s1^-1 t1^-1", 3)
    assert quotient_to_b3(relator, TAU_TO_SIGMA).is_empty
    mixed = parse_braid_word("s1 s2 t1 s2^-1 s1^-1 t2^-1", 3)
    assert str(quotient_to_b3(mixed, TAU_TO_SIGMA_INVERSE)) == "s1 s2 s1^-1 s2^-1 s1^-1 s2"
    assert str(quotient_to_b3(parse_braid_word("t2^3", 3), TAU_TO_SIGMA)) == "s2^3"
    with pytest.raises(ValueError):
        quotient_to_b3(relator, "nonsense")


# The unit generator matrices and their inverses, for the naive product.
_UNIT_MATRICES = {
    (1, 1): (1, 1, 0, 1),
    (1, -1): (1, -1, 0, 1),
    (2, 1): (1, 0, -1, 1),
    (2, -1): (1, 0, 1, 1),
}


def naive_matrix(word):
    """The matrix image multiplied out one unit letter at a time."""
    a, b, c, d = 1, 0, 0, 1
    for letter in word.letters:
        sign = 1 if letter.exponent > 0 else -1
        p, q, r, s = _UNIT_MATRICES[letter.index, sign]
        for _ in range(abs(letter.exponent)):
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return IntMatrix2(a, b, c, d)


def random_crossing_word(rng, syllables, exponents):
    """A 3-strand crossing word whose syllables have |e| in ``exponents``."""
    tokens = []
    for _ in range(syllables):
        exponent = rng.choice((-1, 1)) * rng.choice(exponents)
        tokens.append(f"s{rng.choice((1, 2))}^{exponent}")
    return parse_braid_word(" ".join(tokens) or "1", 3)


def test_matrix_basics():
    assert b3_matrix(parse_braid_word("1", 3)) == IDENTITY
    assert b3_matrix(parse_braid_word("s1^5", 3)) == IntMatrix2(1, 5, 0, 1)
    assert b3_matrix(parse_braid_word("s2^-2", 3)) == IntMatrix2(1, 0, 2, 1)
    with pytest.raises(ValueError):
        b3_matrix(parse_braid_word("t1", 3))
    for text in ("s3", "s1 s2"):
        with pytest.raises(ValueError, match="3 strands"):
            b3_matrix(parse_braid_word(text, 4))
    rng = random.Random(403)
    for _ in range(300):
        word = random_crossing_word(rng, rng.randrange(12), range(1, 51))
        assert b3_matrix(word) == naive_matrix(word), word
    for _ in range(4):
        word = random_crossing_word(rng, 3, range(9_900, 10_001))
        assert b3_matrix(word) == naive_matrix(word), word


def test_matrix_images_are_unimodular():
    rng = random.Random(401)
    for _ in range(100):
        word = quotient_to_b3(random_word(rng, max_len=30), TAU_TO_SIGMA)
        a, b, c, d = b3_matrix(word)
        assert a * d - b * c == 1


def test_b3_trivial_examples():
    assert b3_is_trivial(parse_braid_word("s1 s2 s1 s2^-1 s1^-1 s2^-1", 3))
    assert not b3_is_trivial(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
    half_twists = concat(
        parse_braid_word("s1 s2 s1", 3), parse_braid_word("s2 s1 s2", 3).inverse()
    )
    assert b3_is_trivial(half_twists)


def test_full_twist_squared_matrix():
    # The image of the doubled full twist is the identity, so the exponent
    # sum condition is what rules it out.
    quad = parse_braid_word("s1 s2 s1", 3) ** 4
    assert b3_matrix(quad) == IDENTITY
    assert not b3_is_trivial(quad)


def test_homomorphy_audit():
    assert _homomorphy_audit()
    for relator in sg3_relators():
        for rule in TAU_RULES:
            assert b3_is_trivial(quotient_to_b3(relator, rule))


@pytest.mark.parametrize(
    "oracle, message",
    [
        (lambda word: quotient_to_b3(word, TAU_TO_SIGMA), "the braid-group quotients are set up for 3 strands"),
        (b3_is_trivial, "the braid-group test is set up for 3 strands"),
        (sg3_necessary_trivial, "the oracle is set up for 3 strands"),
    ],
)
def test_oracles_refuse_a_four_strand_word(oracle, message):
    with pytest.raises(ValueError) as refusal:
        oracle(parse_braid_word("s1 t3", 4))
    assert str(refusal.value) == message


def test_homomorphy_audit_refuses_a_substitution_that_breaks_a_relator(monkeypatch):
    # s1 t1 is no relator: t1 -> s1 sends it to s1^2, which is nontrivial.
    monkeypatch.setattr(oracles, "sg3_relators", lambda: [parse_braid_word("s1 t1", 3)])
    _homomorphy_audit.cache_clear()
    try:
        with pytest.raises(RuntimeError) as refusal:
            quotient_to_b3(parse_braid_word("t1", 3), TAU_TO_SIGMA)
        assert str(refusal.value) == f"tau substitution {TAU_TO_SIGMA} breaks relator s1 t1"
    finally:
        # Should the audit pass on the patched relators, its cached result
        # must not reach later tests.
        _homomorphy_audit.cache_clear()


def test_oracle_on_relator_conjugates():
    rng = random.Random(419)
    for relator in sg3_relators():
        for _ in range(10):
            word = conjugate(relator, random_word(rng))
            assert sg3_necessary_trivial(word)


def test_oracle_rejections():
    assert not sg3_necessary_trivial(parse_braid_word("t1 s1^-1", 3))
    assert not sg3_necessary_trivial(parse_braid_word("s1", 3))
    # Balanced and projection-trivial but killed by the matrix image:
    assert not sg3_necessary_trivial(parse_braid_word("s1^2 s2^-2", 3))


def test_oracle_cannot_refute_the_hard_word():
    word = parse_braid_word("t1 t2 t1 t2^-1 t1^-1 t2^-1", 3)
    assert sg3_necessary_trivial(word)
    assert not is_trivial_sg3(word)


@pytest.fixture
def b3_calls(monkeypatch):
    """The words ``b3_is_trivial`` decides, with the homomorphy audit warm."""
    _homomorphy_audit()
    calls = []

    def counting(word):
        calls.append(word)
        return b3_is_trivial(word)

    monkeypatch.setattr(oracles, "b3_is_trivial", counting)
    return calls


def test_oracle_report_decides_each_image_once(b3_calls):
    # The necessary-trivial row is read off the five rows above it, so a
    # report decides each of the two B_3 images once.
    oracle_report(parse_braid_word("t1 t2 t1 t2^-1 t1^-1 t2^-1", 3))
    assert len(b3_calls) == 2


def test_necessary_trivial_stops_at_the_first_failing_invariant(b3_calls):
    # The B_3 images are decided only after the projection and both
    # exponent sums hold, and the second only after the first holds.
    expected = {
        "t1": 0,
        "s1^2": 0,
        "t1^2 s2^2 t1^-2 s2^-2": 1,
        "t1 t2 t1 t2^-1 t1^-1 t2^-1": 2,
    }
    for text, count in expected.items():
        b3_calls.clear()
        sg3_necessary_trivial(parse_braid_word(text, 3))
        assert len(b3_calls) == count, text


def test_oracle_report_agrees_with_necessary_trivial():
    rng = random.Random(431)
    words = [random_word(rng) for _ in range(100)] + [random_pi_trivial(rng) for _ in range(100)]
    words += [conjugate(relator, random_word(rng)) for relator in sg3_relators()]
    verdicts = set()
    for word in words:
        rows = dict(oracle_report(word))
        verdicts.add(rows["necessary-trivial"])
        assert rows["necessary-trivial"] == ("yes" if sg3_necessary_trivial(word) else "no")
    assert verdicts == {"yes", "no"}


def test_b3_completeness_on_relator_products():
    rng = random.Random(421)
    braid_relator = parse_braid_word("s1 s2 s1 s2^-1 s1^-1 s2^-1", 3)
    for _ in range(500):
        word = parse_braid_word("1", 3)
        for _ in range(rng.randrange(1, 4)):
            conj = quotient_to_b3(random_word(rng, max_len=6), TAU_TO_SIGMA)
            piece = conjugate(braid_relator, conj)
            if rng.random() < 0.5:
                piece = piece.inverse()
            word = concat(word, piece)
        assert b3_is_trivial(word)


def test_b3_rejects_unbalanced_words():
    rng = random.Random(431)
    seen = 0
    while seen < 500:
        word = quotient_to_b3(random_word(rng, max_len=30), TAU_TO_SIGMA)
        from singbraid import exponent_sums

        if exponent_sums(word)[0] == 0:
            continue
        assert not b3_is_trivial(word)
        seen += 1


def test_engine_never_contradicts_oracle():
    rng = random.Random(433)
    for _ in range(200):
        word = random_pi_trivial(rng)
        if is_trivial_sg3(word):
            assert sg3_necessary_trivial(word)
