"""Differential tests: the stack-based reducer, its run-based base lists,
the coset-table ``rewrite_tau`` and the single-merge ``rewrite_to_sp3``
against the composed reduction, the flag-based stack, the
``Permutation``-based rewriter and the left fold they replaced
(``reference_reduction``), on built words and on parsed texts whose tokens
the engine reads unreduced.  Forms, renderings and verdicts must be
identical, not only equal as group elements."""

import random
import time

from singbraid import (
    SPLetter,
    SPWord,
    britton_reduce,
    center_split,
    cyclic_power_of_c,
    eliminate_a12,
    is_trivial_sg3,
    is_trivial_sp3,
    parse_braid_word,
    parse_sp_word,
    pi,
    rewrite_tau,
    rewrite_to_sp3,
)
from singbraid.normal_form import FactorSyllable, _push, _push_run
import reference_reduction as reference
from helpers import (
    random_kernel_word,
    random_pi_trivial,
    random_relator_product,
    random_sp_word,
    unreduced_braid_text,
    unreduced_sp_text,
)

C = parse_sp_word("a13 a23")
B12 = parse_sp_word("b12")
BASE_NAMES = ("a13", "a23", "b13", "b23")


def assert_same_reduction(word: SPWord) -> None:
    # The engine reads a12^e as one run c^-e; the reference reduces the
    # residual of its own letterwise substitution.
    delta_exp, residual = reference.eliminate_a12(word)
    expected = reference.britton_reduce(residual)
    assert eliminate_a12(word) == (delta_exp, word), str(word)
    assert britton_reduce(word) == expected, str(word)
    assert britton_reduce(residual) == expected, str(word)
    split = center_split(word)
    assert split.v == expected, str(word)
    assert str(split) == f"d^{delta_exp} | {expected}", str(word)
    assert is_trivial_sp3(word) == (delta_exp == 0 and expected.is_trivial), str(word)


def assert_same_reduction_of_text(text: str) -> None:
    # The engine reads a parsed word's tokens, unreduced, as long as its
    # letters were never read; the reference reads the letters, so each
    # engine call gets a parse of its own.
    delta_exp, residual = reference.eliminate_a12(parse_sp_word(text))
    expected = reference.britton_reduce(residual)
    assert eliminate_a12(parse_sp_word(text))[0] == delta_exp, text
    assert britton_reduce(parse_sp_word(text)) == expected, text
    split = center_split(parse_sp_word(text))
    assert split.v == expected, text
    assert str(split) == f"d^{delta_exp} | {expected}", text
    assert is_trivial_sp3(parse_sp_word(text)) == (delta_exp == 0 and expected.is_trivial), text


def assert_same_decision_of_braid_text(text: str) -> None:
    # pi and the walk read a parsed braid word's tokens, unreduced, as the
    # reducer does; the reference reads the letters, so each engine call
    # gets a parse of its own.
    word = parse_braid_word(text, 3)
    images = reference.pi(word)
    assert pi(parse_braid_word(text, 3)).images == images, text
    trivial = False
    if images == (1, 2, 3):
        factors = rewrite_tau(parse_braid_word(text, 3)).factors
        assert reference.schreier_word(factors) == reference.rewrite_tau(word), text
        expected = reference.rewrite_to_sp3(word)
        assert rewrite_to_sp3(parse_braid_word(text, 3)) == expected, text
        delta_exp, residual = reference.eliminate_a12(expected)
        trivial = delta_exp == 0 and reference.britton_reduce(residual).is_trivial
    assert is_trivial_sg3(parse_braid_word(text, 3)) == trivial, text


def base_letter(rng: random.Random) -> SPWord:
    return SPWord((SPLetter(rng.choice(BASE_NAMES), rng.choice((-1, 1))),))


def base_commutator(rng: random.Random) -> SPWord:
    """x y x^-1 y^-1 for unit letters x, y of one free factor of V."""
    factor = rng.choice(("13", "23"))
    x = SPWord((SPLetter("a" + factor, rng.choice((-1, 1))),))
    y = SPWord((SPLetter("b" + factor, rng.choice((-1, 1))),))
    return x * y * x.inverse() * y.inverse()


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


def test_parsed_words_match_reference():
    # Texts that free reduction changes, and the piece words written out
    # piece by piece, so that pieces cancel and merge across their joins.
    rng = random.Random(439)
    for _ in range(2000):
        assert_same_reduction_of_text(unreduced_sp_text(rng))
    pieces = (
        "b12", "b12^-1", "b12^2", "b12^-2", "a13 a23", "a23^-1 a13^-1",
        "a13", "a13^-1", "a23", "b13", "b23^-1", "1",
        "a13 b13 a13^-1 b13^-1", "a12", "a12^-1",
    )
    for _ in range(2000):
        assert_same_reduction_of_text(" ".join(rng.choice(pieces) for _ in range(rng.randrange(1, 25))))


def test_parsed_braid_words_match_reference():
    # Braid texts that free reduction changes, decided through pi, the walk
    # of their tokens, the rewrite and the reducer.
    rng = random.Random(449)
    for _ in range(2000):
        assert_same_decision_of_braid_text(unreduced_braid_text(rng))


def test_pinch_towers_match_reference():
    rng = random.Random(421)
    for s in (-2, -1, 1, 2):
        for k in (-3, -2, -1, 1, 2, 3):
            for m in range(1, 9):
                tower = (B12**s * C**k) ** m * B12 ** (-s * m) * C ** (-k * m)
                assert is_trivial_sp3(tower)
                assert_same_reduction(tower)
                u = random_sp_word(rng, max_len=4)
                assert_same_reduction(u * tower * u.inverse())
                assert_same_reduction(u * tower * base_letter(rng) * u.inverse())
                # A base word inside each level that is trivial in V but not
                # freely trivial, so the first pass splits the run and
                # re-forms it.
                j = rng.randint(0, abs(k)) * (1 if k > 0 else -1)
                level = B12**s * C**j * base_commutator(rng) * C ** (k - j)
                tower = level**m * B12 ** (-s * m) * C ** (-k * m)
                assert is_trivial_sp3(tower)
                assert_same_reduction(tower)


def test_long_tower_cost_is_linear():
    # The pinches slide c, c^2, ..., c^m: a slide that copies its syllables
    # takes minutes here, a run slides in O(1).
    m = 20000
    tower = (B12 * C) ** m * B12 ** (-m) * C ** (-m)
    start = time.perf_counter()
    split = center_split(tower)
    elapsed = time.perf_counter() - start
    assert split.is_trivial
    assert elapsed < 10, elapsed


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
    # with one unit letter per syllable.  The walk's factors must already
    # be freely reduced: rewrite_tau makes no cancellation pass.
    def check(word):
        rewritten = rewrite_tau(word)
        assert reference.schreier_word(rewritten.factors) == rewritten, str(word)
        assert rewritten == reference.rewrite_tau(word), str(word)

    rng = random.Random(443)
    for strands in range(2, 7):
        for _ in range(1500):
            check(random_kernel_word(rng, strands=strands, max_len=12, max_exp=5))
        for _ in range(100):
            check(random_kernel_word(rng, strands=strands, max_len=10, max_exp=50))
    for _ in range(25):
        check(random_kernel_word(rng, strands=3, max_len=6, max_exp=2000))


UNIT_SYLLABLES = [
    FactorSyllable(factor, a_exp, b_exp)
    for factor in ("13", "23")
    for a_exp, b_exp in ((1, 0), (-1, 0), (0, 1), (0, -1))
]


def run_stack(operations) -> list:
    """Apply syllable pushes and, for int operations, runs c^k, to an empty
    entry list."""
    entries = []
    for operation in operations:
        if isinstance(operation, int):
            _push_run(entries, operation)
        else:
            _push(entries, operation)
    return entries


def assert_same_stack(operations) -> None:
    stack = run_stack(operations)
    syllables = []
    for operation in operations:
        if isinstance(operation, int):
            syllables.extend(reference.c_power_syllables(operation))
        else:
            syllables.append(operation)
    expected = reference.FlagStack(syllables)
    word = tuple(stack)
    assert reference.syllables(word) == tuple(expected.syllables), operations
    assert cyclic_power_of_c(stack) == expected.c_power(), operations
    assert cyclic_power_of_c(word) == reference.cyclic_power_of_c(word), operations
    # Every c^+-1 pair of the expanded word lies in a run and no two runs
    # touch, so the runs are the same whichever way the word was pushed.
    assert [entry for entry in stack if isinstance(entry, int)] == [
        entry for entry in run_stack(reference.syllables(word)) if isinstance(entry, int)
    ], operations


def c_letters(k: int) -> list[FactorSyllable]:
    """c^k as plain syllable pushes."""
    return list(reference.c_power_syllables(k))


def c_power(rng: random.Random, k: int) -> list:
    """c^k as one run, as plain syllables, or as a mix of both."""
    roll = rng.random()
    if roll < 0.4:
        return [k]
    if roll < 0.7:
        return c_letters(k)
    sign = 1 if k > 0 else -1
    split = rng.randrange(abs(k) + 1)
    return c_letters(sign * split) + ([sign * (abs(k) - split)] if abs(k) > split else [])


def test_run_stack_splits_runs():
    # A syllable of the factor that ends a run splits one c^+-1 off it.
    rng = random.Random(451)
    for _ in range(3000):
        operations = [rng.choice(UNIT_SYLLABLES) for _ in range(rng.randrange(3))]
        k = rng.choice((-1, 1)) * rng.randint(1, 6)
        operations += c_power(rng, k)
        factor = "23" if k > 0 else "13"
        for _ in range(rng.randint(1, 3)):
            operations.append(
                FactorSyllable(factor, rng.randint(-2, 2), rng.randint(-2, 2))
            )
        operations += [rng.choice(UNIT_SYLLABLES) for _ in range(rng.randrange(3))]
        assert_same_stack(operations)


def test_run_stack_cancels_through_runs():
    rng = random.Random(457)
    for _ in range(3000):
        operations = [rng.choice(UNIT_SYLLABLES) for _ in range(rng.randrange(3))]
        n = rng.choice((-1, 1)) * rng.randint(1, 6)
        m = rng.randint(1, 8)
        operations += c_power(rng, n) + c_power(rng, -m if n > 0 else m)
        operations += [rng.choice(UNIT_SYLLABLES) for _ in range(rng.randrange(3))]
        assert_same_stack(operations)
        assert_same_stack(operations + c_power(rng, n))


def test_run_stack_reforms_runs_after_cancelled_letters():
    a13, a23, b13 = FactorSyllable("13", 1, 0), FactorSyllable("23", 1, 0), FactorSyllable("13", 0, 1)
    b13_inverse = FactorSyllable("13", 0, -1)
    operations = [a13, a23, b13, b13_inverse, a13, a23]
    assert_same_stack(operations)
    assert run_stack(operations) == [2]
    rng = random.Random(461)
    for _ in range(3000):
        operations = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if roll < 0.5:
                operations += c_power(rng, rng.choice((-1, 1)) * rng.randint(1, 3))
            elif roll < 0.8:
                x = rng.choice(UNIT_SYLLABLES)
                operations += [x, FactorSyllable(x.factor, -x.a_exp, -x.b_exp)]
            else:
                operations.append(rng.choice(UNIT_SYLLABLES))
        assert_same_stack(operations)


def test_push_run_onto_plain_tops():
    rng = random.Random(463)
    tops = [
        FactorSyllable(factor, a_exp, b_exp)
        for factor in ("13", "23")
        for a_exp in (-2, -1, 0, 1, 2)
        for b_exp in (-1, 0, 1)
        if a_exp or b_exp
    ]
    prefixes = [[], [FactorSyllable("13", 0, 1)], [FactorSyllable("23", 0, -1)], [2], [-2]]
    for top in tops:
        for prefix in prefixes:
            for k in (-3, -2, -1, 1, 2, 3):
                assert_same_stack(prefix + [top, k])
                assert_same_stack(prefix + [top, k, -k])
                assert_same_stack(prefix + c_letters(k) + [top, k])
                tail = [rng.choice(UNIT_SYLLABLES) for _ in range(rng.randrange(4))]
                assert_same_stack(prefix + [top] + tail + [k])
