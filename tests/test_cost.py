"""Counted cost: the work of one in-process call grows at most linearly in
its input, read as counts rather than seconds.

``line_events`` counts the ``sys.settrace`` "line" events of one call and
``peak_bytes`` reads the ``tracemalloc`` peak of one call.  Each runs the
call once first, so that the token caches and the tables built on first use
are warm.  Both counts are exact for one Python version but differ between
versions, so the tests assert ratios: at most 2.1x per doubling of the
input, and an equal line count where the input grows inside one run.  One
test also bounds each family's line events per unit letter of input by a
constant, today's reading plus a margin wide enough for the versions that
CI runs.  The clock-bounded tests elsewhere stay; these add a gate that a
shared machine's noise cannot move.
"""

import gc
import sys
import tracemalloc

import pytest

from singbraid import center_split, is_trivial_sg3, is_trivial_sp3, parse_braid_word, parse_sp_word

MAX_RATIO_PER_DOUBLING = 2.1

C = parse_sp_word("a13 a23")
A13, A23, B12 = parse_sp_word("a13"), parse_sp_word("a23"), parse_sp_word("b12")
# Relator 1 (t1 commutes with s1) times relator 4 (s1 s2 t1 s2^-1 s1^-1 =
# t2): a trivial word whose projection is trivial, so each power of it goes
# through the rewrite and the reducer.
RELATORS_1_4 = parse_braid_word("s1 t1 s1^-1 t1^-1 s1 s2 t1 s2^-1 s1^-1 t2^-1", 3)
# A block of SP_3 letters whose powers a search for costly inputs found
# among the dearest per unit letter for the reducer.
SP_BLOCK = parse_sp_word("a12^-1 b12^-1 a23^-1 a12 b23^-1 a12 b12")


def line_events(call, argument) -> int:
    call(argument)
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call(argument)
    finally:
        sys.settrace(previous)
    return count


def peak_bytes(call, argument) -> int:
    call(argument)
    # A full collection empties the interpreter's free lists, so the peak
    # counts every object the call allocates, whatever the warm-up left.
    gc.collect()
    tracemalloc.start()
    try:
        call(argument)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decide_text(text: str) -> bool:
    return is_trivial_sg3(parse_braid_word(text, 3))


# name: (call, input of size n, the smallest n, whether the input is
# trivial).  The verdict is asserted, so that a family cannot stop at an
# earlier stage than the one it is meant to count.
FAMILIES = {
    "pinch-tower": (center_split, lambda m: (B12 * C) ** m * B12 ** (-m) * C ** (-m), 500, True),
    "singular-commutator": (
        is_trivial_sg3,
        lambda e: parse_braid_word(f"t1^{e} t2^{e} t1^-{e} t2^-{e}", 3),
        500,
        False,
    ),
    "relator-product": (is_trivial_sg3, lambda k: RELATORS_1_4**k, 250, True),
    # The same product written out and parsed inside the counted call: the
    # walk and the reducer read its tokens, and no braid letter is built or
    # freely reduced.
    "parsed-relator-product": (decide_text, lambda k: f"{RELATORS_1_4} " * k, 250, True),
    # Found by a search for costly inputs: a parsed power of a word that
    # projects to a 3-cycle, so a kernel word when 3 divides n, which every
    # size here is.  Its rewrite emits a factor for nearly every letter.
    "singular-alternation": (is_trivial_sg3, lambda n: parse_braid_word("t2 t1^-1 " * n, 3), 600, False),
    # Found by the same search: every stable letter stays in the form.
    "sp-block-power": (center_split, lambda m: SP_BLOCK**m, 500, False),
    # A crossing power conjugating t2: the walk emits about e factors and
    # the rewrite merges their rows into 6 letters, so the cost grows with e.
    "crossing-power": (is_trivial_sg3, lambda e: parse_braid_word(f"s1^{e} t2 s1^-{e} t2^-1", 3), 500, False),
    # A singular power conjugated by s2: zero sums and a trivial projection,
    # so it reaches the rewrite and the reducer.
    "singular-power": (is_trivial_sg3, lambda e: parse_braid_word(f"s2 t1^{e} s2^-1 t1^-{e}", 3), 500, False),
    # Cancelling pairs, parsed: the walk reads the tokens unreduced, and
    # each t1 t1^-1 emits a b12 row and its inverse, which only the one free
    # reduction of the SP_3 letters cancels.
    "cancelling-pairs": (is_trivial_sg3, lambda n: parse_braid_word("s1 t1 t1^-1 s1^-1 " * n, 3), 250, True),
    # 4n + 1 letters of exponent +-1 with crossing sum 1, parsed inside the
    # counted call: the sums refute the word before anything reduces it.
    "parse-and-refute": (decide_text, lambda n: "s1 t2 s2^-1 t1^-1 " * n + "s1", 250, False),
    # Stable powers of alternating sign around bases that are no power of c:
    # no pinch cancels, so every stable letter stays in the form.
    "alternating-stable-powers": (
        center_split,
        lambda m: (B12 * A13 * B12.inverse() * A13.inverse()) ** m,
        500,
        False,
    ),
    # m stable letters nested around a23, which no pinch can slide out.
    "nested-stable-powers": (
        center_split,
        lambda m: (B12 * A13) ** m * A23 * (A13.inverse() * B12.inverse()) ** m * A23.inverse(),
        500,
        False,
    ),
    # c^m spelled letter by letter on both sides of b12: one pinch slides
    # the whole run.
    "long-c-run": (center_split, lambda m: C**m * B12 * C ** (-m) * B12.inverse(), 500, True),
}


# Line events per unit letter of input, the highest of the readings at n, 2n
# and 4n (Python 3.11 and 3.13 read the same to 0.01).  Unit letters count
# as written, exponents by magnitude, as the parser counts them: the
# exponent families have 4 syllables at every size, so a count per syllable
# would grow with e, and the cancelling pairs reduce to the empty word.
LINE_EVENTS_PER_UNIT_LETTER = {
    "pinch-tower": 16.0,
    "singular-commutator": 32.4,
    "relator-product": 10.7,
    "parsed-relator-product": 10.7,
    "singular-alternation": 59.3,
    "sp-block-power": 37.8,
    "crossing-power": 1.66,
    "singular-power": 12.6,
    "cancelling-pairs": 8.6,
    "parse-and-refute": 3.03,
    "alternating-stable-powers": 21.5,
    "nested-stable-powers": 19.5,
    "long-c-run": 14.5,
}
# Room for the other Python versions' line events, and for small changes
# to the code; a step that doubles the constant still fails.
PER_UNIT_LETTER_MARGIN = 1.5


def unit_letter_count(argument) -> int:
    if isinstance(argument, str):
        argument = parse_braid_word(argument, 3)
    return sum(abs(letter[-1]) * count for letter, count in argument._letter_counts())


@pytest.mark.parametrize("family", FAMILIES)
def test_line_events_per_unit_letter_stay_under_a_constant(family):
    call, make, n, _ = FAMILIES[family]
    bound = PER_UNIT_LETTER_MARGIN * LINE_EVENTS_PER_UNIT_LETTER[family]
    for size in (n, 2 * n, 4 * n):
        word = make(size)
        per_letter = line_events(call, word) / unit_letter_count(word)
        assert per_letter <= bound, (size, per_letter)


@pytest.mark.parametrize("family", FAMILIES)
def test_counts_at_most_double_per_doubling(family):
    call, make, n, trivial = FAMILIES[family]
    words = [make(n), make(2 * n), make(4 * n)]
    for word in words:
        result = call(word)
        assert getattr(result, "is_trivial", result) is trivial
    for count in (line_events, peak_bytes):
        counts = [count(call, word) for word in words]
        for smaller, larger in zip(counts, counts[1:]):
            assert larger <= MAX_RATIO_PER_DOUBLING * smaller, (count.__name__, counts)


def decide_sp_text(text: str) -> bool:
    return is_trivial_sp3(parse_sp_word(text))


@pytest.mark.parametrize(
    "call, make",
    [
        FAMILIES["parse-and-refute"][:2],
        # The SP_3 counterpart: a13 sum n + 1, a23 sum n.
        (decide_sp_text, lambda n: "b12 a13 b12^-1 a23 " * n + "a13"),
    ],
    ids=["braid", "sp3"],
)
def test_refuted_words_decide_in_the_same_line_count_at_every_length(call, make):
    # The sums read the token counts, which the parser makes in C, and add
    # once per distinct token: no Python line runs once per token.
    counts = [line_events(call, make(n)) for n in (250, 500, 1000)]
    assert not call(make(250)) and len(set(counts)) == 1, counts


def test_hostile_nf_word_reduces_in_the_same_line_count_at_every_exponent():
    # The CI "Hostile nf" word, scaled down: a12^n is one run c^-n, so the
    # reducer's work does not depend on n.
    counts = [
        line_events(center_split, parse_sp_word(f"a12^{n} b12 a13 b12^-1 a12^-{n} b13"))
        for n in (1000, 2000, 4000, 131070)
    ]
    assert len(set(counts)) == 1, counts


def parsed_pinch_tower(m: int) -> str:
    """The pinch tower (b12 c)^m b12^-m c^-m, c = a13 a23, written token
    by token: 6m tokens of exponent +-1."""
    return "b12 a13 a23 " * m + "b12^-1 " * m + "a23^-1 a13^-1 " * m


# Line events per token of a parsed pinch tower decided by
# is_trivial_sp3, the highest of the readings at m = 250, 500 and 1000 on
# Python 3.11.
PARSED_TOWER_LINE_EVENTS_PER_TOKEN = 17.72


def test_parsed_pinch_tower_decides_under_a_constant_per_token():
    # The reducer reads the tokens, each distinct one looked up once:
    # no letter list is built and nothing is freely reduced first.
    bound = PER_UNIT_LETTER_MARGIN * PARSED_TOWER_LINE_EVENTS_PER_TOKEN
    for m in (250, 500, 1000):
        text = parsed_pinch_tower(m)
        assert decide_sp_text(text)
        per_token = line_events(decide_sp_text, text) / (6 * m)
        assert per_token <= bound, (m, per_token)


def test_cancelling_exponents_decide_in_the_same_line_count_at_every_exponent():
    # Zero sums, so the reducer runs; a13^n is one syllable, so its work
    # does not depend on n, on either side of the parse bound past which
    # the parser reduces the letters.
    counts = [
        line_events(is_trivial_sp3, parse_sp_word(f"a13^{n} b12 a13^-{n} b12^-1"))
        for n in (1000, 2000, 4000, 131070)
    ]
    assert not is_trivial_sp3(parse_sp_word("a13^1000 b12 a13^-1000 b12^-1"))
    assert len(set(counts)) == 1, counts
