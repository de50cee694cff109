"""Counted cost: the work of one in-process call grows at most linearly in
its input, read as counts rather than seconds.

``line_events`` counts the ``sys.settrace`` "line" events of one call and
``peak_bytes`` reads the ``tracemalloc`` peak of one call.  Each runs the
call once first, so that the token caches and the tables built on first use
are warm.  Both counts are exact for one Python version but differ between
versions, so the tests assert only ratios: at most 2.1x per doubling of the
input, and an equal line count where the input grows inside one run.  The
clock-bounded tests elsewhere stay; these add a gate that a shared
machine's noise cannot move.
"""

import gc
import sys
import tracemalloc

import pytest

from singbraid import center_split, is_trivial_sg3, parse_braid_word, parse_sp_word

MAX_RATIO_PER_DOUBLING = 2.1

C = parse_sp_word("a13 a23")
B12 = parse_sp_word("b12")
# Relator 1 (t1 commutes with s1) times relator 4 (s1 s2 t1 s2^-1 s1^-1 =
# t2): a trivial word whose projection is trivial, so each power of it goes
# through the rewrite and the reducer.
RELATORS_1_4 = parse_braid_word("s1 t1 s1^-1 t1^-1 s1 s2 t1 s2^-1 s1^-1 t2^-1", 3)


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
    # A crossing power conjugating t2: the walk emits about e factors and
    # the rewrite merges their rows into 6 letters, so the cost grows with e.
    "crossing-power": (is_trivial_sg3, lambda e: parse_braid_word(f"s1^{e} t2 s1^-{e} t2^-1", 3), 500, False),
    # A singular power conjugated by s2: zero sums and a trivial projection,
    # so it reaches the rewrite and the reducer.
    "singular-power": (is_trivial_sg3, lambda e: parse_braid_word(f"s2 t1^{e} s2^-1 t1^-{e}", 3), 500, False),
    # 4n + 1 letters of exponent +-1 with crossing sum 1, parsed inside the
    # counted call: the sums refute the word before anything reduces it.
    "parse-and-refute": (decide_text, lambda n: "s1 t2 s2^-1 t1^-1 " * n + "s1", 250, False),
}


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


def test_hostile_nf_word_reduces_in_the_same_line_count_at_every_exponent():
    # The CI "Hostile nf" word, scaled down: a12^n is one run c^-n, so the
    # reducer's work does not depend on n.
    counts = [
        line_events(center_split, parse_sp_word(f"a12^{n} b12 a13 b12^-1 a12^-{n} b13"))
        for n in (1000, 2000, 4000, 131070)
    ]
    assert len(set(counts)) == 1, counts
