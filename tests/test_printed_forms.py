"""Pins of the printed forms.  Engine and reference forms print through
the same ``HNNForm.__str__``, so the differential tests cannot see a drift
of the printer; these hashes can."""

import hashlib
import random

from singbraid import HNNForm, SPLetter, SPWord, center_split, parse_sp_word, rewrite_tau, rewrite_to_sp3
from singbraid.normal_form import F13, FactorSyllable, canonical_display
from singbraid.sp3 import SP_NAMES
from helpers import random_kernel_word

# Chunks that build c-powers and pinches: c = a13 a23, its inverse and the
# stable letter, next to the plain letters.
C_HEAVY_CHUNKS = ("a13 a23", "a23^-1 a13^-1", "b12", "b12^-1", "a13", "a23^-1", "b13", "b23^-1")


def sp_corpus(rng):
    """Plain random words, c-heavy words and a12-heavy words of SP_3."""
    for _ in range(1200):
        yield SPWord(tuple(
            SPLetter(rng.choice(SP_NAMES), rng.choice((-1, 1)) * rng.randint(1, 3))
            for _ in range(rng.randrange(31))
        ))
    for _ in range(1200):
        yield parse_sp_word(" ".join(rng.choice(C_HEAVY_CHUNKS) for _ in range(rng.randrange(1, 25))))
    for _ in range(600):
        yield SPWord(tuple(
            SPLetter("a12" if rng.random() < 0.5 else rng.choice(SP_NAMES), rng.choice((-1, 1)) * rng.randint(1, 6))
            for _ in range(rng.randrange(1, 16))
        ))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_center_split_forms_print_as_pinned():
    lines = []
    for word in sp_corpus(random.Random(1401)):
        form = center_split(word)
        lines += [str(form), canonical_display(form)]
    assert digest(lines) == "1fa7de62a0566f1fca9963c11c730550d61dffaaa21be064719fe90f970884ef"


def test_rewritten_kernel_words_print_as_pinned():
    rng = random.Random(1402)
    lines = []
    for _ in range(600):
        word = random_kernel_word(rng, max_len=12, max_exp=40)
        lines += [str(rewrite_tau(word)), str(rewrite_to_sp3(word))]
    assert digest(lines) == "e18cdd541336c4dc259fd1d589a3fe8f72d3b501b16d3e36c880c9228c0291cb"


def test_hand_built_forms_print_freely_reduced():
    # britton_reduce never returns these: an empty interior base between two
    # stable powers, and a b12 b12^-1 pair around an empty base.
    empty, a13 = (), (FactorSyllable(F13, 1, 0),)
    for form, text in [
        (HNNForm((empty, empty, empty), (1, 1)), "b12^2"),
        (HNNForm((a13, empty, a13), (1, -1)), "a13^2"),
    ]:
        assert str(form) == text == str(form.sp_word())
