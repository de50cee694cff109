import random

import pytest

from singbraid import (
    BraidWord,
    CenterSplitForm,
    FactorSyllable,
    HNNForm,
    Letter,
    SPLetter,
    SPWord,
    britton_reduce,
    center_split,
    cyclic_power_of_c,
    eliminate_a12,
    equal_sp3,
    exponent_sums as sigma_tau_sums,
    is_trivial_sg3,
    is_trivial_sp3,
    parse_braid_word,
    parse_sp_word,
    pi,
    presentation_relators,
    rewrite_to_sp3,
    sg3_relators,
)
from singbraid import normal_form, sp3, words
from singbraid.normal_form import F13, F23, _best_slide, canonical_display
from singbraid.words import free_reduce
from helpers import (
    CENTER,
    braid_exponent_sums,
    conjugated_relators,
    exponent_sums,
    random_run_letters,
    random_sp_word,
    unreduced_braid_text,
    unreduced_sp_text,
)
from reference_reduction import base_word, c_power_syllables, syllables


def test_eliminate_a12_examples():
    # The d-exponent is the a12 exponent sum; the reducer reads a12^e as c^-e.
    delta, rest = eliminate_a12(parse_sp_word("a12"))
    assert delta == 1 and str(britton_reduce(rest)) == "a23^-1 a13^-1"
    delta, rest = eliminate_a12(parse_sp_word("a12 a13 a23"))
    assert delta == 1 and britton_reduce(rest).is_trivial
    delta, rest = eliminate_a12(parse_sp_word("b13^2"))
    assert delta == 0 and str(rest) == "b13^2"
    delta, rest = eliminate_a12(parse_sp_word("a12^-2 b12"))
    assert delta == -2 and str(britton_reduce(rest)) == "a13 a23 a13 a23 b12"
    delta, _ = eliminate_a12(parse_sp_word("a12^3 b13 a12^-5 b12 a12"))
    assert delta == -1


def test_eliminate_a12_returns_a12_free_words_as_given():
    word = parse_sp_word("b12 a13 a23 b12^-1 b13^2 a23^-1")
    delta, rest = eliminate_a12(word)
    assert delta == 0 and rest is word
    delta, rest = eliminate_a12(parse_sp_word("b13 a12 a12^-1 b13^-1"))
    assert delta == 0 and rest.is_empty


def free_product_nf(word: SPWord) -> tuple:
    """The normal form in V of a word with no b12 and no a12, read off the
    reducer's base stack: the reduced form is that one base."""
    form = britton_reduce(word)
    assert not form.powers
    return form.bases[0]


def test_free_product_nf_examples():
    assert free_product_nf(parse_sp_word("a13 b13 a13^-1 b13^-1")) == ()
    collapsed = free_product_nf(parse_sp_word("a13 b13 a23 b23 a23^-1 b23^-1"))
    assert syllables(collapsed) == (FactorSyllable(F13, 1, 1),)
    alternating = free_product_nf(parse_sp_word("a13 a23 a13"))
    assert syllables(alternating) == (
        FactorSyllable(F13, 1, 0),
        FactorSyllable(F23, 1, 0),
        FactorSyllable(F13, 1, 0),
    )


def test_free_product_nf_cascades():
    # The middle collapses step by step: the whole word is a conjugate of
    # the commutator of a13 and b13, hence trivial in V.
    word = parse_sp_word("a13 a23 b13 a23^-1 a23 b13^-1 a23^-1 a13^-1")
    assert free_product_nf(word) == ()


def test_free_product_nf_is_two_sided():
    rng = random.Random(307)
    names = ("a13", "b13", "a23", "b23")
    for _ in range(100):
        u = SPWord(tuple(random_sp_word(rng).letters))
        # restrict to base-group letters
        u = SPWord(tuple(l for l in u.letters if l.name in names))
        v = SPWord(tuple(l for l in random_sp_word(rng).letters if l.name in names))
        joined = syllables(free_product_nf(u)) + syllables(free_product_nf(v))
        assert free_product_nf(u * v) == base_word(joined)


def test_cyclic_power_recognition():
    assert cyclic_power_of_c(()) == 0
    square = free_product_nf(parse_sp_word("a13 a23 a13 a23"))
    assert cyclic_power_of_c(square) == 2
    assert cyclic_power_of_c(free_product_nf(parse_sp_word("a13"))) is None
    inverse_cube = free_product_nf(parse_sp_word("a23^-1 a13^-1 a23^-1 a13^-1 a23^-1 a13^-1"))
    assert cyclic_power_of_c(inverse_cube) == -3
    assert cyclic_power_of_c(free_product_nf(parse_sp_word("a13 b23"))) is None
    assert cyclic_power_of_c(free_product_nf(parse_sp_word("a13 a23^2"))) is None


def test_reduced_forms_keep_their_runs():
    # Each base is the tuple of its stack's entries: c^n is one int entry,
    # and cyclic_power_of_c reads it.
    word = parse_sp_word("a12^131070 b12 a13 b12^-1 a12^-131070 b13")
    form = center_split(word)
    assert form.delta_exp == 0 and form.v.powers == (1, -1)
    assert form.v.bases == (
        (-131070,),
        (FactorSyllable(F13, 1, 0),),
        (131070, FactorSyllable(F13, 0, 1)),
    )
    assert [cyclic_power_of_c(base) for base in form.v.bases] == [-131070, None, None]


def test_britton_examples():
    slid = britton_reduce(parse_sp_word("b12^-1 a13 a23 b12"))
    assert not slid.powers and str(slid) == "a13 a23"

    stuck = britton_reduce(parse_sp_word("b12^-1 a13 b12"))
    assert stuck.powers
    assert str(stuck) == "b12^-1 a13 b12"

    vanished = britton_reduce(
        parse_sp_word("b12^-1 a13 a23 a13 a23 b12 a23^-1 a13^-1 a23^-1 a13^-1")
    )
    assert vanished.is_trivial


def test_britton_merges_before_pinching():
    # The pinch b12 (a13 a23) b12^-1 shows first, but the base after b12^-1
    # is trivial in V, so b12^-1 merges with the next b12 and the c-power
    # stays where it is.
    word = parse_sp_word(
        "a13^-1 b12 a13 a23 b12^-1 b13^-1 a13 b13 a13^-1 b12 b23^-1 a13 b23^-1 b12"
    )
    assert str(britton_reduce(word)) == "a13^-1 b12 a13 a23 b23^-1 a13 b23^-1 b12"


def test_britton_reads_a12_as_a_c_run():
    # a12^e = d^e c^-e with d central: the V~ image of a12^e is one run c^-e.
    assert britton_reduce(parse_sp_word("a12^5")).bases[0] == (-5,)
    assert britton_reduce(parse_sp_word("a12^-3 a13")).bases[0] == (3, FactorSyllable(F13, 1, 0))
    # a12 commutes with b12 (relator 3), so their commutator reduces away.
    assert britton_reduce(parse_sp_word("a12 b12 a12^-1 b12^-1")).is_trivial
    # A run read from a12 slides through a pinch like a spelled-out c-power.
    slid = britton_reduce(parse_sp_word("b12^-1 a12^2 b12 b23"))
    assert not slid.powers and slid.bases[0] == (-2, FactorSyllable(F23, 0, 1))
    word = parse_sp_word("a12^7 b12 a13 b12^-1 a12^-7")
    delta, rest = eliminate_a12(word)
    assert delta == 0 and rest is word


def test_britton_merges_stable_powers():
    form = britton_reduce(parse_sp_word("b12 a13 b13 a13^-1 b13^-1 b12"))
    assert form.powers == (2,)
    assert str(form) == "b12^2"


def test_britton_output_is_reduced_and_equal():
    rng = random.Random(311)
    names = ("a13", "a23", "b12", "b13", "b23")
    for _ in range(200):
        word = SPWord(
            tuple(l for l in random_sp_word(rng, 30).letters if l.name in names)
        )
        form = britton_reduce(word)
        # same group element
        assert equal_sp3(form.sp_word(), word)
        # no stable letters gained
        before = sum(abs(l.exponent) for l in word.letters if l.name == "b12")
        assert form.stable_letter_count() <= before
        # reduced: no interior c-power between opposite signs, no empty interior
        for i in range(1, len(form.bases) - 1):
            assert form.bases[i]
            if (form.powers[i - 1] > 0) != (form.powers[i] > 0):
                assert cyclic_power_of_c(form.bases[i]) is None


def test_parsed_words_reduce_as_their_letters_do():
    # The reducer reads a parsed word's tokens, unreduced; its first pass
    # must cancel what free reduction would, so the forms agree with those
    # of the same word once its letters have been read.
    rng = random.Random(211)
    for _ in range(3000):
        text = unreduced_sp_text(rng)
        read = parse_sp_word(text)
        assert read.letters is read._stored
        for call in (britton_reduce, center_split):
            parsed = parse_sp_word(text)
            assert parsed._stored.__class__ is words._Tokens, text
            assert call(parsed) == call(read), text
            assert parsed._stored.__class__ is words._Tokens, text


def test_zero_sum_parsed_words_build_no_letters(monkeypatch):
    # A parsed word with six zero sums is decided from its tokens: the
    # sums and the a12 sum read their counts, the reducer the tokens.
    calls = []

    def counting_free_reduce(letters):
        letters = list(letters)
        calls.append(letters)
        return free_reduce(letters)

    monkeypatch.setattr(words, "free_reduce", counting_free_reduce)
    texts = (
        "b12 a13 a23 b12^-1 a23^-1 a13^-1",
        "a12^3 b12 a13 a13^-1 b12^-1 a12^-3",
        "b12^2 a13 b13 a13^-1 b13^-1 b12^-1 b12^-1 1",
        "b12 a13 b12^-1 a13^-1",
    )
    for text in texts:
        word = parse_sp_word(text)
        assert is_trivial_sp3(word) == (text != texts[-1])
        split_word = parse_sp_word(text)
        center_split(split_word)
        assert word._stored.__class__ is split_word._stored.__class__ is words._Tokens
    assert calls == []


def test_parsed_sg3_words_decide_as_their_letters_do():
    # pi and the walk read a parsed word's tokens, unreduced; the verdict
    # must be that of the same word once its letters have been read.
    rng = random.Random(227)
    verdicts = []
    for _ in range(3000):
        text = unreduced_braid_text(rng)
        read = parse_braid_word(text, 3)
        assert read.letters is read._stored
        parsed = parse_braid_word(text, 3)
        verdicts.append(is_trivial_sg3(parsed))
        assert verdicts[-1] == is_trivial_sg3(read), text
        assert parsed._stored.__class__ is words._Tokens, text
    assert 300 < sum(verdicts) < 2700


def test_zero_sum_parsed_sg3_words_build_no_letters(monkeypatch):
    # A parsed SG_3 word with zero sums is decided from its tokens: the sums
    # read their counts, pi and the walk the tokens, and only the rewrite's
    # SP_3 letters are reduced.
    calls = []

    def counting_free_reduce(letters):
        letters = list(letters)
        calls.append(letters)
        return free_reduce(letters)

    monkeypatch.setattr(words, "free_reduce", counting_free_reduce)
    texts = (
        "s1 t1 s1^-1 t1^-1",
        "s1^2 t2 s1^-2 t2^-1",
        "t1 t2 t1 t2^-1 t1^-1 t2^-1",
        "s1^3 s1^-1 s1^-2 s2 s2^1 s2^-2 t1 1 t1^-1",
    )
    for text in texts:
        for call in (is_trivial_sg3, pi, rewrite_to_sp3):
            word = parse_braid_word(text, 3)
            call(word)
            assert word._stored.__class__ is words._Tokens, (text, call)
    assert [is_trivial_sg3(parse_braid_word(text, 3)) for text in texts] == [True, False, False, True]
    assert calls and not any(type(letter) is Letter for letters in calls for letter in letters)


def test_is_trivial_sp3_on_relators():
    for relator in presentation_relators():
        assert is_trivial_sp3(relator)


def test_center_commutes():
    delta = CENTER
    for name in ("a12", "a13", "a23", "b12", "b13", "b23"):
        x = parse_sp_word(name)
        commutator = delta * x * delta.inverse() * x.inverse()
        assert is_trivial_sp3(commutator)


def test_center_equals_full_twist():
    twist = rewrite_to_sp3(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
    assert equal_sp3(twist, CENTER)


def test_is_trivial_sp3_detects_nontrivial():
    assert not is_trivial_sp3(parse_sp_word("b12^-1 a13 b12 a13^-1"))
    assert not is_trivial_sp3(parse_sp_word("a12"))
    assert not is_trivial_sp3(parse_sp_word("a13 a23 a13^-1 a23^-1"))


def test_exponent_sums_refute_before_reduction(monkeypatch):
    def refuse(word):
        raise AssertionError(f"{word} reached center_split")

    monkeypatch.setattr(normal_form, "center_split", refuse)
    assert not is_trivial_sp3(parse_sp_word("a13 b12"))
    assert not equal_sp3(parse_sp_word("b12 a13"), parse_sp_word("a13 b12 a23"))
    kernel = parse_braid_word("s1^2 t2 s1^-2 t2^-1", 3)
    sums = exponent_sums(rewrite_to_sp3(kernel))
    assert sums == {"a12": 1, "a13": -1, "a23": 0, "b12": 0, "b13": 0, "b23": 0}
    assert not is_trivial_sg3(kernel)


def test_six_sums_count_each_distinct_letter_once():
    # The sums add exponent times count once per distinct letter; a
    # per-letter loop must agree on words whose letters repeat, with |e| > 1.
    rng = random.Random(43)
    for _ in range(300):
        word = random_sp_word(rng, 12)
        word = SPWord(tuple(letter._replace(exponent=letter.exponent * rng.randint(1, 5)) for letter in word.letters))
        word = word ** rng.randint(1, 4) * random_sp_word(rng, 8)
        assert normal_form._six_sums(word) == exponent_sums(word)
    # Trivial words whose repeated letters cancel only when counted.
    for text in ("a13 b13 a13 b13^-1 a13^-2", "b23^2 a23 b23^2 a23^-1 b23^-4", "a12^3 b12 a12^3 b12^-1 a12^-6"):
        assert normal_form._six_sums(parse_sp_word(text)) == dict.fromkeys(sp3.SP_NAMES, 0)
        assert is_trivial_sp3(parse_sp_word(text))


def test_zero_sum_words_reach_the_reducer(monkeypatch):
    seen = []

    def spy(word):
        seen.append(word)
        return center_split(word)

    monkeypatch.setattr(normal_form, "center_split", spy)
    word = parse_sp_word("b12^-1 a13 b12 a13^-1")
    assert not any(exponent_sums(word).values())
    assert not is_trivial_sp3(word)
    assert seen == [word]


def test_relators_have_zero_exponent_sums():
    # The premise of the exponent-sum stage: every relation of both
    # presentations of SP_3 balances each of the six generators.
    relators = presentation_relators()
    assert len(relators) == 8
    rewritten = [rewrite_to_sp3(word) for _, _, word in conjugated_relators()]
    assert len(rewritten) == 30
    for relator in relators + rewritten:
        assert not any(exponent_sums(relator).values()), str(relator)


def test_equal_sp3_examples():
    assert equal_sp3(parse_sp_word("a12 a13 a23"), parse_sp_word("a13 a23 a12"))
    assert equal_sp3(
        parse_sp_word("a12 b13 a12^-1"), parse_sp_word("a23^-1 b13 a23")
    )
    assert not equal_sp3(parse_sp_word("b12"), parse_sp_word("b13"))


def test_is_trivial_sg3_examples():
    assert is_trivial_sg3(parse_braid_word("s1 t1 s1^-1 t1^-1", 3))
    assert not is_trivial_sg3(parse_braid_word("s1", 3))
    assert not is_trivial_sg3(parse_braid_word("t1 t2 t1 t2^-1 t1^-1 t2^-1", 3))
    with pytest.raises(ValueError):
        is_trivial_sg3(parse_braid_word("s1", 4))


def test_sigma_tau_sums_refute_before_projection(monkeypatch):
    def refuse(word):
        raise AssertionError(f"{word} was projected or rewritten")

    monkeypatch.setattr(normal_form, "pi", refuse)
    monkeypatch.setattr(normal_form, "rewrite_to_sp3", refuse)
    kernel = parse_braid_word("s1 t1^-1", 3)
    assert sigma_tau_sums(kernel) == (1, -1)
    assert not is_trivial_sg3(kernel)
    assert not is_trivial_sg3(parse_braid_word("s1", 3))


def test_zero_sigma_tau_words_reach_the_rewrite(monkeypatch):
    seen = []

    def spy(word):
        seen.append(word)
        return rewrite_to_sp3(word)

    monkeypatch.setattr(normal_form, "rewrite_to_sp3", spy)
    word = parse_braid_word("s1^2 t2 s1^-2 t2^-1", 3)
    assert sigma_tau_sums(word) == (0, 0)
    assert not is_trivial_sg3(word)
    assert seen == [word]


def test_sg3_relators_have_zero_sigma_tau_sums():
    # The premise of the exit in is_trivial_sg3: each of the five relations
    # balances the crossing letters and the singular letters separately.
    relators = sg3_relators()
    assert len(relators) == 5
    for relator in relators:
        assert sigma_tau_sums(relator) == braid_exponent_sums(relator.letters) == (0, 0), str(relator)


def test_sigma_tau_sums_match_an_independent_count():
    rng = random.Random(331)
    merged = 0
    for _ in range(500):
        letters = random_run_letters(rng)
        word = BraidWord(3, tuple(letters))
        merged += len(word.letters) < len(letters)
        assert sigma_tau_sums(word) == braid_exponent_sums(letters)
    assert merged > 400


def test_hard_word_powers_stay_nontrivial():
    hard = parse_braid_word("t1 t2 t1 t2^-1 t1^-1 t2^-1", 3)
    for k in range(1, 5):
        assert not is_trivial_sg3(hard**k)
    assert is_trivial_sg3(hard * hard.inverse())


def test_delta_powers_split_cleanly():
    delta = CENTER
    for k in (-3, -1, 1, 2, 5):
        form = center_split(delta**k)
        assert form.delta_exp == k and form.v.is_trivial
        assert not is_trivial_sp3(delta**k)
    assert is_trivial_sp3(delta**0)


def test_decision_confluence():
    rng = random.Random(313)
    relators = presentation_relators()
    for _ in range(1000):
        word = random_sp_word(rng, max_len=40)
        assert is_trivial_sp3(word * word.inverse())
        for relator in relators:
            assert is_trivial_sp3(word * relator * word.inverse())


def test_britton_nested_and_chained_pinches():
    c = parse_sp_word("a13 a23")
    b12 = parse_sp_word("b12")
    for depth in range(1, 11):
        nested = b12**-depth * c * b12**depth
        form = britton_reduce(nested)
        assert not form.powers and str(form) == "a13 a23"
    chained = SPWord()
    for _ in range(10):
        chained = chained * (b12.inverse() * c * b12 * c.inverse())
    assert britton_reduce(chained).is_trivial


def test_center_split_rendering():
    assert str(center_split(parse_sp_word("a12 a13 a23"))) == "d^1 | 1"
    assert str(center_split(parse_sp_word("a12"))) == "d^1 | a23^-1 a13^-1"
    assert str(center_split(parse_sp_word("b13^2"))) == "d^0 | b13^2"
    assert (
        str(center_split(parse_sp_word("b12^-1 a13 b12")))
        == "d^0 | b12^-1 a13 b12"
    )


def test_canonical_display_preserves_element():
    rng = random.Random(317)
    for _ in range(100):
        word = random_sp_word(rng, max_len=25)
        form = center_split(word)
        shown = canonical_display(form)
        assert shown == canonical_display(center_split(word))
        prefix, _, rest = shown.partition(" | ")
        delta = int(prefix.removeprefix("d^"))
        rebuilt = parse_sp_word("a12 a13 a23") ** delta * parse_sp_word(rest)
        assert equal_sp3(rebuilt, word)


def reference_canonical_display(form: CenterSplitForm) -> str:
    """The quadratic canonical display that ``canonical_display`` replaced:
    it builds c^-k B for every candidate k and counts its syllables.  The
    slid bases are normalized by the reference's ``base_word``, so no
    reduction code of the engine is used."""
    bases = list(form.v.bases)
    powers = list(form.v.powers)
    for i in range(1, len(bases)):
        base = syllables(bases[i])
        window = len(base) // 2 + 1
        candidates = sorted(range(-window, window + 1), key=lambda k: (abs(k), k))
        best = min(
            candidates,
            key=lambda k: len(syllables(base_word(c_power_syllables(-k) + base))),
        )
        if best:
            bases[i - 1] = base_word(syllables(bases[i - 1]) + c_power_syllables(best))
            bases[i] = base_word(c_power_syllables(-best) + base)
    i = 1
    while i < len(bases) - 1:
        if not bases[i]:
            powers[i - 1 : i + 1] = [powers[i - 1] + powers[i]]
            del bases[i]
        else:
            i += 1
    compacted = CenterSplitForm(form.delta_exp, HNNForm(tuple(bases), tuple(powers)))
    return str(compacted)


def _c_heavy_word(rng: random.Random, pieces: int, max_c: int) -> SPWord:
    """Powers of c and of b12 among single letters, so that bases start
    with long prefixes of c^k or c^-k patterns and then diverge."""
    letters = []
    for _ in range(pieces):
        roll = rng.random()
        if roll < 0.3:
            k = rng.randrange(1, max_c + 1)
            c_sign = "a13 a23" if rng.random() < 0.5 else "a23^-1 a13^-1"
            letters.extend(parse_sp_word(c_sign).letters * k)
        elif roll < 0.5:
            letters.append(SPLetter("b12", rng.choice((-2, -1, 1, 2))))
        else:
            name = rng.choice(("a12", "a13", "a23", "b13", "b23"))
            letters.append(SPLetter(name, rng.choice((-2, -1, 1, 2))))
    return SPWord(tuple(letters))


def test_canonical_display_matches_reference():
    rng = random.Random(331)
    for _ in range(1000):
        form = center_split(_c_heavy_word(rng, rng.choice((5, 15, 40)), 5))
        assert canonical_display(form) == reference_canonical_display(form)
    longest = 0
    for _ in range(20):
        form = center_split(_c_heavy_word(rng, 40, 30))
        longest = max([longest] + [len(syllables(base)) for base in form.v.bases[1:]])
        assert canonical_display(form) == reference_canonical_display(form)
    assert longest > 200


def test_best_slide_reads_entries():
    # A leading run, then the first syllable of c and one more entry: the
    # slide takes the run and one more c, however long the run is.
    a13, a23_inv = FactorSyllable(F13, 1, 0), FactorSyllable(F23, -1, 0)
    assert _best_slide((10**12, a13, FactorSyllable(F23, 0, 1))) == 10**12 + 1
    # The first syllable of c with nothing after it is kept.
    assert _best_slide((a13,)) == 0
    assert _best_slide((a23_inv, FactorSyllable(F13, 0, 1))) == -1
    assert _best_slide((-3,)) == -3
    assert _best_slide(()) == 0


def test_canonical_display_compacts_c_powers():
    # b12 conjugated by c: the slide empties the last base.
    word = parse_sp_word("a13 a23 b12 a23^-1 a13^-1")
    shown = canonical_display(center_split(word))
    assert shown == "d^0 | b12"
    # The run c between two b12 slides left and empties the interior base;
    # the printer merges the two stable powers around it.
    form = center_split(parse_sp_word("b12 a12^-1 b12 a13"))
    assert str(form) == "d^-1 | b12 a13 a23 b12 a13"
    assert canonical_display(form) == "d^-1 | a13 a23 b12^2 a13"
