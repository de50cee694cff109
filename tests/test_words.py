import random
import sys
import threading
from collections import Counter

import pytest

from singbraid import (
    BraidWord,
    Letter,
    SPLetter,
    SPWord,
    concat,
    conjugate,
    exponent_sums,
    is_trivial_sg3,
    is_trivial_sp3,
    parse_braid_word,
    parse_sp_word,
    sg3_relators,
)
from singbraid import normal_form, words
from singbraid.sp3 import SP_NAMES, _sp_letter
from singbraid.words import MAX_UNIT_LETTERS, _braid_letter, free_reduce
from helpers import random_run_letters, random_sp_word, random_word, unit_letters


def test_parse_basic():
    word = parse_braid_word("s1 t1^-1", 2)
    assert word.letters == (Letter("s", 1, 1), Letter("t", 1, -1))


def test_parse_cancels():
    assert parse_braid_word("s1 s1^-1", 3).is_empty


def test_parse_keeps_uncancellable_letters():
    word = parse_braid_word("s2 s1^2 s2^-1", 3)
    assert len(word.letters) == 3
    assert str(word) == "s2 s1^2 s2^-1"


def test_parse_serialize_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        word = random_word(rng)
        assert parse_braid_word(str(word), 3) == word
    assert str(BraidWord(3)) == "1"
    assert parse_braid_word("1", 3).is_empty


@pytest.mark.parametrize(
    "text",
    ["sx", "s0", "s1^0", "q1", "s1^", "s^2", "s1 ^2", "s-1"],
)
def test_parse_rejects_bad_tokens(text):
    with pytest.raises(ValueError):
        parse_braid_word(text, 3)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        parse_braid_word("s2", 2)
    with pytest.raises(ValueError):
        parse_braid_word("t3", 3)


@pytest.mark.parametrize(
    "text,strands,message",
    [
        # A bad token after a valid token that repeats, and an out-of-range
        # token after it: the first bad token in reading order raises.
        ("s1 t2 s1 s1^-1 t2 x1 s1 s9", 3, "bad token 'x1' in braid word"),
        ("s1 s9 s1 x1", 3, "token 's9' out of range for 3 strands"),
        # An out-of-range token that repeats, and one behind a repeat.
        ("t3 s1 t3 t3", 3, "token 't3' out of range for 3 strands"),
        ("s1 t1 s1 t1 s3 t3 s3", 3, "token 's3' out of range for 3 strands"),
        # A 7-digit exponent after tokens already seen.
        ("s1 t2 s1 t2 s1^-1234567 s1", 3, "a number has more than 6 digits, past the limit of 262144"),
        ("s1 s1 s1234567", 3, "a number has more than 6 digits, past the limit of 262144"),
        # The tokens are counted before any is checked: a bad token that
        # recurs, after a valid one that recurs, still raises first.
        ("s1 s1 x2 y x2", 3, "bad token 'x2' in braid word"),
        ("t2 s3 t2 s3 x2", 3, "token 's3' out of range for 3 strands"),
        # Tokens of the empty word, before, between and after letters.
        ("1 s1 1 x 1 s1", 3, "bad token 'x' in braid word"),
        ("1 11 1", 3, "bad token '11' in braid word"),
        ("s1 s1", MAX_UNIT_LETTERS + 1, "strand count 262145 is more than the limit of 262144"),
        # Below two strands every token is out of range, and only the empty
        # word meets the strand count check.
        ("s1", 1, "token 's1' out of range for 1 strands"),
        ("1", 1, "strand count must be at least 2, got 1"),
        ("", 0, "strand count must be at least 2, got 0"),
        ("1 1", -3, "strand count must be at least 2, got -3"),
    ],
)
def test_parse_errors_name_the_first_bad_token(text, strands, message):
    with pytest.raises(ValueError) as error:
        parse_braid_word(text, strands)
    assert str(error.value) == message


def test_parse_with_repeated_and_empty_tokens():
    word = parse_braid_word("1 s1 1 s1 t2^-1 1 s1 t2^-1 1", 3)
    # The token 1 is neither stored nor counted.
    assert word._stored.tokens == ["s1", "s1", "t2^-1", "s1", "t2^-1"]
    assert word._stored.counts == {"s1": 3, "t2^-1": 2}
    assert exponent_sums(word) == (3, -2) and str(word) == "s1^2 t2^-1 s1 t2^-1"
    for text in ("1", "1 1 1"):
        word = parse_braid_word(text, 3)
        assert word._stored.tokens == [] and exponent_sums(word) == (0, 0) and word.is_empty
    assert parse_braid_word("s1 s1^-1 " * 50, 3).is_empty
    assert str(parse_sp_word("1 a12 b13 a12 1 b13")) == "a12 b13 a12 b13"
    for text, bad in (("a12 a12 a14 a12^1234567", "a14"), ("a13 a13 x2 y x2", "x2")):
        with pytest.raises(ValueError) as error:
            parse_sp_word(text)
        assert str(error.value) == f"bad token {bad!r} in SP word"


def test_equal_letters_of_different_tokens_add_into_one_sum():
    # s1 and s1^1 are two tokens of one letter, each with its own count.
    word = parse_braid_word("s1 s1^1 t2 s1 t2^1 s1^1 s1^-4", 3)
    s1, t2 = Letter("s", 1, 1), Letter("t", 2, 1)
    assert sorted(word._letter_counts()) == [(Letter("s", 1, -4), 1), (s1, 2), (s1, 2), (t2, 1), (t2, 1)]
    assert exponent_sums(word) == (0, 2)
    assert is_trivial_sg3(parse_braid_word("s1 s1^1 s1^-2", 3))
    # c b12 c b12^-1 c^-2 with c = a13 a23, which commutes with b12.
    sp_word = parse_sp_word("a13 a23 b12 a13^1 a23^1 b12^-1 a23^-1 a13^-1 a23^-1 a13^-1")
    assert normal_form._six_sums(sp_word) == dict.fromkeys(SP_NAMES, 0)
    assert is_trivial_sp3(sp_word)


def test_braid_word_names_its_first_bad_letter():
    with pytest.raises(ValueError) as error:
        BraidWord(3, (Letter("s", 1, 1), Letter("t", 3, 1), Letter("s", 5, 2), Letter("t", 3, 1)))
    assert str(error.value) == "letter t3 out of range for 3 strands"
    with pytest.raises(ValueError) as error:
        BraidWord(3, (Letter("s", 4, -1), Letter("x", 1, 1)))
    assert str(error.value) == "letter s4^-1 out of range for 3 strands"
    with pytest.raises(ValueError) as error:
        BraidWord(3, (Letter("s", 1, 1), Letter("x", 1, 1), Letter("s", 4, 1)))
    assert str(error.value) == "unknown generator kind 'x'"


def test_parse_limits_unit_letters():
    limit = MAX_UNIT_LETTERS
    assert parse_braid_word(f"s1^{limit}", 3).unit_length() == limit
    assert parse_braid_word(f"t2^-{limit - 1} s1", 3).unit_length() == limit
    # The limit applies after free reduction, which the parser counts only
    # when the unit letters as written pass the limit: here 400,005 of them
    # reduce to 5.
    assert parse_braid_word(f"s1^{limit} t2 t2^-1", 3).unit_length() == limit
    assert str(parse_braid_word("s1^200000 s1^-200000 s2^5", 3)) == "s2^5"
    assert parse_braid_word("s1^131072 s2 s2^131071", 3).unit_length() == limit
    with pytest.raises(ValueError, match="limit"):
        parse_braid_word(f"s1^{limit} t2", 3)
    with pytest.raises(ValueError, match="limit"):
        parse_braid_word(f"t2^-{limit} s1", 3)
    # The strand count has the same limit.
    assert parse_braid_word("s1", limit).strands == limit
    with pytest.raises(ValueError, match="limit"):
        parse_braid_word("1", limit + 1)


@pytest.mark.parametrize(
    "parse,text,length",
    [
        (lambda text: parse_braid_word(text, 3), "s1^200000 s1^-1 s2^70000", 269999),
        (lambda text: parse_braid_word(text, 3), "s1^200000 t1 t1^-1 s2^62145", MAX_UNIT_LETTERS + 1),
        (lambda text: parse_braid_word(text, 3), f"1 s1^{MAX_UNIT_LETTERS + 1} 1", MAX_UNIT_LETTERS + 1),
        (parse_sp_word, "a12^200000 a13 a13^-1 b12^70000", 270000),
        (parse_sp_word, "b13^-131072 b13^-131072 a23", MAX_UNIT_LETTERS + 1),
        # Recurring tokens of exponent +-1, past the limit by one.
        (lambda text: parse_braid_word(text, 3), "t1 " * (MAX_UNIT_LETTERS + 1), MAX_UNIT_LETTERS + 1),
        (parse_sp_word, "a13 b12 " * (MAX_UNIT_LETTERS // 2) + "b12^-1 b12 a23", MAX_UNIT_LETTERS + 1),
    ],
)
def test_parse_over_the_limit_after_reduction(parse, text, length):
    with pytest.raises(ValueError) as error:
        parse(text)
    assert str(error.value) == f"word has {length} unit letters, more than the limit of {MAX_UNIT_LETTERS}"


def test_parse_bound_counts_the_unit_letters_as_written():
    # |exponent| times count, once per distinct token: a word of many short
    # tokens and one long one stays far under the limit, and keeps its tokens.
    rng = random.Random(41)
    for _ in range(300):
        letters = random_run_letters(rng, 3, max_exp=rng.choice((1, 4, 400)))
        text = " ".join(["1"] + [letter.token() for letter in letters])
        _, bound = words.parse_tokens(text, lambda token: _braid_letter(token, 3))
        assert bound == sum(abs(letter.exponent) for letter in letters), text
    text = "b12 a13 a23 " * 700 + "b12^-300 " + "a23^-1 a13^-1 " * 700
    _, bound = words.parse_tokens(text, _sp_letter)
    assert bound == 3800 and parse_sp_word(text)._stored.__class__ is words._Tokens


def test_reduce_only_constructor_equals_the_public_ones():
    rng = random.Random(37)
    for _ in range(300):
        strands = rng.randrange(2, 6)
        letters = tuple(random_run_letters(rng, strands, max_exp=rng.choice((1, 4, 40))))
        built = BraidWord._reduced(strands, letters)
        assert type(built) is BraidWord and built == BraidWord(strands, letters)
        assert built.strands == strands and built.letters == free_reduce(letters)
        sp_letters = tuple(
            SPLetter(rng.choice(SP_NAMES), rng.choice((-1, 1)) * rng.randint(1, 9))
            for _ in range(rng.randrange(30))
        )
        sp_built = SPWord._reduced(iter(sp_letters))
        assert type(sp_built) is SPWord and sp_built == SPWord(sp_letters)
        assert hash(sp_built) == hash(SPWord(sp_letters))


def test_parsed_word_reduces_on_first_read_and_keeps_the_letters():
    # The parser stores the tokens, the letter of each distinct token and
    # its count, and builds no letter list; the first read of ``letters``
    # builds the letters from the tokens, reduces them, keeps the result
    # and drops the tokens.
    rng = random.Random(53)
    for _ in range(200):
        letters = random_run_letters(rng, 3, max_exp=rng.choice((1, 3)))
        tokens = [letter.token() for letter in letters]
        word = parse_braid_word(" ".join(tokens) or "1", 3)
        stored = word._stored
        assert type(stored) is words._Tokens and stored.tokens == tokens
        assert list(stored.letter_of) == list(stored.counts) == list(dict.fromkeys(tokens))
        assert stored.counts == dict(Counter(tokens))
        assert [stored.letter_of[token] for token in tokens] == letters
        reduced = word.letters
        assert reduced == free_reduce(letters) == BraidWord(3, letters).letters
        assert word.letters is reduced and word._stored is reduced
        assert word == BraidWord(3, letters) and hash(word) == hash(BraidWord(3, letters))
    sp_word = parse_sp_word("a12 b12 b12^-1 a12^2 a12 a13")
    assert sp_word._stored.counts == {"a12": 2, "b12": 1, "b12^-1": 1, "a12^2": 1, "a13": 1}
    assert sp_word.letters == (SPLetter("a12", 4), SPLetter("a13", 1)) == sp_word._stored
    assert str(parse_braid_word("s1 t2 t2^-1 s1^-1 s2", 3)) == "s2"


def test_a_late_first_read_returns_the_letters_another_read_stored():
    # A thread whose read of ``letters`` missed the slot just before another
    # thread stored the reduced letters reduces them again, to equal
    # letters, whether a reader has since turned them into their tokens or
    # not, and leaves ``letters`` set.
    for read_sums in (False, True):
        word = parse_braid_word("s1 s1 t2 t2^-1", 3)
        letters = word.letters
        if read_sums:
            assert exponent_sums(word) == (2, 0)
        assert words.FreeWord.__getattr__(word, "letters") == letters == (Letter("s", 1, 2),)
        assert BraidWord.letters.__get__(word) == letters


def test_sum_stages_reduce_no_word_they_refute(monkeypatch):
    calls = []

    def counting_free_reduce(letters):
        letters = list(letters)
        calls.append(letters)
        return free_reduce(letters)

    class WatchedLetters(dict):
        def __getitem__(self, token):
            raise AssertionError(f"the letter of {token!r} was looked up")

    def watched(word):
        # The map from token to letter refuses lookups, so building the
        # letter list from the tokens fails; reading its values does not.
        stored = word._stored._replace(letter_of=WatchedLetters(word._stored.letter_of))
        object.__setattr__(word, "_stored", stored)
        return word

    monkeypatch.setattr(words, "free_reduce", counting_free_reduce)
    with pytest.raises(AssertionError, match="was looked up"):
        watched(parse_braid_word("s1", 3)).letters
    assert not is_trivial_sg3(watched(parse_braid_word("s1 s2 s1 s1 t2 s1", 3)))
    assert not is_trivial_sp3(watched(parse_sp_word("a13 b12 a13 b12^-1")))
    assert calls == []
    # A trivial word goes through pi, the walk and the reducer, which read
    # its tokens: no braid letter is reduced, and the rewrite reduces its
    # SP_3 word once.
    assert is_trivial_sg3(parse_braid_word("s1 t1 s1^-1 t1^-1", 3))
    assert len(calls) == 1 and all(type(letter) is SPLetter for letter in calls[0])


def test_threads_reading_one_parsed_word_see_equal_letters():
    # More threads than cores read the letters and the sums of the same
    # fresh parsed words while the interpreter switches threads as often as
    # it can, so that several threads reduce one word at once.
    rng = random.Random(59)
    texts = [" ".join(letter.token() for letter in random_run_letters(rng, 3, max_exp=2)) or "1" for _ in range(1000)]
    built = [BraidWord(3, parse_braid_word(text, 3).letters) for text in texts]
    expected = [(word.letters, exponent_sums(word), hash(word), is_trivial_sg3(word)) for word in built]
    shared = [parse_braid_word(text, 3) for text in texts]
    seen = [[] for _ in range(8)]

    def read(out):
        for word in shared:
            out.append((word.letters, exponent_sums(word), hash(word), is_trivial_sg3(word)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected for out in seen)
    # Two threads that reduce one word at once each store their own tuple,
    # and a thread that decides it may turn either into tokens: the letters
    # and verdicts stay those of the built word.
    assert shared == built
    assert [(word.letters, is_trivial_sg3(word)) for word in shared] == [(e[0], e[-1]) for e in expected]


def test_parse_refuses_long_numbers():
    # Six digits parse as before; seven or more are refused before int()
    # runs, in an index as in an exponent, without repeating the digits.
    assert parse_braid_word("s1^999999 s1^-999999", 3).is_empty
    assert parse_sp_word("a12^-999999 a12^999999").is_empty
    nines = "9" * 5000
    for parse in (
        lambda: parse_braid_word("s1^1000000 s1^-1000000", 3),
        lambda: parse_braid_word(f"s1^-{nines} t1", 3),
        lambda: parse_braid_word(f"s{nines}", 3),
        lambda: parse_sp_word(f"a12^{nines}"),
    ):
        with pytest.raises(ValueError, match="limit") as error:
            parse()
        assert "999" not in str(error.value) and "1000000" not in str(error.value)


def test_constructors_read_letters_from_any_iterable():
    letters = (Letter("s", 1, 1), Letter("t", 2, -1), Letter("s", 1, 2))
    sp_letters = (SPLetter("a13", 1), SPLetter("b12", -2), SPLetter("a13", 3))
    for make in (tuple, list, iter, lambda letters: (letter for letter in letters)):
        assert BraidWord(3, make(letters)) == BraidWord(3, letters)
        assert str(BraidWord(3, make(letters))) == "s1 t2^-1 s1^2"
        assert SPWord(make(sp_letters)) == SPWord(sp_letters)
        assert str(SPWord(make(sp_letters))) == "a13 b12^-2 a13^3"
    with pytest.raises(ValueError) as error:
        BraidWord(3, (letter for letter in (Letter("s", 1, 1), Letter("s", 5, 1))))
    assert str(error.value) == "letter s5 out of range for 3 strands"
    with pytest.raises(ValueError) as error:
        BraidWord(3, iter([Letter("s", 5, 1)]))
    assert str(error.value) == "letter s5 out of range for 3 strands"
    with pytest.raises(ValueError) as error:
        SPWord(letter for letter in (SPLetter("a12", 1), SPLetter("c12", 1)))
    assert str(error.value) == "unknown SP_3 generator 'c12'"


def test_token_cache_key_holds_the_strand_count():
    # A token valid on more strands is cached for that strand count only.
    assert str(parse_braid_word("s3", 4)) == "s3"
    with pytest.raises(ValueError) as error:
        parse_braid_word("s3", 3)
    assert str(error.value) == "token 's3' out of range for 3 strands"
    assert str(parse_braid_word("t2", 3)) == "t2"
    with pytest.raises(ValueError) as error:
        parse_braid_word("t2", 2)
    assert str(error.value) == "token 't2' out of range for 2 strands"


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (lambda text: parse_braid_word(text, 3), "s1 x1", "bad token 'x1' in braid word"),
        (lambda text: parse_braid_word(text, 3), "s1 s3", "token 's3' out of range for 3 strands"),
        (lambda text: parse_braid_word(text, 3), "s1^1234567", "a number has more than 6 digits, past the limit of 262144"),
        (parse_sp_word, "a12 a14", "bad token 'a14' in SP word"),
        (parse_sp_word, "b23^-1234567", "a number has more than 6 digits, past the limit of 262144"),
    ],
)
def test_token_cache_never_stores_an_error(parse, text, message):
    for _ in range(3):
        with pytest.raises(ValueError) as error:
            parse(text)
        assert str(error.value) == message


def test_parses_agree_with_an_empty_token_cache():
    rng = random.Random(41)
    braid_words = [random_word(rng, strands=rng.randrange(2, 6), max_len=30) for _ in range(200)]
    braid_texts = [(str(word), word.strands) for word in braid_words]
    sp_texts = [str(random_sp_word(rng, max_len=30)) for _ in range(200)]

    def parse_all():
        return [parse_braid_word(*args) for args in braid_texts], [parse_sp_word(text) for text in sp_texts]

    parse_all()
    cached = parse_all()
    _braid_letter.cache_clear()
    _sp_letter.cache_clear()
    assert _braid_letter.cache_info().currsize == _sp_letter.cache_info().currsize == 0
    fresh = parse_all()
    assert fresh[0] == braid_words
    assert fresh == cached
    assert [list(map(str, words)) for words in fresh] == [list(map(str, words)) for words in cached]


def test_token_cache_stays_bounded_on_hostile_input():
    # 12,000 distinct tokens in one word, which cancels to the empty word.
    braid_text = " ".join(f"s1^{k} t2^{k} t2^-{k} s1^-{k}" for k in range(1, 3001))
    sp_text = " ".join(f"a12^{k} b23^{k} b23^-{k} a12^-{k}" for k in range(1, 3001))
    for _ in range(2):
        assert parse_braid_word(braid_text, 3).is_empty
        assert parse_sp_word(sp_text).is_empty
    assert _braid_letter.cache_info().currsize <= 1024
    assert _sp_letter.cache_info().currsize <= 1024


def test_concat_cancels_inverse():
    s1 = parse_braid_word("s1", 3)
    assert concat(s1, s1.inverse()).is_empty


def test_concat_interior_cancellation():
    left = parse_braid_word("s1 t1", 3)
    right = parse_braid_word("t1^-1 s2", 3)
    assert str(concat(left, right)) == "s1 s2"


def test_invert_reverses_and_flips():
    word = parse_braid_word("s1 t2", 3)
    assert str(word.inverse()) == "t2^-1 s1^-1"


def test_concat_rejects_strand_mismatch():
    with pytest.raises(ValueError):
        concat(parse_braid_word("s1", 2), parse_braid_word("s1", 3))


def test_word_times_inverse_is_empty():
    rng = random.Random(23)
    for _ in range(100):
        word = random_word(rng)
        assert concat(word, word.inverse()).is_empty


def test_free_reduction_is_confluent():
    rng = random.Random(31)
    for _ in range(100):
        letters = unit_letters(random_word(rng, max_len=30))
        cut = rng.randrange(len(letters) + 1)
        direct = BraidWord(3, tuple(letters))
        split = concat(BraidWord(3, tuple(letters[:cut])), BraidWord(3, tuple(letters[cut:])))
        assert direct == split
        assert direct.inverse() == concat(
            BraidWord(3, tuple(letters[cut:])).inverse(),
            BraidWord(3, tuple(letters[:cut])).inverse(),
        )


def test_sg3_relator_list():
    relators = sg3_relators()
    assert len(relators) == 5
    assert str(relators[0]) == "s1 t1 s1^-1 t1^-1"
    assert str(relators[3]) == "s1 s2 t1 s2^-1 s1^-1 t2^-1"


def test_sg3_relators_have_trivial_projection():
    # Independent check: compose the transpositions by hand.
    for relator in sg3_relators():
        images = [1, 2, 3]
        for letter in unit_letters(relator):
            i = letter.index
            images = [
                {i: i + 1, i + 1: i}.get(image, image) for image in images
            ]
        assert images == [1, 2, 3]


def test_exponent_sums():
    assert exponent_sums(parse_braid_word("s1 t1 s1^-1 t1^-1", 3)) == (0, 0)
    assert exponent_sums(parse_braid_word("s1^2 t2", 3)) == (2, 1)
    delta_word = parse_braid_word("s1^2 s2 s1^2 s2^-1 s2^2", 3)
    assert exponent_sums(delta_word) == (6, 0)
    # Recurring tokens count once per occurrence, parsed or built.
    assert exponent_sums(parse_braid_word("s1 t2 s1 s1 t2^-3 s2^2 s1^-1", 3)) == (4, -2)
    assert exponent_sums(parse_braid_word("t1 " * 7 + "s2^-1 " * 3, 3)) == (-3, 7)
    assert exponent_sums(BraidWord(3, (Letter("s", 1, 1), Letter("t", 1, 1)) * 5)) == (5, 5)


def test_exponent_sums_invariant_under_relators():
    rng = random.Random(47)
    for relator in sg3_relators():
        for _ in range(20):
            word = random_word(rng)
            padded = concat(word, conjugate(relator, random_word(rng)))
            assert exponent_sums(padded) == exponent_sums(word)


def naive_free_reduce(letters):
    """Drop zero exponents, then merge the first adjacent pair of one
    generator, again and again until nothing changes."""
    word = [letter for letter in letters if letter[-1]]
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            left, right = word[i], word[i + 1]
            if left[:-1] == right[:-1]:
                merged = left[-1] + right[-1]
                word[i : i + 2] = [left._make(left[:-1] + (merged,))] if merged else []
                changed = True
                break
    return tuple(word)


def test_free_reduce_matches_naive_reduction():
    rng = random.Random(17)
    makers = (
        lambda e: Letter(rng.choice("st"), rng.randint(1, 2), e),
        lambda e: SPLetter(rng.choice(SP_NAMES[:3]), e),
    )
    for trial in range(2000):
        make = makers[trial % 2]

        def piece(longest):
            return [make(rng.randint(-3, 3)) for _ in range(rng.randrange(longest + 1))]

        # A run and its inverse, so that cancellations cascade over long
        # stretches and expose merges far apart in the input.
        inner = piece(40)
        cancelling = inner + [letter.inverse() for letter in reversed(inner)]
        letters = piece(12) + cancelling + piece(12)
        reduced = free_reduce(letters)
        assert reduced == naive_free_reduce(letters)
        assert all(type(letter) is type(letters[0]) and letter[-1] for letter in reduced)

    def run(letter, length, total):
        """``length`` letters of ``letter``'s generator, zero exponents
        among them, whose exponents add up to ``total``."""
        exponents = [rng.randint(-3, 3) for _ in range(length - 1)]
        return [letter._replace(exponent=e) for e in exponents + [total - sum(exponents)]]

    # Long runs of one generator.  A run that adds up to 0 between two
    # letters of another generator exposes the one below, and the run that
    # follows it must merge with it; that run may cancel it in turn.
    for trial in range(200):
        make = makers[trial % 2]
        letters = [make(rng.choice((-1, 1))) for _ in range(rng.randrange(4))]
        for _ in range(rng.randrange(1, 4)):
            below = make(rng.choice((-3, -2, -1, 1, 2, 3)))
            letters += [below] + run(make(1), rng.randrange(2, 120), 0)
            letters += run(below, rng.randrange(1, 120), rng.choice((-below.exponent, rng.randint(-3, 3))))
        letters += run(make(1), rng.randrange(1, 120), rng.randint(-3, 3))
        reduced = free_reduce(letters)
        assert reduced == naive_free_reduce(letters)
        assert all(type(letter) is type(letters[0]) and letter[-1] for letter in reduced)
