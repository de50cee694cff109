import random

import pytest

from singbraid import (
    Letter,
    SchreierGenerator,
    SPLetter,
    SPWord,
    conjugate_by_sg3_generator,
    equal_sp3,
    parse_braid_word,
    parse_sp_word,
    pi,
    presentation_relators,
    rewrite_tau,
    rewrite_to_sp3,
    sp2_normal_form,
    sp3_to_sg3,
    verify_presentation,
)
from singbraid import sp3 as sp3_module
from singbraid.normal_form import eliminate_a12
from singbraid.rewriting import coset_table
from singbraid.verify import GROUP_CONJUGATION, GROUP_EXPRESSION, GROUP_PRESENTATION, GROUP_REWRITTEN
from singbraid.words import MAX_UNIT_LETTERS, substitute
from helpers import random_kernel_word, random_sp_word, unit_letters


def gen(rep_text: str, letter_token: str) -> SchreierGenerator:
    rep = parse_braid_word(rep_text, 3)
    return SchreierGenerator(rep, Letter(letter_token[0], int(letter_token[1:]), 1))


def row(rep_text: str, letter_token: str) -> SPWord:
    """The row of a Schreier generator as the rewrite reads it: the rewrite
    of the generator's ambient word."""
    generator = gen(rep_text, letter_token)
    return rewrite_to_sp3(next(e.ambient for e in coset_table(3).generators if e.generator == generator))


def literal_row(generator: SchreierGenerator) -> SPWord:
    """A generator's row parsed from the literal rows, found by name."""
    return parse_sp_word(sp3_module._EXPRESSION_ROWS[str(generator.rep), generator.letter.token()])


def test_sp_word_parsing_and_reduction():
    word = parse_sp_word("a12 a12^-1 b13^2")
    assert str(word) == "b13^2"
    assert parse_sp_word("1").is_empty
    with pytest.raises(ValueError):
        parse_sp_word("t1")
    with pytest.raises(ValueError):
        parse_sp_word("a14")


def test_expression_examples():
    assert str(row("s2", "t1")) == "b13 a13^-1"
    assert str(row("s1", "t2")) == "a23^-1 b13 a13^-1 a23"
    assert str(row("s1 s2 s1", "t2")) == "b12"
    assert row("1", "s1").is_empty
    assert row("s2 s1", "s2").is_empty


def test_rewrite_to_sp3_examples():
    assert str(rewrite_to_sp3(parse_braid_word("s1^2", 3))) == "a12"
    # The two equal Schreier factors of s1^4 merge once they are SP_3 letters.
    assert str(rewrite_to_sp3(parse_braid_word("s1^4", 3))) == "a12^2"
    assert str(rewrite_to_sp3(parse_braid_word("t1 s1^-1", 3))) == "b12 a12^-1"
    twist = rewrite_to_sp3(parse_braid_word("s1 s2 s1 s1 s2 s1", 3))
    assert equal_sp3(twist, parse_sp_word("a12 a13 a23"))


def test_rewrite_to_sp3_rejects_bad_input():
    with pytest.raises(ValueError):
        rewrite_to_sp3(parse_braid_word("s1", 3))
    with pytest.raises(ValueError):
        rewrite_to_sp3(parse_braid_word("s1^2", 4))


def test_sp3_to_sg3_substitution():
    assert str(sp3_to_sg3(parse_sp_word("a13"))) == "s2 s1^2 s2^-1"
    assert str(sp3_to_sg3(parse_sp_word("b23^-1"))) == "t2^-1 s2^-1"
    assert str(sp3_to_sg3(parse_sp_word("a12^2"))) == "s1^4"


def test_sp3_to_sg3_lands_in_kernel():
    rng = random.Random(211)
    for _ in range(100):
        assert pi(sp3_to_sg3(random_sp_word(rng))).is_identity


def test_round_trip_through_sg3():
    rng = random.Random(223)
    for _ in range(200):
        word = random_sp_word(rng)
        assert equal_sp3(rewrite_to_sp3(sp3_to_sg3(word)), word)


def test_presentation_relators():
    relators = presentation_relators()
    assert len(relators) == 8
    texts = [str(r) for r in relators]
    assert "a23 b23 a23^-1 b23^-1" in texts
    assert "b12 a13 a23 b12^-1 a23^-1 a13^-1" in texts
    assert "a12 b23 a12^-1 a23^-1 a13^-1 b23^-1 a13 a23" in texts


def test_sp_word_parsing_limits_unit_letters():
    limit = MAX_UNIT_LETTERS
    assert parse_sp_word(f"a12^{limit}").letters == (SPLetter("a12", limit),)
    assert len(parse_sp_word(f"b13^{limit - 1} a23^-1").letters) == 2
    assert parse_sp_word(f"a12^{limit} b12 b12^-1").letters == (SPLetter("a12", limit),)
    assert str(parse_sp_word("a12^200000 a12^-200000 b13^5")) == "b13^5"
    assert parse_sp_word("a13^131072 b23 b23^131071").unit_length() == limit
    with pytest.raises(ValueError, match="limit"):
        parse_sp_word(f"a12^{limit} b12")
    with pytest.raises(ValueError, match="limit"):
        parse_sp_word(f"b13^-{limit} a23^-1")


def test_conjugation_examples():
    # The rewriting walk prints a word equal in SP_3 to the table row, not
    # the row itself: the s1 row of a23 is a13.
    a23 = parse_sp_word("a23")
    image = conjugate_by_sg3_generator(a23, Letter("s", 1, 1))
    assert str(image) == "a12^-1 a23^-1 a13 a23 a12"
    assert equal_sp3(image, parse_sp_word("a13"))
    b23 = parse_sp_word("b23")
    image = conjugate_by_sg3_generator(b23, Letter("t", 1, 1))
    assert str(image) == "b12^-1 a23^-1 b13 a23 b12"
    image = conjugate_by_sg3_generator(b23, Letter("t", 1, -1))
    assert str(image) == "b12 a12^-1 a23^-1 b13 a23 a12 b12^-1"
    b13 = parse_sp_word("b13")
    image = conjugate_by_sg3_generator(b13, Letter("t", 1, -1))
    assert str(image) == "b12 a12^-1 b23 a12 b12^-1"
    a12 = parse_sp_word("a12")
    image = conjugate_by_sg3_generator(a12, Letter("t", 2, -1))
    assert str(image) == "b23 a23^-1 a13 a23 b23^-1"
    image = conjugate_by_sg3_generator(parse_sp_word("a13"), Letter("t", 2, -1))
    assert str(image) == "b23 a12 b23^-1"


def _apply_rows(word: SPWord, token: str, times: int = 1) -> SPWord:
    """The forward rows of ``token`` substituted letterwise ``times`` times:
    x -> g^-k x g^k by the paper's table alone."""
    for _ in range(times):
        word = SPWord(substitute(word.letters, sp3_module.ACTION_TABLES[token]))
    return word


def test_conjugation_on_every_generator_letter():
    # 4 generators x +-1 x 6 letters.  Forward, the image equals the row;
    # backward, the rows substituted into the image give the letter back.
    for token, rows in sp3_module.ACTION_TABLES.items():
        forward = Letter(token[0], int(token[1]), 1)
        for name in sp3_module.SP_NAMES:
            letter = parse_sp_word(name)
            assert equal_sp3(conjugate_by_sg3_generator(letter, forward), rows[name])
            back = conjugate_by_sg3_generator(letter, forward.inverse())
            assert equal_sp3(_apply_rows(back, token), letter)


def test_conjugation_round_trips():
    rng = random.Random(227)
    for token in ("s1", "s2", "t1", "t2"):
        letter = Letter(token[0], int(token[1]), 1)
        inverse = Letter(token[0], int(token[1]), -1)
        for _ in range(20):
            word = random_sp_word(rng, max_len=8)
            there = conjugate_by_sg3_generator(word, letter)
            assert equal_sp3(conjugate_by_sg3_generator(there, inverse), word)
            back = conjugate_by_sg3_generator(word, inverse)
            assert equal_sp3(conjugate_by_sg3_generator(back, letter), word)


def test_conjugation_respects_sg3_relations():
    from singbraid import sg3_relators

    for name in sp3_module.SP_NAMES:
        word = parse_sp_word(name)
        for relator in sg3_relators():
            image = word
            for letter in unit_letters(relator):
                image = conjugate_by_sg3_generator(image, letter)
            assert equal_sp3(image, word)


def test_conjugation_is_homomorphic():
    rng = random.Random(229)
    letter = Letter("t", 2, 1)
    for _ in range(30):
        u, v = random_sp_word(rng, 8), random_sp_word(rng, 8)
        assert equal_sp3(
            conjugate_by_sg3_generator(u * v, letter),
            conjugate_by_sg3_generator(u, letter) * conjugate_by_sg3_generator(v, letter),
        )
        assert equal_sp3(
            conjugate_by_sg3_generator(u.inverse(), letter),
            conjugate_by_sg3_generator(u, letter).inverse(),
        )


def test_conjugation_matches_engine():
    # Conjugation through the engine's walk agrees with the forward rows
    # substituted letterwise e times, for e up to 3 in both directions.
    rng = random.Random(233)
    for token in sp3_module.ACTION_TABLES:
        for _ in range(10):
            word = random_sp_word(rng, max_len=6)
            for e in (1, 2, 3):
                letter = Letter(token[0], int(token[1]), e)
                assert equal_sp3(conjugate_by_sg3_generator(word, letter), _apply_rows(word, token, e))
                back = conjugate_by_sg3_generator(word, letter.inverse())
                assert equal_sp3(_apply_rows(back, token, e), word)


def test_conjugation_by_a12_rules():
    # Conjugating twice by s1 realises x -> a12^-1 x a12; the four images
    # of the remaining generators are fixed data worth pinning.
    expected = {
        "a13": "a13 a23 a13 a23^-1 a13^-1",
        "a23": "a13 a23 a13^-1",
        "b13": "a13 a23 b13 a23^-1 a13^-1",
        "b23": "a13 b23 a13^-1",
    }
    s1 = Letter("s", 1, 1)
    for name, image_text in expected.items():
        image = conjugate_by_sg3_generator(
            conjugate_by_sg3_generator(parse_sp_word(name), s1), s1
        )
        assert equal_sp3(image, parse_sp_word(image_text))


def test_conjugation_rejects_bad_generator():
    with pytest.raises(ValueError):
        conjugate_by_sg3_generator(parse_sp_word("a12"), Letter("s", 3, 1))


def test_sp2_normal_form():
    assert sp2_normal_form(parse_sp_word("a12 b12 a12^-1 b12^-1")) == (0, 0)
    assert sp2_normal_form(parse_sp_word("b12^3")) == (0, 3)
    assert sp2_normal_form(parse_sp_word("a12 b12 a12 b12")) == (2, 2)
    assert sp2_normal_form(SPWord()).is_trivial
    with pytest.raises(ValueError):
        sp2_normal_form(parse_sp_word("a13"))


def test_verify_presentation_all_pass():
    checks = verify_presentation()
    assert all(check.passed for check in checks)
    groups = [check.group for check in checks]
    suites = (GROUP_REWRITTEN, GROUP_PRESENTATION, GROUP_CONJUGATION, GROUP_EXPRESSION)
    assert [groups.count(group) for group in suites] == [30, 8, 24, 19]
    assert len(checks) == 81


def test_verify_presentation_subset():
    checks = verify_presentation([GROUP_PRESENTATION])
    assert len(checks) == 8 and all(check.passed for check in checks)
    assert {check.group for check in checks} == {GROUP_PRESENTATION}


def test_verify_presentation_rejects_unknown_group():
    with pytest.raises(ValueError):
        verify_presentation(["nonsense"])


def test_verify_presentation_rejects_empty_selection():
    # A report of no checks would pass vacuously.
    with pytest.raises(ValueError, match="no check group"):
        verify_presentation([])


def test_verify_detects_corrupt_action_row(monkeypatch):
    corrupted = dict(sp3_module.ACTION_TABLES["t1"])
    corrupted["b23"] = parse_sp_word("b13")
    monkeypatch.setitem(sp3_module.ACTION_TABLES, "t1", corrupted)
    checks = verify_presentation([GROUP_CONJUGATION])
    failed = [check.label for check in checks if not check.passed]
    assert failed == ["b23^t1"]


def test_verify_detects_corrupt_expression_row(monkeypatch):
    # A corrupt row coherently redefines its generator on both sides of the
    # rewrite, so the rewritten relators that route through the row
    # asymmetrically detect it.  The expression check detects it as well:
    # ``b13 a13`` moves the crossing exponent sum of the SG_3 word by 4, and
    # is_trivial_sg3 reads the sums before any row is looked up.
    # The one table is rebuilt from the corrupt literal rows, as if the row
    # were wrong in the source.
    corrupt = {**sp3_module._EXPRESSION_ROWS, ("s2", "t1"): "b13 a13"}
    monkeypatch.setattr(sp3_module, "_EXPRESSION_ROWS", corrupt)
    monkeypatch.setattr(sp3_module, "_FACTOR_ROWS", sp3_module._factor_rows())
    checks = verify_presentation()
    failed_groups = {check.group for check in checks if not check.passed}
    assert GROUP_REWRITTEN in failed_groups
    assert GROUP_EXPRESSION in failed_groups


def test_expression_rows_must_name_each_generator_once(monkeypatch):
    assert sp3_module._factor_rows() == sp3_module._FACTOR_ROWS
    rows = sp3_module._EXPRESSION_ROWS
    dropped = {key: text for key, text in rows.items() if key != ("s2", "t1")}
    not_a_rep = {
        ("s2 s1 s2" if rep == "s1 s2 s1" else rep, letter): text for (rep, letter), text in rows.items()
    }
    extra = {**rows, ("s2 s1 s2", "t1"): "b23"}
    for corrupt in (dropped, not_a_rep, extra):
        monkeypatch.setattr(sp3_module, "_EXPRESSION_ROWS", corrupt)
        with pytest.raises(RuntimeError):
            sp3_module._factor_rows()


def test_walk_factors_find_their_rows_by_id():
    # The rows are one list indexed by the id of each generator of the coset
    # table, so the lookup of a factor the walk emits never compares words;
    # each id holds the literal row named by the generator's
    # representative and letter.
    table = coset_table(3)
    emitted = [factor for row in table.moves.values() for _, out in row for factor in out]
    assert len(emitted) == 2 * 19
    for factor in emitted:
        generator, exponent = factor
        assert table.generators[generator.id].generator is generator
        assert sp3_module._FACTOR_ROWS[generator.id][exponent] == (literal_row(generator) ** exponent).letters


def test_reduce_only_builds_equal_the_checked_constructor():
    # rewrite_to_sp3 skips the name check of SPWord, since its letters come
    # from the checked rows; eliminate_a12 builds no word at all.
    rng = random.Random(29)
    for _ in range(300):
        kernel = random_kernel_word(rng, 3, max_exp=rng.choice((1, 4, 40)))
        factors = rewrite_tau(kernel).factors
        letters = tuple(letter for g, e in factors for letter in (literal_row(g) ** e).letters)
        built = rewrite_to_sp3(kernel)
        assert type(built) is SPWord and built == SPWord(letters)
        assert all(type(letter) is SPLetter for letter in built.letters)

        word = random_sp_word(rng, 30) ** rng.choice((1, 3))
        word = SPWord(tuple(letter._replace(exponent=letter.exponent * rng.randint(1, 9)) for letter in word.letters))
        delta, residual = eliminate_a12(word)
        assert delta == sum(letter.exponent for letter in word.letters if letter.name == "a12")
        assert residual is word


def test_public_sp_word_still_checks_names():
    with pytest.raises(ValueError, match="unknown SP_3 generator 'a14'"):
        SPWord((SPLetter("a13", 1), SPLetter("a14", 1)))
