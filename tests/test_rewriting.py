import math
import random
import sys

import pytest

from singbraid import (
    BraidWord,
    Letter,
    SchreierGenerator,
    SchreierWord,
    concat,
    parse_braid_word,
    rewrite_tau,
)
from singbraid import permutations, words
from singbraid.rewriting import coset_table
from singbraid.sp3 import parse_sp_word, rewrite_to_sp3
from helpers import conjugated_relators, coset_rep, random_pi_trivial, unreduced_braid_text
import reference_reduction as reference


def gen(rep_text: str, letter_token: str) -> SchreierGenerator:
    rep = parse_braid_word(rep_text, 3)
    return SchreierGenerator(rep, Letter(letter_token[0], int(letter_token[1:]), 1))


def ambient(generator: SchreierGenerator) -> BraidWord:
    """The ambient word of a generator, read off its row of the coset table."""
    return next(e.ambient for e in coset_table(generator.rep.strands).generators if e.generator == generator)


def test_generator_word_examples():
    assert ambient(gen("1", "s1")).is_empty
    assert str(ambient(gen("s2 s1", "s1"))) == "s2 s1^2 s2^-1"
    assert str(ambient(gen("s1 s2 s1", "t2"))) == "s1 s2 s1 t2 s1^-1 s2^-1"
    # The reference composes the same words from the projection.
    for entry in coset_table(3).generators:
        assert reference._ambient(entry.generator) == entry.ambient


def test_generator_word_has_trivial_projection():
    from singbraid import pi

    for entry in coset_table(3).generators:
        assert pi(entry.ambient).is_identity


def test_fresh_schreier_generator_finds_table_entries():
    # Hash and equality are by value: a generator built anew is found in
    # the coset table, which holds other objects, and so is its ambient
    # word, whose rewrite reads the generator's row.
    fresh = gen("s2 s1", "t1")
    emitted = [g for row in coset_table(3).moves.values() for _, out in row for g, _ in out]
    entry = next(g for g in emitted if g == fresh)
    assert entry is not fresh
    assert hash(entry) == hash(fresh)
    assert rewrite_to_sp3(ambient(fresh)) == parse_sp_word("b13")
    assert {fresh: 1}[entry] == 1
    assert fresh != gen("s2 s1", "t2") and fresh != gen("s1 s2", "t1") and fresh != "S[s2 s1,t1]"


def test_walk_of_an_ambient_word_emits_its_generator_alone():
    # verify --table reads each row as the rewrite of its generator's
    # ambient word, which is the row itself only because of this.
    entries = coset_table(3).generators
    assert len(entries) == 24
    for entry in entries:
        expected = () if entry.ambient.is_empty else ((entry.generator, 1),)
        assert rewrite_tau(entry.ambient).factors == expected, entry.generator
    assert sum(entry.ambient.is_empty for entry in entries) == 5


def test_schreier_generator_requires_bare_letter():
    with pytest.raises(ValueError):
        SchreierGenerator(parse_braid_word("s1", 3), Letter("s", 1, -1))


def test_table_readers_call_no_pi(monkeypatch):
    # The coset table tells cosets apart by their image tuples, and every
    # reader of the generators goes through it, so none of them projects.
    def refuse(word):
        raise AssertionError("pi called")

    for module in [m for name, m in sys.modules.items() if name.startswith("singbraid")]:
        for attr, value in list(vars(module).items()):
            if value is permutations.pi:
                monkeypatch.setattr(module, attr, refuse)
    coset_table.cache_clear()
    for n in range(2, 7):
        assert len(coset_table(n).generators) == math.factorial(n) * 2 * (n - 1)
    assert str(ambient(gen("s1 s2 s1", "t2"))) == "s1 s2 s1 t2 s1^-1 s2^-1"
    word = parse_braid_word("s1^2 t1 s1^-2 t1^-1", 3)
    assert str(rewrite_tau(word)) == "S[s1,s1] S[1,t1] S[s1,s1]^-1 S[1,t1]^-1"


def test_coset_table_is_built_once():
    assert coset_table(6) is coset_table(6)
    assert coset_table(6).generators is coset_table(6).generators


def test_enumerate_n2():
    entries = coset_table(2).generators
    assert len(entries) == 4
    table = {(str(e.generator.rep), e.generator.letter.token()): str(e.ambient) for e in entries}
    assert table == {
        ("1", "s1"): "1",
        ("1", "t1"): "t1 s1^-1",
        ("s1", "s1"): "s1^2",
        ("s1", "t1"): "s1 t1",
    }


def test_enumerate_n3_counts():
    entries = coset_table(3).generators
    assert len(entries) == 24
    trivial = {
        (str(e.generator.rep), e.generator.letter.token()) for e in entries if e.trivial
    }
    assert trivial == {
        ("1", "s1"),
        ("1", "s2"),
        ("s1", "s2"),
        ("s2", "s1"),
        ("s1 s2", "s1"),
    }
    assert sum(not e.trivial for e in entries) == 19


def test_rewrite_examples():
    assert str(rewrite_tau(parse_braid_word("s1^2", 3))) == "S[s1,s1]"
    assert str(rewrite_tau(parse_braid_word("t1 s1^-1", 3))) == "S[1,t1]"
    assert str(rewrite_tau(parse_braid_word("s2 s1^2 s2^-1", 3))) == "S[s2 s1,s1]"
    # Schreier words cancel inverse factors but never merge equal ones.
    assert str(rewrite_tau(parse_braid_word("s1^4", 3))) == "S[s1,s1] S[s1,s1]"


def test_every_unit_letter_acts_as_an_involution():
    for n in range(2, 7):
        moves = coset_table(n).moves
        for u, row in moves.items():
            for i in range(len(row)):
                assert moves[u][moves[u][i][0]][0] == i


# Exponents of the syllable a^e that the walk reads from each coset.  The
# unit-stepping reference steps the small ones itself; 2^17 unit steps per
# coset would take it minutes, so the large ones are checked against its
# steps of a and a^2 (see test_large_syllables_repeat_the_reference_steps).
SMALL_EXPONENTS = (1, 2, 3, 4, 5)
LARGE_EXPONENTS = (2**17, 2**17 + 1)


def syllable_sites(n, cosets=None):
    """Representatives with unit letters of n strands: on up to 4 strands
    every coset with every unit letter, on more one seeded unit letter per
    coset, which keeps 720 cosets x 20 letters on 6 strands out of the run.
    ``cosets`` takes a seeded sample of that many cosets instead of all."""
    rng = random.Random(n)
    table = coset_table(n)
    units = [Letter(a.kind, a.index, sign) for a in table.letters for sign in (1, -1)]
    reps = table.elements if cosets is None else rng.sample(table.elements, min(cosets, len(table.elements)))
    for rep in reps:
        for letter in units if n <= 4 and cosets is None else [rng.choice(units)]:
            yield rep, letter


def rewrite_syllable(rep, letter, exponent, end):
    """``rewrite_tau`` of rep a^e end^-1: the factors the walk emits for the
    syllable a^e from the coset of ``rep``, since the representatives walk
    along tree edges and emit nothing.  It raises unless a^e leads the coset
    of ``rep`` to the coset of ``end``."""
    syllable = BraidWord(rep.strands, (letter._replace(exponent=letter.exponent * exponent),))
    return rewrite_tau(concat(concat(rep, syllable), end.inverse())).factors


@pytest.mark.parametrize("n", range(2, 7))
def test_syllables_match_the_unit_stepping_rewriter(n):
    for rep, letter in syllable_sites(n):
        unit = BraidWord(n, (letter,))
        for e in SMALL_EXPONENTS:
            factors, end = reference.walk(unit ** e, rep)
            assert rewrite_syllable(rep, letter, e, end) == tuple(factors)


@pytest.mark.parametrize("n", range(2, 7))
def test_large_syllables_repeat_the_reference_steps(n):
    """The reference's steps are memoryless: once its two steps a a lead
    back to the coset they start from, its steps of a^e are those two
    repeated |e| // 2 times, then the first once more for odd |e|.  Each
    such syllable emits up to 2^17 factors, so on 4 strands and more a
    seeded sample of 24 cosets is read."""
    # The table's generator equal to each of the reference's, so that the
    # long factor tuples compare by identity.
    own = {entry.generator: entry.generator for entry in coset_table(n).generators}
    for rep, letter in syllable_sites(n, None if n <= 3 else 24):
        unit = BraidWord(n, (letter,))
        once, there = reference.walk(unit, rep)
        twice, back = reference.walk(unit ** 2, rep)
        assert back == rep
        once = tuple((own[g], e) for g, e in once)
        twice = tuple((own[g], e) for g, e in twice)
        for e in LARGE_EXPONENTS:
            expected = twice * (e // 2) + once * (e % 2)
            assert rewrite_syllable(rep, letter, e, there if e % 2 else rep) == expected


def test_rewrite_rejects_nontrivial_projection():
    with pytest.raises(ValueError):
        rewrite_tau(parse_braid_word("s1", 3))


def test_rewrite_substitutes_back_exactly():
    rng = random.Random(101)
    for _ in range(300):
        word = random_pi_trivial(rng)
        assert reference.expand(rewrite_tau(word), 3) == word


def test_walk_of_parsed_tokens_is_freely_equal_to_the_walk_of_the_letters():
    # The walk reads a parsed word's tokens unreduced: its factors need not
    # be freely reduced, but they reduce to those of the reduced letters and
    # expand back to the word, and the SP_3 rewrite, which reduces its
    # letters once, is the same word either way.  A word freshly built from
    # the letters walks as the read word does.
    rng = random.Random(113)
    for _ in range(3000):
        strands = rng.choice((2, 3, 3, 3, 4))
        text = unreduced_braid_text(rng, strands)
        text += f" {coset_rep(parse_braid_word(text, strands)).inverse()}"
        read = parse_braid_word(text, strands)
        assert read.letters is read._stored
        parsed = parse_braid_word(text, strands)
        rewritten = rewrite_tau(parsed)
        assert parsed._stored.__class__ is words._Tokens, text
        assert reference.expand(rewritten, strands) == read, text
        assert reference.schreier_word(rewritten.factors) == rewrite_tau(read), text
        assert rewrite_tau(BraidWord(strands, read.letters)) == rewrite_tau(read), text
        if strands == 3:
            sp_word = rewrite_to_sp3(parse_braid_word(text, 3))
            assert sp_word == rewrite_to_sp3(read) and str(sp_word) == str(rewrite_to_sp3(read)), text
    # Unreduced tokens may emit an inverse pair, which the SP_3 rewrite
    # cancels.
    assert str(rewrite_tau(parse_braid_word("s1^2 s1^-2", 3))) == "S[s1,s1] S[s1,s1]^-1"
    assert str(rewrite_to_sp3(parse_braid_word("t1 t1^-1 s1^2", 3))) == "a12"


def test_walk_of_equal_words_depends_on_whether_their_letters_were_read():
    # rewrite_tau reads a word as stored, so two equal words can rewrite to
    # different, freely equal Schreier words, and a parsed word's rewrite
    # changes once anything reads its letters.  The SP_3 rewrite does not.
    parsed = parse_braid_word("s1^2 s1^-2", 3)
    read = parse_braid_word("s1^2 s1^-2", 3)
    assert read == BraidWord(3) and hash(read) == hash(BraidWord(3))
    assert str(rewrite_tau(parsed)) == "S[s1,s1] S[s1,s1]^-1"
    assert str(rewrite_tau(read)) == "1"
    assert rewrite_tau(parsed) != rewrite_tau(read)
    assert str(parsed) == "1"
    assert str(rewrite_tau(parsed)) == "1"
    assert rewrite_to_sp3(parse_braid_word("s1^2 s1^-2", 3)) == rewrite_to_sp3(read)


def test_rewrite_works_on_two_strands():
    rng = random.Random(107)
    assert str(rewrite_tau(parse_braid_word("s1^2", 2))) == "S[s1,s1]"
    assert str(rewrite_tau(parse_braid_word("s1^4", 2))) == "S[s1,s1] S[s1,s1]"
    for _ in range(100):
        word = random_pi_trivial(rng, strands=2, max_len=20)
        assert reference.expand(rewrite_tau(word), 2) == word


def test_expand_reads_the_strand_count_off_the_factors():
    # Every factor of a rewrite carries a representative on the word's
    # strands, so the count read off the factors expands it back.
    rng = random.Random(109)
    word = parse_braid_word("s1^2 t1 s1^-2 t1^-1", 2)
    assert reference.expand(rewrite_tau(word), 2) == word
    seen = 0
    while seen < 100:
        word = random_pi_trivial(rng, strands=2, max_len=20)
        # The empty word has no factors to read the count off; see below.
        if word.letters:
            factors = rewrite_tau(word).factors
            (strands,) = {generator.rep.strands for generator, _ in factors}
            assert reference.expand(SchreierWord(factors), strands) == word
            seen += 1
    assert reference.expand(SchreierWord(), 3) == BraidWord(3, ())
    assert reference.expand(SchreierWord(), 2) == BraidWord(2, ())


def test_rewrite_of_concat_is_concat_of_rewrites():
    rng = random.Random(103)
    for _ in range(100):
        u = random_pi_trivial(rng, max_len=20)
        v = random_pi_trivial(rng, max_len=20)
        product = reference.schreier_word(rewrite_tau(u).factors + rewrite_tau(v).factors)
        assert rewrite_tau(concat(u, v)) == product


def relator_rewrites():
    """The 30 Reidemeister-Schreier relators of SP_3 over the Schreier
    generators, as (relator number, transversal element, rewrite)."""
    return [(index, rep, rewrite_tau(word)) for index, rep, word in conjugated_relators()]


def test_relator_rewrites_count_and_labels():
    rewrites = relator_rewrites()
    assert len(rewrites) == 30
    assert sorted({index for index, _, _ in rewrites}) == [1, 2, 3, 4, 5]


def lookup(rewrites, index, rep_text):
    for relator_index, rep, word in rewrites:
        if relator_index == index and str(rep) == rep_text:
            return word
    raise AssertionError(f"no rewrite for r{index} @ {rep_text}")


def test_relator_rewrite_examples():
    rewrites = relator_rewrites()
    assert str(lookup(rewrites, 1, "s2")) == "S[s2 s1,t1] S[s2 s1,s1]^-1 S[s2,t1]^-1"
    assert str(lookup(rewrites, 2, "1")) == "S[s2 s1,s2]^-1"
    # The conjugate of the fourth relator by s2 keeps S[s2 s1,s2]: that
    # generator is trivial as a group element but not freely, and dropping
    # it would break the exact substitution property.
    assert str(lookup(rewrites, 4, "s2")) == "S[s2 s1,s2] S[s1 s2 s1,t1] S[s2,t2]^-1"


def test_relator_rewrites_substitute_to_conjugates():
    for _, _, conjugated in conjugated_relators():
        assert reference.expand(rewrite_tau(conjugated), 3) == conjugated
