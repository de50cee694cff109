"""Value semantics of the package's immutable classes, all built on
``words.Value``: equality within a class only, the hash of the field tuple,
a ``Name(field=value, ...)`` repr, refused assignment, the constructors'
error messages, and pickle and copy round trips."""

import copy
import pickle

import pytest

from singbraid import (
    BraidWord,
    CenterSplitForm,
    FactorSyllable,
    HNNForm,
    Letter,
    Permutation,
    SchreierGenerator,
    SchreierWord,
    SPLetter,
    SPWord,
)

S1, T1 = Letter("s", 1, 1), Letter("t", 1, 1)
EMPTY3 = BraidWord(3)
GEN = SchreierGenerator(EMPTY3, T1, 3)
BASE = (FactorSyllable("13", 1, 0), 2)
FORM = HNNForm((BASE, ()), (1,))

# For each class: its compared fields, the arguments of one value, and for
# each compared field another argument that changes only that field.
CASES = [
    (BraidWord, ("strands", "letters"), (3, (S1,)), (4, (T1,))),
    (SPWord, ("letters",), ((SPLetter("a12", 1),),), ((SPLetter("b12", 1),),)),
    (Permutation, ("images",), ((2, 1, 3),), ((1, 2, 3),)),
    (SchreierGenerator, ("rep", "letter"), (EMPTY3, T1, 3), (BraidWord(3, (S1,)), Letter("t", 2, 1))),
    (SchreierWord, ("factors",), (((GEN, 1),),), (((GEN, -1),),)),
    (HNNForm, ("bases", "powers"), ((BASE, ()), (1,)), (((), ()), (-1,))),
    (CenterSplitForm, ("delta_exp", "v"), (2, FORM), (0, HNNForm((BASE,), ()))),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, args, others", CASES, ids=IDS)
def test_equal_and_hashed_by_the_field_tuple(cls, fields, args, others):
    value = cls(*args)
    key = tuple(getattr(value, name) for name in fields)
    assert value == cls(*args) and not value != cls(*args)
    assert hash(value) == hash(cls(*args)) == hash(key)
    for i, other in enumerate(others):
        changed = cls(*args[:i], other, *args[i + 1:])
        assert value != changed, fields[i]
        assert hash(changed) == hash(tuple(getattr(changed, name) for name in fields))
    assert value != key and value != object()


def test_values_of_different_classes_are_unequal():
    # Each of these has one field holding the empty tuple.
    empties = [SPWord(), SchreierWord(), Permutation(())]
    assert len(set(empties)) == 3
    for i, first in enumerate(empties):
        for second in empties[i + 1:]:
            assert first != second and second != first
    assert SPWord() != ((),) and Permutation((1,)) != ((1,),)


@pytest.mark.parametrize("cls, fields, args, others", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, args, others):
    value = cls(*args)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == tuple(getattr(cls(*args), name) for name in fields)
    assert not hasattr(value, "__dict__")


def test_repr_names_each_compared_field():
    assert repr(SPWord((SPLetter("a12", 1),))) == "SPWord(letters=(SPLetter(name='a12', exponent=1),))"
    assert repr(BraidWord(3, (S1,))) == "BraidWord(strands=3, letters=(Letter(kind='s', index=1, exponent=1),))"
    assert repr(Permutation((2, 1))) == "Permutation(images=(2, 1))"
    assert repr(GEN) == (
        "SchreierGenerator(rep=BraidWord(strands=3, letters=()), "
        "letter=Letter(kind='t', index=1, exponent=1))"
    )
    assert repr(CenterSplitForm(0, HNNForm(((),), ()))) == (
        "CenterSplitForm(delta_exp=0, v=HNNForm(bases=((),), powers=()))"
    )


def test_schreier_generator_id_is_not_compared():
    other = SchreierGenerator(EMPTY3, T1)
    assert other.id is None and GEN.id == 3
    assert other == GEN and hash(other) == hash(GEN) == hash((EMPTY3, T1))
    assert repr(other) == repr(GEN)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BraidWord(1), "strand count must be at least 2, got 1"),
        (lambda: BraidWord(3, (Letter("x", 1, 1),)), "unknown generator kind 'x'"),
        (lambda: BraidWord(3, (S1, Letter("t", 3, -2))), "letter t3^-2 out of range for 3 strands"),
        (lambda: SPWord((SPLetter("a12", 1), SPLetter("c", 2))), "unknown SP_3 generator 'c'"),
        (lambda: Permutation((1, 1, 3)), "(1, 1, 3) is not a permutation of 1..3"),
        (lambda: HNNForm((BASE,), (1,)), "segment counts out of step"),
        (lambda: HNNForm((BASE, BASE), (0,)), "stable-letter powers must be nonzero"),
        (lambda: SchreierGenerator(EMPTY3, Letter("s", 1, 2)), "Schreier generators use bare ambient generators"),
    ],
)
def test_constructor_messages(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


@pytest.mark.parametrize("cls, fields, args, others", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, args, others):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin.__class__ is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    assert pickle.loads(pickle.dumps(GEN)).id == copy.copy(GEN).id == 3


def test_word_operations_keep_the_class_and_strands():
    word = BraidWord(4, (S1, Letter("t", 3, 2)))
    assert word.inverse() == BraidWord(4, (Letter("t", 3, -2), Letter("s", 1, -1)))
    assert (word ** 2).strands == 4 and word ** -1 == word.inverse()
    assert (word * word.inverse()).is_empty
    sp = SPWord((SPLetter("a13", 1), SPLetter("b12", -2)))
    assert sp * sp.inverse() == SPWord() and (sp ** 3).unit_length() == 9
    assert (sp ** -2).__class__ is SPWord
