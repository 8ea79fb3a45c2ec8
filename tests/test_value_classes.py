"""The contract of the package's immutable value classes: construction,
equality, hashing, repr, immutability, pickling and validation."""

import copy
import pickle
from fractions import Fraction

import pytest

from braidrep import (
    BMWReport,
    BraidWord,
    LaurentPoly,
    NormalForm,
    Permutation,
    RelationCheck,
    RepMatrix,
    WVector,
    YoungDiagram,
)
from braidrep.verify import CheckResult

ONE, ZERO, Q, T = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.var_q(), LaurentPoly.var_t()
SWAP = Permutation((1, 0, 2))
CHECK = RelationCheck("braid", True, False)

# (class, field values by name, a different value of the same class, exact repr)
CASES = [
    (BraidWord, {"n": 3, "letters": (1, 2)}, BraidWord(3, (2, 1)), "BraidWord(n=3, letters=(1, 2))"),
    (Permutation, {"image": (1, 0, 2)}, Permutation((0, 2, 1)), "Permutation(image=(1, 0, 2))"),
    (
        NormalForm,
        {"n": 3, "factors": (SWAP,)},
        NormalForm(3, ()),
        "NormalForm(n=3, factors=(Permutation(image=(1, 0, 2)),))",
    ),
    (
        RepMatrix,
        {"entries": ((ONE, ZERO), (Q, T))},
        RepMatrix(((ONE, ZERO), (ZERO, ONE))),
        "RepMatrix(entries=((LaurentPoly(1), LaurentPoly(0)), (LaurentPoly(q), LaurentPoly(t))))",
    ),
    (
        WVector,
        {"n": 2, "coords": (((0, Fraction(1)),),)},
        WVector(2, (((1, Fraction(1)),),)),
        "WVector(n=2, coords=(((0, Fraction(1, 1)),),))",
    ),
    (YoungDiagram, {"rows": (2, 1)}, YoungDiagram((1, 1, 1)), "YoungDiagram(rows=(2, 1))"),
    (
        RelationCheck,
        {"name": "braid", "holds": True, "required": False},
        RelationCheck("braid", True, True),
        "RelationCheck(name='braid', holds=True, required=False)",
    ),
    (
        BMWReport,
        {"n": 3, "checks": (CHECK,)},
        BMWReport(3, ()),
        "BMWReport(n=3, checks=(RelationCheck(name='braid', holds=True, required=False),))",
    ),
    (CheckResult, {"name": "relations", "ok": True}, CheckResult("relations", False), "CheckResult(name='relations', ok=True)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, different, text", CASES, ids=IDS)
def test_construction_equality_hash_and_repr(cls, fields, different, text):
    x = cls(*fields.values())
    assert cls(**fields) == x
    assert not cls(**fields) != x
    assert tuple(getattr(x, name) for name in fields) == tuple(fields.values())
    assert x != different and not x == different
    assert hash(x) == hash(tuple(fields.values()))
    assert repr(x) == text
    # another value class, and the plain tuple of the same fields, are never equal
    for other in (tuple(fields.values()), CheckResult("relations", True) if cls is not CheckResult else CHECK):
        assert x != other and not x == other
        assert x.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls, fields, different, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, different, text):
    x = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("cls, fields, different, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, different, text):
    x = cls(*fields.values())
    for again in (pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert type(again) is cls
        assert again == x and hash(again) == hash(x) and repr(again) == text


def test_braid_word_letters_default_to_empty():
    assert BraidWord(4) == BraidWord(n=4, letters=()) == BraidWord(n=4)


def test_cached_sparse_rows_survive_copies():
    m = RepMatrix(((ONE, ZERO), (Q, T)))
    assert m.sparse_rows == (((0, ONE),), ((0, Q), (1, T)))
    assert copy.copy(m).sparse_rows == m.sparse_rows
    assert pickle.loads(pickle.dumps(m)) == m


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((0, 0, 2)),
        lambda: Permutation((1, 2, 3)),
        lambda: BraidWord(3, (3,)),
        lambda: BraidWord(3, (0,)),
        lambda: BraidWord(0),
        lambda: YoungDiagram((1, 2)),
        lambda: YoungDiagram((2, 0)),
        lambda: RepMatrix(((ONE, ZERO),)),
        lambda: WVector(3, (((0, Fraction(1)),),)),
        lambda: WVector(2, (((-1, Fraction(1)),),)),
    ],
)
def test_validation_hooks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
