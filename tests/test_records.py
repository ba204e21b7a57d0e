"""The result records: every one a typing.NamedTuple, so that
`import effectalg` never loads dataclasses.

Each record keeps the contract it had as a dataclass: its field names,
construction by position and by keyword with every field required,
field-wise equality within its type, and, for the records that were frozen,
hashing.  No record's fields can be assigned; a caller that wants a
SearchResult without its listing builds one with
res._replace(operations=None).  Shape, Elem and SubunitalMatrix still
normalise their fields to tuples and raise ValueError on invalid input.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from effectalg import (
    AtomRecord,
    AxiomReport,
    B2Classification,
    Elem,
    NotAdditive,
    NotS1,
    S4Existence,
    SearchResult,
    Shape,
    SubunitalMatrix,
    SuiteReport,
    SuiteRow,
    ValidationReport,
    make_simplicial,
    sigma_universal,
)
from effectalg.search import B2Record

SRC = Path(__file__).resolve().parents[1] / "src"

SHAPE = Shape((2, 1))
P, Q = Elem((1, 0), SHAPE), Elem((0, 1), SHAPE)
OP = sigma_universal(make_simplicial((1, 1)))
ROW = SuiteRow(1, "count", "9", "9", "PASS")

# per record type, its fields in order with a sample value for each
SAMPLES = {
    Shape: {"u": (2, 1)},
    Elem: {"coords": (1, 0), "shape": SHAPE},
    AtomRecord: {"atom": P, "ord": 2},
    ValidationReport: {"size": 6, "checks": {"commutativity": None}},
    SubunitalMatrix: {"rows": ((1, 0), (0, 1)), "domain": SHAPE, "codomain": SHAPE},
    NotAdditive: {"witness": (P, Q)},
    AxiomReport: {"upto": 2, "results": {"s1": None, "s2": (1,)}},
    NotS1: {"row": 3, "witness": (P, Q)},
    SearchResult: {"u": (2, 1), "k": 3, "count": 1, "certificate": "exhaustive",
                   "operations": [OP]},
    S4Existence: {"u": (2, 1), "exists": False, "certificate": "exhaustive", "witness": None},
    B2Record: {"op": OP, "uvst": (1, 0, 0, 2)},
    B2Classification: {"records": [], "block_v_zero": [0], "block_v_nonzero": [1, 2]},
    SuiteRow: {"criterion": 1, "name": "count", "expected": "9", "actual": "9",
               "status": "PASS"},
    SuiteReport: {"rows": [ROW]},
}
FROZEN = [Shape, Elem, AtomRecord, SubunitalMatrix, NotAdditive, NotS1]
RECORDS = list(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    fields = SAMPLES[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value, name
        assert getattr(by_keyword, name) == value, name
    assert by_position == by_keyword


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_field_is_required_and_there_are_no_others(cls):
    fields = SAMPLES[cls]
    # no field has a default
    for name in fields:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_is_field_wise(cls):
    fields = SAMPLES[cls]
    assert cls(**fields) == cls(**fields)
    assert not cls(**fields) != cls(**fields)
    name, value = next(iter(fields.items()))
    other = {Shape: (3,), Elem: (2, 1), AtomRecord: Q,
             SubunitalMatrix: ((1, 0), (0, 0))}.get(cls, None)
    changed = cls(**{**fields, name: other})
    assert changed != cls(**fields)
    assert not changed == cls(**fields)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_hash_by_their_fields(cls):
    fields = SAMPLES[cls]
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_field_assignment(cls):
    fields = SAMPLES[cls]
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        assert getattr(rec, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_a_named_tuple(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == tuple(SAMPLES[cls])


def test_search_result_operations_can_be_dropped():
    res = SearchResult(**SAMPLES[SearchResult])
    with pytest.raises(AttributeError):
        setattr(res, "operations", None)
    assert res.operations == [OP]
    dropped = res._replace(operations=None)
    assert dropped.operations is None
    assert dropped.to_json() == {"u": [2, 1], "k": 3, "count": "1",
                                 "certificate": "exhaustive"}
    assert dropped != res
    assert res.to_json()["operations"] == [OP.product_table()]
    assert json.dumps(res.to_json()["operations"]) == json.dumps(
        [[list(row) for row in OP.product_table()]])


def test_validating_records_normalise_their_fields_to_tuples():
    shape = Shape([2, 1])
    assert shape.u == (2, 1) and shape == SHAPE and hash(shape) == hash(SHAPE)
    assert Elem([1, 0], shape).coords == (1, 0)
    assert SubunitalMatrix([[1, 0], [0, 1]], shape, shape).rows == ((1, 0), (0, 1))


def test_shape_keeps_its_cached_properties():
    shape = Shape((2, 1))
    assert (shape.r, shape.size, shape._places) == (2, 6, (1, 3))
    assert vars(shape) == {"size": 6, "_places": (1, 3)}
    assert shape.all_coords[5] == (2, 1)


@pytest.mark.parametrize("u, message", [
    ((), "shape needs at least one coordinate"),
    ((2, 0), "shape coordinates must be integers >= 1, got 0"),
    ((2, True), "shape coordinates must be integers >= 1, got True"),
    ((1.0,), "shape coordinates must be integers >= 1, got 1.0"),
])
def test_invalid_shapes_raise(u, message):
    with pytest.raises(ValueError) as exc:
        Shape(u)
    assert str(exc.value) == message


@pytest.mark.parametrize("coords, message", [
    ((1,), "expected 2 coordinates, got 1"),
    ((1, 0, 0), "expected 2 coordinates, got 3"),
    ((3, 0), "coordinate 3 outside [0, 2]"),
    ((0, -1), "coordinate -1 outside [0, 1]"),
    ((True, 0), "coordinate True outside [0, 2]"),
])
def test_invalid_elements_raise(coords, message):
    with pytest.raises(ValueError) as exc:
        Elem(coords, SHAPE)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, message", [
    (((1.0,),), "matrix entries must be integers, got ((1.0,),)"),
    (((2,),), "rows ((2,),) are not subunital for u = (1,), v = (1,)"),
    (((-1,),), "rows ((-1,),) are not subunital for u = (1,), v = (1,)"),
    (((1,), (0,)), "expected 1 rows, got 2"),
    (((1, 0),), "expected rows of length 1"),
])
def test_invalid_matrices_raise(rows, message):
    one = Shape((1,))
    with pytest.raises(ValueError) as exc:
        SubunitalMatrix(rows, one, one)
    assert str(exc.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that nothing this test run imported counts;
    # only the modules the import itself adds are checked
    code = ("import sys; before = set(sys.modules); import effectalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
