"""JSON round trips and canonical output formatting."""
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rohull.core import Mat2
from rohull.hulls import LaminateSet, RankOneSegment
from rohull.serialize import (
    dump_canonical,
    laminate_from_json,
    laminate_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
    write_atomic,
)


def test_scalar_round_trip():
    assert scalar_to_json(F(2, 3)) == "2/3"
    assert scalar_from_json("2/3") == F(2, 3)
    assert scalar_from_json(0.25, mode="float") == 0.25
    assert scalar_to_json(0.1) == 0.1


def test_float_literal_rejected_in_exact_mode():
    with pytest.raises(ValueError):
        scalar_from_json(0.25, mode="exact")


def test_matrix_round_trip():
    m = Mat2(F(1, 2), 0, -3, F(7, 5))
    assert matrix_from_json(matrix_to_json(m)) == m


@given(st.fractions(), st.fractions(), st.fractions(),
       st.integers(-10**6, 10**6))
def test_matrix_to_json_writes_each_entry_as_its_fraction(a, b, c, k):
    # k makes one integer (possibly zero) entry and one over a denominator
    # shared with others, so entries reduce by different gcds
    m = Mat2(a, F(k), c, b + F(k, 6))
    assert matrix_to_json(m) == [[str(e) for e in row] for row in m.rows()]


def test_matrix_to_json_named_entries():
    m = Mat2(F(-6, 4), 0, F(10, 5), F(3, 12))
    assert matrix_to_json(m) == [["-3/2", "0"], ["2", "1/4"]]
    assert matrix_to_json(Mat2(0.5, -0.0, 1e300, 2.0)) == \
        [[0.5, -0.0], [1e300, 2.0]]


def test_laminate_round_trip():
    s = LaminateSet(
        points=(Mat2.diag(1, 0),),
        segments=(RankOneSegment(Mat2.zero(), Mat2.diag(1, 0), 1),),
        order=1)
    assert laminate_from_json(laminate_to_json(s)) == s


def test_dump_canonical_is_stable():
    a = dump_canonical({"b": 1, "a": [1, 2]})
    b = dump_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


class _Str(str):
    pass


class _Int(int):
    pass


def _canonical_json(v) -> str:
    return json.dumps(v, sort_keys=True, indent=2) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text(), kids)
                  | st.dictionaries(st.integers(), kids)
                  | st.dictionaries(st.floats(allow_nan=False), kids)),
    max_leaves=40)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_dump_canonical_equals_json_dumps(v):
    assert dump_canonical(v) == _canonical_json(v)


@pytest.mark.parametrize("v", [
    {"x": np.float64(0.1), "y": [np.float64(-2.5e-300)]},
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 10**40],
    {1: "a", 2.5: "b"},
    {True: 1, 2: [False]},
    {None: 0},
    {np.float64(1.5): "key"},
    {_Str("k"): [_Str("v\n"), _Int(-7)], "m": {_Int(3): np.float64("nan")}},
    {"": [], "a": {}, "b": (), "c": [[], {}], "\u00e9\U0001f600": "\x00\n\""},
    [],
    {},
    "top-level",
    7,
    None,
])
def test_dump_canonical_named_cases(v):
    assert dump_canonical(v) == _canonical_json(v)


@pytest.mark.parametrize("v", [
    F(1, 2), {1, 2}, [1, F(1, 3)], {"a": {"b": object()}}, {(1, 2): 3},
    {1: "a", "b": 2}, np.int64(3),
])
def test_dump_canonical_rejects_what_json_rejects(v):
    with pytest.raises(TypeError):
        _canonical_json(v)
    with pytest.raises(TypeError):
        dump_canonical(v)


def test_write_atomic(tmp_path):
    path = tmp_path / "nested" / "report.json"
    write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    leftovers = [p for p in (tmp_path / "nested").iterdir()
                 if p.name != "report.json"]
    assert leftovers == []
