"""The report writer gives the bytes of ``json.dumps(v, indent=2, sort_keys=True)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verblunsky.report import _json

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.text()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=500)
@given(VALUES)
@example({"b": [], "a": {}, "c": [{}, [[]], ()]})
@example(["café  \U0001d11e", "\x00\x1f\t\n\"\\/", "\ud800"])
@example([2**64, -(2**100), 0, -1, True, False, None])
@example([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1, math.nan, math.inf, -math.inf])
def test_writer_equals_json_dumps(value):
    assert _json(value) == _dumps(value)


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), {1: "a"}, {"a": [{(1,): 2}]}, 1j],
                         ids=["set", "numpy.int64", "int key", "nested tuple key", "complex"])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        _json(value)
