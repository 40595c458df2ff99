"""17-significant-digit JSON floats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amtrl import jsonio


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          np.finfo(float).max, -np.finfo(float).max]))
def test_finite_floats_round_trip_bit_for_bit(x):
    back = json.loads(jsonio.dumps({"v": [x]}))["v"][0]
    assert isinstance(back, float)
    assert np.float64(back).tobytes() == np.float64(x).tobytes()


@given(st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_floats_are_rejected(x):
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps({"v": [np.float64(x)]})
