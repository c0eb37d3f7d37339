"""The coercions of ``hrlab.errors``: one message form for a refused real or
sequence, and no copy of a float64 array."""

import math

import numpy as np
import pytest

from hrlab import DomainError
from hrlab.errors import _floats, _real, _seq


@pytest.mark.parametrize("value, rule, message", [
    (1.0, dict(above=-1.0, below=1.0), "phi must lie in (-1, 1), got 1.0"),
    (-1, dict(least=0.0), "phi must lie in [0, inf], got -1.0"),
    (math.inf, dict(least=0.0, below=math.inf), "phi must lie in [0, inf), got inf"),
    (2.0, dict(least=-1.0, most=1.0), "phi must lie in [-1, 1], got 2.0"),
    (math.nan, {}, "phi must lie in [-inf, inf], got nan"),
    ("0.5", {}, "phi must lie in [-inf, inf], got '0.5'"),
    (b"0.5", {}, "phi must lie in [-inf, inf], got b'0.5'"),
    (None, {}, "phi must lie in [-inf, inf], got None"),
    (1j, {}, "phi must lie in [-inf, inf], got 1j"),
    (10**400, {}, f"phi must lie in [-inf, inf], got {10**400!r}"),
])
def test_real_rule_refuses_in_one_message_form(value, rule, message):
    with pytest.raises(DomainError) as info:
        _real(value, "phi", **rule)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [True, 3, -0.0, 0.25, np.float32(0.1), np.int64(-7),
                                   np.array(0.75), math.inf, -math.inf])
def test_real_rule_takes_what_float_takes(value):
    got = _real(value, "x")
    assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, float(value))
    assert got == float(value)


def test_floats_keeps_a_float64_array_and_refuses_text():
    a = np.array([0.0, math.nan, -math.inf])
    assert _floats(a) is a
    assert np.array_equal(_floats([1, 2]), [1.0, 2.0])
    for bad in ("x", ["x", 0.0], [[0.0], [1.0, 2.0]], {}):
        with pytest.raises(DomainError):
            _floats(bad)


@pytest.mark.parametrize("value", ["0.5", b"0.5", None, [0.5, None], 1j, [1, 10**400],
                                   np.array([0.5], dtype=object)])
def test_floats_refuses_what_real_refuses(value):
    with pytest.raises(DomainError, match="expected real numbers"):
        _floats(value)


def test_floats_takes_numeric_dtypes_as_float64():
    for value in (True, 3, np.array([1, 2], dtype=np.uint8), np.float32(0.1), range(3)):
        got = _floats(value)
        assert got.dtype == np.float64 and np.array_equal(got, np.asarray(value, dtype=float))


@pytest.mark.parametrize("value, rule, message", [
    (5, {}, "tau must be a sequence, got 5"),
    (None, {}, "tau must be a sequence, got None"),
    ("ab", {}, "tau must be a sequence, got 'ab'"),
    (b"ab", {}, "tau must be a sequence, got b'ab'"),
    (np.array(1.0), {}, "tau must be a sequence, got array(1.)"),
    ((1.0, 2.0), dict(least=3, most=3), "the length of tau must be 3, got 2"),
    ((), dict(least=1), "the length of tau must be >= 1, got 0"),
    (range(3), dict(most=2), "the length of tau must be <= 2, got 3"),
    ([0.0], dict(least=2, most=3), "the length of tau must lie in [2, 3], got 1"),
])
def test_sequence_rule_refuses_in_one_message_form(value, rule, message):
    with pytest.raises(DomainError) as info:
        _seq(value, "tau", **rule)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [[1, 2], (1, 2), range(1, 3), np.array([1, 2]), iter([1, 2]),
                                   (v for v in (1, 2))])
def test_sequence_rule_takes_any_iterable_in_order(value):
    assert _seq(value, "tau", 2, 2) == (1, 2)
