"""Knob validation: bad weights and thresholds fail at construction."""

import math

import pytest

from repro.errors import MappingError
from repro.pipeline import Knobs


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, -math.inf])
def test_weights_must_be_finite_and_non_negative(name, value):
    with pytest.raises(MappingError, match=name):
        Knobs(**{name: value})


@pytest.mark.parametrize("value", [2.0, 1.0, -0.1, math.nan, math.inf])
def test_balance_threshold_must_be_in_unit_interval(value):
    with pytest.raises(MappingError, match="balance threshold"):
        Knobs(balance_threshold=value)


def test_edge_values_are_accepted():
    knobs = Knobs(alpha=0.0, beta=0.0, balance_threshold=0.0)
    assert knobs.replace(alpha=3.5, balance_threshold=0.99).alpha == 3.5
    with pytest.raises(MappingError):
        knobs.replace(beta=math.nan)
