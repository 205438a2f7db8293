"""Synthetic series generators used by CI and the demos."""

import numpy as np
import pytest

from prognost import make_degradation_series, make_fixture_series, make_sine_series


def test_sine_shape_and_period():
    s = make_sine_series(200)
    assert len(s) == 200
    assert s.values[0] == 0.0
    assert s.values[10] == pytest.approx(1.0)  # quarter of the 40-sample period
    np.testing.assert_allclose(s.values[:40], s.values[40:80], atol=1e-12)


def test_sine_deterministic():
    assert np.array_equal(make_sine_series(128).values, make_sine_series(128).values)


def test_degradation_deterministic_and_shaped():
    a = make_degradation_series(400)
    b = make_degradation_series(400)
    assert np.array_equal(a.values, b.values)
    # flat start, sharply risen end
    assert a.values[-10:].mean() > 3 * a.values[:50].mean()
    # spikes present for the outlier filter to find
    assert a.values.max() > a.values[-1]


def test_kind_dispatch():
    assert np.array_equal(make_fixture_series("sine", 64).values, make_sine_series(64).values)
    assert np.array_equal(
        make_fixture_series("degradation", 64).values, make_degradation_series(64).values
    )
    with pytest.raises(ValueError):
        make_fixture_series("square", 64)


def test_minimum_length():
    with pytest.raises(ValueError):
        make_sine_series(1)
    with pytest.raises(ValueError):
        make_degradation_series(5)


def test_degradation_minimum_length_has_its_spike():
    # at the documented minimum of 10 points the one spike can only land on
    # index 5, the first point that is 5 away from both ends
    values = make_degradation_series(10).values
    assert values.shape == (10,) and np.isfinite(values).all()
    assert values[5] - (values[4] + values[6]) / 2 > 0.25
