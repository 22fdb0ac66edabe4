"""Tests for the measurement utilities and random-stream management."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.monitor import PeakTracker, TimeSeries, geometric_mean
from repro.sim.rng import RngFactory


# ---------------------------------------------------------------------------
# geometric mean
# ---------------------------------------------------------------------------
def test_geometric_mean_basic():
    assert geometric_mean([4, 1]) == pytest.approx(2.0)
    assert geometric_mean([2, 2, 2]) == pytest.approx(2.0)


def test_geometric_mean_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([-1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 100), min_size=1, max_size=20))
def test_property_geomean_bounded_by_extremes(values):
    g = geometric_mean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001


# ---------------------------------------------------------------------------
# PeakTracker / TimeSeries
# ---------------------------------------------------------------------------
def test_peak_tracker():
    p = PeakTracker("mem")
    p.add(100)
    p.add(50)
    p.sub(120)
    assert p.current == 30
    assert p.peak == 150
    assert p.total_added == 150


def test_peak_tracker_rejects_negative():
    p = PeakTracker()
    with pytest.raises(ValueError):
        p.add(-1)
    with pytest.raises(ValueError):
        p.sub(-1)
    p.add(10)
    with pytest.raises(ValueError, match="negative"):
        p.sub(11)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=50))
def test_property_peak_is_running_max(allocs):
    p = PeakTracker()
    running, peak = 0, 0
    for a in allocs:
        p.add(a)
        running += a
        peak = max(peak, running)
        if running > a:  # free something occasionally
            p.sub(a // 2)
            running -= a // 2
    assert p.peak == peak
    assert p.current == running


def test_timeseries():
    ts = TimeSeries("iter")
    ts.record(0.0, 10.0)
    ts.record(1.0, 20.0)
    assert len(ts) == 2
    assert ts.total == 30.0
    assert ts.mean == 15.0
    assert ts.max == 20.0
    assert ts.items() == [(0.0, 10.0), (1.0, 20.0)]


def test_timeseries_empty_mean_raises():
    with pytest.raises(ValueError):
        TimeSeries().mean


def test_geometric_mean_error_messages():
    with pytest.raises(ValueError, match="empty"):
        geometric_mean([])
    with pytest.raises(ValueError, match="positive"):
        geometric_mean([2.0, -3.0])
    with pytest.raises(ValueError, match="positive"):
        geometric_mean(iter([0.0]))


# ---------------------------------------------------------------------------
# RngFactory
# ---------------------------------------------------------------------------
def test_rng_same_seed_same_stream():
    a = RngFactory(42).stream("graph").integers(0, 1 << 30, 10)
    b = RngFactory(42).stream("graph").integers(0, 1 << 30, 10)
    assert np.array_equal(a, b)


def test_rng_streams_independent_of_creation_order():
    f1 = RngFactory(7)
    _ = f1.stream("first")
    x1 = f1.stream("second").integers(0, 1 << 30, 5)
    f2 = RngFactory(7)
    x2 = f2.stream("second").integers(0, 1 << 30, 5)
    assert np.array_equal(x1, x2)


def test_rng_different_names_differ():
    f = RngFactory(7)
    a = f.stream("a").integers(0, 1 << 30, 20)
    b = f.stream("b").integers(0, 1 << 30, 20)
    assert not np.array_equal(a, b)


def test_rng_stream_cached():
    f = RngFactory(1)
    assert f.stream("x") is f.stream("x")


def test_rng_fork_disjoint_and_deterministic():
    f = RngFactory(3)
    c1 = f.fork("child")
    c2 = RngFactory(3).fork("child")
    assert c1.root_seed == c2.root_seed
    a = c1.stream("s").integers(0, 1 << 30, 10)
    b = f.stream("s").integers(0, 1 << 30, 10)
    assert not np.array_equal(a, b)
