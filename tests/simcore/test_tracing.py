"""Tests for StepSeries / TraceSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import StepSeries, TraceSet


def test_initial_value_and_current():
    s = StepSeries(3.0)
    assert s.current == 3.0
    assert s.value_at(0.0) == 3.0
    assert s.value_at(100.0) == 3.0


def test_record_and_value_at():
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(3.0, 5.0)
    assert s.value_at(0.5) == 0.0
    assert s.value_at(1.0) == 2.0  # right-continuous
    assert s.value_at(2.9) == 2.0
    assert s.value_at(3.0) == 5.0
    assert s.value_at(10.0) == 5.0


def test_same_instant_overwrite_keeps_latest():
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(1.0, 7.0)
    assert s.value_at(1.0) == 7.0
    assert len(s) == 2  # no duplicate breakpoints


def test_redundant_record_is_ignored():
    s = StepSeries(1.0)
    s.record(5.0, 1.0)
    assert len(s) == 1


def test_time_going_backwards_raises():
    s = StepSeries(0.0)
    s.record(2.0, 1.0)
    with pytest.raises(ValueError):
        s.record(1.0, 3.0)


def test_add_is_counter_style():
    s = StepSeries(0.0)
    s.add(1.0, 2.0)
    s.add(2.0, 3.0)
    s.add(3.0, -1.0)
    assert s.value_at(2.5) == 5.0
    assert s.current == 4.0


def test_integral_simple_rectangle():
    s = StepSeries(0.0)
    s.record(1.0, 4.0)
    s.record(3.0, 0.0)
    assert s.integral(0.0, 5.0) == pytest.approx(8.0)
    assert s.integral(1.0, 3.0) == pytest.approx(8.0)
    assert s.integral(2.0, 2.5) == pytest.approx(2.0)
    assert s.integral(4.0, 5.0) == 0.0


def test_integral_partial_window_before_first_change():
    s = StepSeries(2.0)
    s.record(10.0, 0.0)
    assert s.integral(5.0, 8.0) == pytest.approx(6.0)


def test_integral_empty_or_inverted_window():
    s = StepSeries(1.0)
    assert s.integral(5.0, 5.0) == 0.0
    assert s.integral(5.0, 3.0) == 0.0


def test_mean():
    s = StepSeries(0.0)
    s.record(0.0, 10.0)
    s.record(5.0, 0.0)
    assert s.mean(0.0, 10.0) == pytest.approx(5.0)
    assert s.mean(0.0, 0.0) == 0.0


def test_resample_windows():
    s = StepSeries(0.0)
    s.record(1.0, 10.0)
    s.record(2.0, 0.0)
    grid, avgs = s.resample(0.0, 4.0, 1.0)
    assert grid == [0.0, 1.0, 2.0, 3.0]
    assert avgs == [pytest.approx(0.0), pytest.approx(10.0), pytest.approx(0.0), pytest.approx(0.0)]


def test_resample_rejects_bad_dt():
    with pytest.raises(ValueError):
        StepSeries().resample(0, 1, 0)


def test_value_at_before_t0_returns_initial():
    """Queries before t=0 extend the initial value backwards."""
    s = StepSeries(4.0)
    s.record(2.0, 9.0)
    assert s.value_at(-1.0) == 4.0
    assert s.value_at(-1e9) == 4.0


def test_integral_clamps_window_to_t0():
    """The series is defined from t=0: an integral window reaching before
    t=0 contributes nothing for the negative part."""
    s = StepSeries(4.0)
    s.record(2.0, 0.0)
    assert s.integral(-5.0, 2.0) == pytest.approx(s.integral(0.0, 2.0))
    assert s.integral(-5.0, 0.0) == 0.0


def test_same_instant_overwrite_at_t0():
    """Overwriting the t=0 breakpoint replaces the initial value."""
    s = StepSeries(1.0)
    s.record(0.0, 6.0)
    assert len(s) == 1
    assert s.value_at(0.0) == 6.0
    assert s.value_at(-1.0) == 6.0  # the initial breakpoint itself changed


def test_same_instant_overwrite_back_to_previous_value():
    """A same-instant overwrite may restore the pre-step value; the
    breakpoint stays but the series reads flat."""
    s = StepSeries(0.0)
    s.record(1.0, 2.0)
    s.record(1.0, 0.0)
    assert s.value_at(0.5) == 0.0
    assert s.value_at(1.0) == 0.0
    assert s.integral(0.0, 2.0) == 0.0


def test_resample_truncates_last_partial_window():
    s = StepSeries(0.0)
    s.record(0.0, 10.0)
    grid, avgs = s.resample(0.0, 2.5, 1.0)
    assert grid == [0.0, 1.0, 2.0]
    # the last window is [2.0, 2.5) and still averages correctly
    assert avgs == [pytest.approx(10.0)] * 3


def test_resample_grid_excludes_t1_under_float_accumulation():
    """0.1+0.1+0.1 > 0.3 in floats; the epsilon guard must still stop the
    grid at exactly three windows instead of emitting a zero-width fourth."""
    s = StepSeries(1.0)
    grid, avgs = s.resample(0.0, 0.3, 0.1)
    assert len(grid) == 3
    assert grid[0] == 0.0
    assert avgs == [pytest.approx(1.0)] * 3


def test_resample_empty_and_inverted_range():
    s = StepSeries(1.0)
    assert s.resample(2.0, 2.0, 1.0) == ([], [])
    assert s.resample(5.0, 2.0, 1.0) == ([], [])


def test_traceset_series_identity_and_names():
    ts = TraceSet()
    a = ts.series("m0.cpu")
    assert ts.series("m0.cpu") is a
    ts.series("m1.cpu")
    assert ts.names() == ["m0.cpu", "m1.cpu"]
    assert "m0.cpu" in ts
    assert ts["m1.cpu"] is ts.series("m1.cpu")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-50.0, max_value=50.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_integral_equals_riemann_sum(points):
    """The exact integral matches a fine Riemann sum of value_at()."""
    s = StepSeries(0.0)
    for t, v in sorted(points, key=lambda p: p[0]):
        s.record(t, v)
    t1 = 101.0
    dt = 0.25
    riemann = sum(s.value_at(k * dt) * dt for k in range(int(t1 / dt)))
    # value_at is right-continuous and breakpoints are floats that rarely hit
    # the grid, so allow a coarse tolerance proportional to dt.
    assert s.integral(0.0, t1) == pytest.approx(riemann, abs=dt * 50.0 * len(points) + 1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=20),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_property_integral_is_additive_over_subintervals(values, split):
    s = StepSeries(0.0)
    for i, v in enumerate(values):
        s.record(float(i), v)
    t1 = float(len(values))
    mid = min(max(split, 0.0), t1)
    assert s.integral(0, t1) == pytest.approx(s.integral(0, mid) + s.integral(mid, t1))
