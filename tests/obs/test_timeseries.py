"""Unit tests for the telemetry series primitives: the step series
telemetry folds its signals into, and the streaming histograms."""

import pytest

from repro.obs.timeseries import LATENCY_BOUNDS, StreamingHistogram
from repro.simcore.tracing import StepSeries


class TestTimeBins:
    """Fixed-interval telemetry series: ``StepSeries.resample`` windows."""

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            StepSeries().resample(0.0, 1.0, 0.0)

    def test_empty_series(self):
        s = StepSeries()
        assert s.resample(0.0, 0.0, 1.0) == ([], [])
        assert s.integral(0.0, 0.0) == 0.0

    def test_single_bin_segment(self):
        s = StepSeries()
        s.record(0.25, 2.0)
        s.record(0.75, 0.0)
        assert s.integral(0.0, 1.0) == pytest.approx(1.0)
        assert s.resample(0.0, 1.0, 1.0)[1] == [pytest.approx(1.0)]

    def test_segment_spanning_bins_prorates_edges(self):
        s = StepSeries()
        s.record(0.5, 1.0)  # half of bin0, all of bin1, half of bin2
        s.record(2.5, 0.0)
        assert s.resample(0.0, 3.0, 1.0)[1] == [
            pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5)
        ]
        assert s.integral(0.0, 3.0) == pytest.approx(2.0)

    def test_zero_value_still_extends_coverage(self):
        """A zero-valued stretch still yields windows, so the series covers
        the gap."""
        s = StepSeries()
        s.record(3.0, 2.0)
        assert s.resample(0.0, 4.0, 1.0)[1] == [0.0, 0.0, 0.0, pytest.approx(2.0)]

    def test_last_bin_divides_by_covered_span(self):
        s = StepSeries(1.0)  # the last window is only covered for 0.5 s
        assert s.resample(0.0, 1.5, 1.0) == ([0.0, 1.0], [1.0, 1.0])

    def test_backwards_segment_ignored(self):
        s = StepSeries(5.0)
        assert s.resample(2.0, 1.0, 1.0) == ([], [])
        assert s.integral(2.0, 1.0) == 0.0
        assert s.busy(2.0, 1.0) == 0.0


class TestStepAccumulator:
    """Telemetry's gauge queries: ``StepSeries`` integral, busy time, peak."""

    def test_integral_and_busy_seconds(self):
        s = StepSeries()
        s.add(1.0, 1.0)   # 0 active during [0,1)
        s.add(3.0, 1.0)   # 1 active during [1,3)
        s.add(4.0, -2.0)  # 2 active during [3,4), 0 during [4,5)
        assert s.integral(0.0, 5.0) == pytest.approx(1.0 * 2 + 2.0 * 1)
        assert s.busy(0.0, 5.0) == pytest.approx(3.0)
        assert s.busy(2.0, 3.5) == pytest.approx(1.5)
        assert s.peak == 2.0
        assert s.mean(0.0, 5.0) == pytest.approx(4.0 / 5.0)

    def test_mean_covers_pending_segment(self):
        s = StepSeries()
        s.record(0.0, 2.0)
        # value 2.0 held from t=0 with no later change: the mean includes it
        assert s.mean(0.0, 4.0) == pytest.approx(2.0)

    def test_mean_empty(self):
        assert StepSeries().mean() == 0.0
        assert StepSeries().mean(0.0, 0.0) == 0.0

    def test_same_instant_updates_replace_value(self):
        s = StepSeries()
        s.record(1.0, 5)
        s.record(1.0, 1)  # zero-length spike contributes nothing...
        assert s.integral(0.0, 2.0) == pytest.approx(1.0)
        assert s.peak == 5  # ...but the peak still saw it,
        assert type(s.peak) is int  # as given: int gauges export as ints

    def test_series_matches_bins(self):
        s = StepSeries()
        s.add(0.5, 1.0)
        s.add(2.5, -1.0)
        grid, avgs = s.resample(0.0, 3.0, 1.0)
        assert avgs == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5)]
        assert avgs == [s.integral(t, t + 1.0) for t in grid]


class TestStreamingHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            StreamingHistogram(())
        with pytest.raises(ValueError):
            StreamingHistogram((1.0, 1.0))

    def test_empty_snapshot_is_all_zero(self):
        d = StreamingHistogram(LATENCY_BOUNDS).as_dict()
        assert d["count"] == 0
        for k in ("sum", "min", "max", "mean", "p25", "p50", "p75", "p95", "p99"):
            assert d[k] == 0.0

    def test_identical_samples_quantiles_clamp_to_sample(self):
        """Interpolation must not spread N identical samples across their
        bucket — every quantile of {0,0,...,0} is exactly 0."""
        h = StreamingHistogram((0.5, 1.0))
        for _ in range(10):
            h.observe(0.0)
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert h.quantile(q) == 0.0

    def test_quantile_bounds_checked(self):
        h = StreamingHistogram((1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_bucket_reports_observed_max(self):
        h = StreamingHistogram((1.0,))
        h.observe(50.0)
        assert h.quantile(0.5) == 50.0
        d = h.as_dict()
        assert d["max"] == 50.0
        assert d["buckets"] == [[1.0, 0]]

    def test_quantiles_monotone_and_in_range(self):
        h = StreamingHistogram(LATENCY_BOUNDS)
        for i in range(1, 200):
            h.observe(i * 0.01)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert all(h.vmin <= v <= h.vmax for v in qs)

    def test_as_dict_cumulative_buckets(self):
        h = StreamingHistogram((1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 5.0):
            h.observe(v)
        d = h.as_dict()
        assert d["buckets"] == [[1.0, 1], [2.0, 3]]
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(8.7)
