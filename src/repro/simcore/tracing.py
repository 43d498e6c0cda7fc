"""Step-function time-series recording.

Resource monitors record piecewise-constant signals: "3 cores busy from
t=2.0", "1 core busy from t=7.5", ...  This module stores those signals
compactly and supports the queries the metrics and telemetry layers need:

* the exact time integral (for SE/UE accounting and telemetry means),
* the busy time ``∫[value>0]dt`` and the running peak (telemetry), and
* resampling onto a regular grid (the utilization figures and the
  telemetry series).
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["StepSeries", "TraceSet"]


class StepSeries:
    """A piecewise-constant series ``value(t)``; right-continuous steps."""

    __slots__ = ("times", "values", "_last", "peak")

    def __init__(self, initial: float = 0.0):
        self.times: list[float] = [0.0]
        self.values: list[float] = [float(initial)]
        self._last = float(initial)
        #: the largest value ever recorded, as given (an int stays an int),
        #: including same-instant values a later record overwrote
        self.peak = self._last

    def record(self, time: float, value: float) -> None:
        """Set the series value from ``time`` onward."""
        v = float(value)
        if v == self._last:
            return
        last_t = self.times[-1]
        if time < last_t:
            raise ValueError(f"trace time going backwards: {time} < {last_t}")
        if time == last_t:
            # overwrite a same-instant change; keep the latest value
            self.values[-1] = v
        else:
            self.times.append(float(time))
            self.values.append(v)
        self._last = v
        if value > self.peak:
            self.peak = value

    def add(self, time: float, delta: float) -> None:
        """Record ``current + delta`` at ``time`` (counter-style usage)."""
        self.record(time, self._last + delta)

    @property
    def current(self) -> float:
        return self._last

    def value_at(self, t: float) -> float:
        """Series value at time ``t`` (right-continuous)."""
        if t < self.times[0]:
            return self.values[0]
        idx = bisect_right(self.times, t) - 1
        return self.values[idx]

    def integral(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Exact integral of the series over ``[t0, t1]``."""
        if t1 is None:
            t1 = self.times[-1]
        return self._sweep((t0, t1))[0]

    def busy(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Time the series is positive over ``[t0, t1]``: ``∫[value>0]dt``."""
        if t1 is None:
            t1 = self.times[-1]
        return self._sweep((t0, t1), busy=True)[0]

    def mean(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Time-average over ``[t0, t1]``; 0 for an empty window."""
        if t1 is None:
            t1 = self.times[-1]
        span = t1 - t0
        if span <= 0:
            return 0.0
        return self.integral(t0, t1) / span

    def resample(self, t0: float, t1: float, dt: float) -> tuple[list[float], list[float]]:
        """Average the series over consecutive windows of width ``dt``.

        Returns (window start times, window averages) covering [t0, t1).
        This is how the utilization figures are produced (1 s windows, like
        the sar-style sampling the paper plots), and the telemetry series.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        grid: list[float] = []
        t = t0
        while t < t1 - 1e-12:
            grid.append(t)
            t += dt
        if not grid:
            return [], []
        edges = grid + [min(t, t1)]
        sums = self._sweep(edges)
        return grid, [v / (end - start) for v, start, end in zip(sums, edges, edges[1:])]

    def _sweep(self, edges, busy: bool = False) -> list[float]:
        """Exact integral over each window ``[edges[k], edges[k+1]]`` in
        one pass over the steps (of ``[value>0]`` when ``busy``); an empty
        or inverted window integrates to 0."""
        times, values = self.times, self.values
        n = len(times)
        i = max(0, bisect_right(times, edges[0]) - 1)
        out = []
        for t0, t1 in zip(edges, edges[1:]):
            total = 0.0
            while True:
                seg_start = times[i] if times[i] > t0 else t0
                seg_end = times[i + 1] if i + 1 < n and times[i + 1] < t1 else t1
                if seg_end > seg_start:
                    if not busy:
                        total += values[i] * (seg_end - seg_start)
                    elif values[i] > 0:
                        total += seg_end - seg_start
                if seg_end >= t1:
                    break
                i += 1
            out.append(total)
        return out

    def __len__(self) -> int:
        return len(self.times)


class TraceSet:
    """A named collection of :class:`StepSeries` (one per machine/resource)."""

    def __init__(self) -> None:
        self._series: dict[str, StepSeries] = {}

    def series(self, name: str, initial: float = 0.0) -> StepSeries:
        s = self._series.get(name)
        if s is None:
            s = StepSeries(initial)
            self._series[name] = s
        return s

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> StepSeries:
        return self._series[name]
