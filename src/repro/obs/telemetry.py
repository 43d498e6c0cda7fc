"""Cluster telemetry: the aggregated view of the observation log.

Where the trace (:attr:`~repro.obs.recorder.TraceRecorder.events`) keeps
one dict per lifecycle event, replayable into Chrome/Perfetto, telemetry
folds the same log into *aggregated series*: counters, gauges, streaming
histograms, and — the core of it — **exact busy-time integrals** per worker
and per resource, computed from grant/release edges rather than sampling.
A monotask that runs 37 ms contributes exactly 0.037 busy-seconds to its
worker's resource, no matter how the 1-second resampling grid falls.

Telemetry has no hooks of its own: a collector attaches to the global
:data:`~repro.obs.recorder.RECORDER` (installing one if none is) and
:meth:`UnitTelemetry.fold` replays the log entries it saw, in event order,
when the unit ends or a summary, the dashboard, or ``end_time()`` needs
them.  Folding is pure observation, so telemetry-on runs stay
bit-identical to telemetry-off runs — enforced by ``tests/obs``.

Usage::

    from repro.obs import telemetry

    tel = telemetry.enable(interval=1.0)
    ...run simulations...
    summary = telemetry.disable().summary()

or via the CLI: ``python -m repro.experiments --telemetry-out DIR`` /
``--dashboard`` (both force serial in-process execution).

Enable telemetry *before* building the
:class:`~repro.simcore.engine.Simulation`: workers log their capacities at
construction, and the engine logs its event count and clock each time a
run stops (not once per event).

Series semantics: signals (active monotasks, queue depth, queued MB,
admission-queue length, running jobs) are piecewise-constant between log
entries, so each is a :class:`~repro.simcore.tracing.StepSeries` — the
same step-signal type the cluster's SE/UE ledgers use.  Means and busy
times are its exact integrals over ``[0, end]``, and ``series[k]`` is
:meth:`~repro.simcore.tracing.StepSeries.resample`'s exact time-weighted
mean over ``[k·interval, (k+1)·interval)``.  Cluster utilization divides
the summed per-worker active counts by the summed concurrency limits —
note the network bypass lane (small transfers) runs *outside* the slot
limit, so network utilization can transiently exceed 1.0.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from . import events as _ev
from . import recorder as _rec
from ..simcore.tracing import StepSeries
from .timeseries import LATENCY_BOUNDS, StreamingHistogram

__all__ = ["TelemetryCollector", "UnitTelemetry", "TELEMETRY", "enable", "disable",
           "unit_summary", "RTYPES", "JCT_BOUNDS"]

RTYPES = ("cpu", "network", "disk")

#: histogram boundaries (seconds) for job-scale durations (JCT, admission
#: wait) — latencies here are seconds-to-minutes, not milliseconds
JCT_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: counter keys, pre-seeded so every summary has the same shape
_COUNTER_KEYS = (
    "grants", "bypass_grants", "releases", "aborts",
    "queue_pushes", "queue_pops", "queue_evicted",
    "jobs_submitted", "jobs_admitted", "jobs_started",
    "jobs_completed", "jobs_failed", "jobs_failed_unadmitted",
    "sched_ticks", "tasks_assigned",
    "retries", "monotasks_lost", "worker_down", "worker_up",
    "wasted_work_mb",
    "jobs_shed", "autoscale_up", "autoscale_down",
)


class UnitTelemetry:
    """All metric state for one simulation unit (one experiment run).

    While the unit is current, :attr:`log` is the recorder's log it reads
    from :attr:`folded` on, and :meth:`fold` replays the new entries into
    the accumulators on demand; the collector folds the rest when the unit
    ends.  Replay follows log order, which is event order, so folding in
    several passes yields exactly what one pass would.
    """

    def __init__(self, label: str, interval: float):
        self.label = label
        self.interval = interval
        self.log: Optional[list] = None
        self.folded = 0
        self.counters: dict[str, float] = {k: 0 for k in _COUNTER_KEYS}
        self.counters["wasted_work_mb"] = 0.0
        #: (worker, rtype) -> concurrency limit, from the worker_spec entries
        self.capacity: dict[tuple[int, str], int] = {}
        #: (worker, rtype) -> active-monotask count
        self.busy: dict[tuple[int, str], StepSeries] = {}
        #: (worker, rtype) -> (queue depth, queued MB)
        self.queue: dict[tuple[int, str], tuple[StepSeries, StepSeries]] = {}
        self.admission_q = StepSeries()
        self.running_jobs = StepSeries()
        self.alloc_hist = {r: StreamingHistogram(LATENCY_BOUNDS) for r in RTYPES}
        self.admission_wait_hist = StreamingHistogram(JCT_BOUNDS)
        self.jct_hist = StreamingHistogram(JCT_BOUNDS)
        #: (job, mt) -> queue-push time, popped at grant for alloc latency
        self.pending_alloc: dict[tuple[int, int], float] = {}
        #: worker -> went-down time (blackouts record a repair on rejoin)
        self.down_since: dict[int, float] = {}
        self.repair_times: list[float] = []
        self.recovery_times: list[float] = []
        #: the unit's last ``engine`` entry: events fired, final clock
        self.engine_seen = False
        self.engine_events = 0
        self.sim_end = 0.0

    def is_empty(self) -> bool:
        """True for units that never saw a simulation or a counted entry —
        e.g. the initial ``"run"`` placeholder when every unit was
        relabelled.  Empty units are dropped from summaries and exports."""
        self.fold()
        return not self.engine_seen and not any(self.counters.values())

    def fold(self) -> None:
        """Replay the unfolded log entries into the aggregate structures."""
        log, start = self.log, self.folded
        if log is not None and len(log) > start:
            self.folded = len(log)
            self._replay(islice(log, start, self.folded))

    def _replay(self, entries) -> None:
        busy_acc = self.busy_acc
        queue_acc = self.queue_acc
        pending = self.pending_alloc
        c = self.counters
        grants = bypass = releases = pushes = pops = ticks = assigned = 0
        for e in entries:
            kind = e[0]
            # the per-monotask kinds first; the trace kinds no aggregate
            # reads (jm_start, task_*, mt_finish) fall through
            if kind == _ev.QUEUE_PUSH:
                _, t, worker, rtype, job, mt, qlen, work_mb = e
                pushes += 1
                pending[(job, mt)] = t
                depth, mb = queue_acc(worker, rtype)
                depth.record(t, qlen)
                mb.record(t, work_mb)
            elif kind == _ev.QUEUE_POP:
                _, t, worker, rtype, _, _, qlen, work_mb = e
                pops += 1
                depth, mb = queue_acc(worker, rtype)
                depth.record(t, qlen)
                mb.record(t, work_mb)
            elif kind == _ev.MT_START:
                _, t, worker, rtype, job, mt, _, byp = e
                grants += 1
                if byp:
                    bypass += 1
                    lat = 0.0
                else:
                    lat = t - pending.pop((job, mt), t)
                self.alloc_hist[rtype].observe(lat)
                busy_acc(worker, rtype).add(t, 1.0)
            elif kind == _ev.RES_RELEASE:
                releases += 1
                busy_acc(e[2], e[3]).add(e[1], -1.0)
            elif kind == _ev.SCHED_TICK:
                ticks += 1
                assigned += e[2]
            elif kind == _ev.ENGINE:
                self.engine_seen = True
                self.sim_end = e[1]
                self.engine_events = e[2]
            elif kind == _ev.WORKER_SPEC:
                _, _, worker, cores, disks, net = e[:6]
                for rtype, limit in (("cpu", cores), ("network", net), ("disk", disks)):
                    self.capacity[(worker, rtype)] = limit
                    busy_acc(worker, rtype)
                    queue_acc(worker, rtype)
            elif kind == _ev.JOB_SUBMIT:
                c["jobs_submitted"] += 1
                self.admission_q.record(e[1], e[5])
            elif kind == _ev.JOB_ADMIT:
                c["jobs_admitted"] += 1
                self.admission_wait_hist.observe(e[3])
            elif kind == _ev.ADMISSION_QUEUE:
                self.admission_q.record(e[1], e[2])
            elif kind == _ev.JOB_STARTED:
                c["jobs_started"] += 1
                self.running_jobs.record(e[1], e[2])
            elif kind == _ev.JOB_COMPLETED:
                c["jobs_completed"] += 1
                self.jct_hist.observe(e[2])
                self.running_jobs.record(e[1], e[3])
            elif kind == _ev.JOB_FAILED:
                c["jobs_failed"] += 1
                self.running_jobs.record(e[1], e[2])
            elif kind == _ev.JOB_FINISH:
                # a waiting job doomed by a permanent capacity loss never
                # held a reservation: the running-jobs gauge is untouched
                if e[5]:
                    c["jobs_failed"] += 1
                    c["jobs_failed_unadmitted"] += 1
            elif kind == _ev.WORKER_DOWN:
                c["worker_down"] += 1
                self.down_since[e[2]] = e[1]
            elif kind == _ev.WORKER_UP:
                c["worker_up"] += 1
                down = self.down_since.pop(e[2], None)
                if down is not None:
                    self.repair_times.append(e[1] - down)
            elif kind == _ev.MT_LOST:
                c["monotasks_lost"] += 1
                if e[8]:
                    # a granted monotask torn down by the fault layer: its
                    # release entry will never come
                    c["aborts"] += 1
                    busy_acc(e[2], e[3]).add(e[1], -1.0)
            elif kind == _ev.RETRY:
                c["retries"] += 1
            elif kind == _ev.QUEUE_EVICT:
                _, t, worker, rtype, qlen, work_mb, keys = e
                c["queue_evicted"] += len(keys)
                for key in keys:
                    pending.pop(key, None)
                depth, mb = queue_acc(worker, rtype)
                depth.record(t, qlen)
                mb.record(t, work_mb)
            elif kind == _ev.WASTED_WORK:
                c["wasted_work_mb"] += e[2]
            elif kind == _ev.FAULT_RECOVERY:
                self.recovery_times.append(e[2])
            elif kind == _ev.JOB_SHED:
                # never submitted: none of the job-lifecycle counters move
                c["jobs_shed"] += 1
            elif kind == _ev.AUTOSCALE:
                c["autoscale_up" if e[2] > 0 else "autoscale_down"] += 1
        c["grants"] += grants
        c["bypass_grants"] += bypass
        c["releases"] += releases
        c["queue_pushes"] += pushes
        c["queue_pops"] += pops
        c["sched_ticks"] += ticks
        c["tasks_assigned"] += assigned

    # -- lazy series accessors (worker_spec entries usually seed them
    # -- eagerly; baselines that bypass Worker still get tracked)
    def busy_acc(self, worker: int, rtype: str) -> StepSeries:
        s = self.busy.get((worker, rtype))
        if s is None:
            s = self.busy[(worker, rtype)] = StepSeries()
        return s

    def queue_acc(self, worker: int, rtype: str) -> tuple[StepSeries, StepSeries]:
        pair = self.queue.get((worker, rtype))
        if pair is None:
            pair = self.queue[(worker, rtype)] = (StepSeries(), StepSeries())
        return pair

    def end_time(self) -> float:
        """The horizon every series is read to: the engine's final clock,
        or the latest change of any series if that is later (or no engine
        was logged)."""
        self.fold()
        gauges = [*self.busy.values(), *(d for d, _ in self.queue.values()),
                  self.admission_q, self.running_jobs]
        return max(self.sim_end, *(s.times[-1] for s in gauges))


class TelemetryCollector:
    """Aggregated cluster metrics across simulation units.

    Attached to a :class:`~repro.obs.recorder.TraceRecorder`, the
    collector follows the log's unit labels: each ``begin_unit`` folds the
    current unit's last entries and hands the new log to the unit of the
    new label.
    """

    def __init__(self, interval: float = 1.0):
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval!r})")
        self.interval = interval
        self.units: dict[str, UnitTelemetry] = {}
        self._u = self._unit("run")
        #: optional ``callback(unit: UnitTelemetry)`` fired when a unit is
        #: sealed (next begin_unit / disable).  The live dashboard hangs off
        #: this; it observes the collector and never touches the simulation,
        #: so determinism guarantees are unaffected.
        self.on_unit_end = None
        #: the recorder whose log this collector folds (None when detached)
        self.recorder: Optional[_rec.TraceRecorder] = None
        self._installed: Optional[_rec.TraceRecorder] = None

    def _unit(self, label: str) -> UnitTelemetry:
        u = self.units.get(label)
        if u is None:
            u = self.units[label] = UnitTelemetry(label, self.interval)
        return u

    def _seal_unit(self) -> None:
        u = self._u
        if self.on_unit_end is not None and not u.is_empty():
            self.on_unit_end(u)

    def _drain(self) -> None:
        """Fold the current unit's last entries and stop reading its log."""
        u = self._u
        u.fold()
        u.log = None

    def attach(self, rec: _rec.TraceRecorder) -> None:
        """Fold ``rec``'s log from its current end on."""
        if self.recorder is not None:
            self.recorder.sinks.remove(self)
        self.recorder = rec
        rec.sinks.append(self)
        self.follow(rec.unit, rec.log)

    def detach(self) -> None:
        """Stop folding new entries and seal the current unit."""
        self._drain()
        if self.recorder is not None:
            self.recorder.sinks.remove(self)
            self.recorder = None
        self._seal_unit()

    def follow(self, label: str, log: list) -> None:
        """Entries appended to ``log`` from now on belong to unit ``label``
        (the attached recorder calls this from ``begin_unit``)."""
        self._drain()
        if label != self._u.label:
            self._seal_unit()
            self._u = self._unit(label)
        self._u.log = log
        self._u.folded = len(log)

    def begin_unit(self, label: str) -> None:
        """All subsequent entries belong to simulation unit ``label`` — a
        relabel of the attached log, which every view of it follows (a
        detached collector sees no entries, so there is nothing to label)."""
        if self.recorder is not None:
            self.recorder.begin_unit(label)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def live_units(self) -> dict[str, UnitTelemetry]:
        """Units that actually recorded something (empty ones dropped)."""
        return {label: u for label, u in self.units.items() if not u.is_empty()}

    def summary(self) -> dict:
        """JSON-ready snapshot of every non-empty unit plus totals."""
        live = self.live_units()
        units = {label: unit_summary(u) for label, u in live.items()}
        totals: dict[str, float] = {k: 0 for k in _COUNTER_KEYS}
        totals["wasted_work_mb"] = 0.0
        for u in live.values():
            for k, v in u.counters.items():
                totals[k] += v
        return {"interval": self.interval, "units": units, "totals": totals}


def unit_summary(u: UnitTelemetry) -> dict:
    """JSON-ready snapshot of one unit (shared by summary() and the
    dashboard's per-unit panels)."""
    end = u.end_time()

    def series(s: StepSeries) -> list[float]:
        return s.resample(0.0, end, u.interval)[1]

    #: (worker, rtype) -> (∫active·dt, busy seconds) over [0, end]
    busy = {key: (s.integral(0.0, end), s.busy(0.0, end)) for key, s in u.busy.items()}
    rt_util = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in u.busy if r == rtype)
        cap = sum(u.capacity.get((w, rtype), 0) for w in workers)
        integral = 0.0
        busy_s = 0.0
        peak = 0.0
        per_series = []
        for w in workers:
            s = u.busy[(w, rtype)]
            per_series.append(series(s))
            integral += busy[(w, rtype)][0]
            busy_s += busy[(w, rtype)][1]
            if s.peak > peak:
                peak = s.peak
        summed = _sum_series(per_series)
        rt_util[rtype] = {
            "capacity": cap,
            "busy_seconds": busy_s,
            "active_mean": integral / end if end > 0 else 0.0,
            "mean": integral / (cap * end) if cap and end > 0 else 0.0,
            "worker_peak_active": peak,
            "series": [x / cap for x in summed] if cap else summed,
        }

    workers_out: dict[str, dict] = {}
    for (w, rtype) in sorted(u.busy):
        integral, busy_s = busy[(w, rtype)]
        workers_out.setdefault(str(w), {})[rtype] = {
            "capacity": u.capacity.get((w, rtype), 0),
            "busy_seconds": busy_s,
            "mean_active": integral / end if end > 0 else 0.0,
            "peak_active": u.busy[(w, rtype)].peak,
        }

    queues = {}
    for rtype in RTYPES:
        workers = sorted(w for (w, r) in u.queue if r == rtype)
        pairs = [u.queue[(w, rtype)] for w in workers]
        depth = [d for d, _ in pairs]
        mb = [m for _, m in pairs]
        queues[rtype] = {
            "depth_mean": sum(s.integral(0.0, end) for s in depth) / end if end > 0 else 0.0,
            "depth_worker_peak": max((s.peak for s in depth), default=0.0),
            "depth_series": _sum_series([series(s) for s in depth]),
            "mb_mean": sum(s.integral(0.0, end) for s in mb) / end if end > 0 else 0.0,
            "mb_worker_peak": max((s.peak for s in mb), default=0.0),
            "mb_series": _sum_series([series(s) for s in mb]),
        }

    rep, rec_ = u.repair_times, u.recovery_times
    return {
        "sim_end": end,
        "engine_events": u.engine_events,
        "counters": dict(u.counters),
        "utilization": rt_util,
        "workers": workers_out,
        "queues": queues,
        "admission_queue": {"mean": u.admission_q.mean(0.0, end),
                            "peak": u.admission_q.peak, "series": series(u.admission_q)},
        "running_jobs": {"mean": u.running_jobs.mean(0.0, end),
                         "peak": u.running_jobs.peak, "series": series(u.running_jobs)},
        "alloc_latency": {r: u.alloc_hist[r].as_dict() for r in RTYPES},
        "admission_wait": u.admission_wait_hist.as_dict(),
        "jct": u.jct_hist.as_dict(),
        "faults": {
            "repair_count": len(rep),
            "repair_mean_s": sum(rep) / len(rep) if rep else 0.0,
            "repair_max_s": max(rep) if rep else 0.0,
            "recovery_count": len(rec_),
            "recovery_mean_s": sum(rec_) / len(rec_) if rec_ else 0.0,
            "recovery_max_s": max(rec_) if rec_ else 0.0,
            "wasted_work_mb": u.counters["wasted_work_mb"],
        },
    }


def _sum_series(series_list: list[list[float]]) -> list[float]:
    """Elementwise sum of variable-length series (short ones pad with 0)."""
    if not series_list:
        return []
    n = max(len(s) for s in series_list)
    out = [0.0] * n
    for s in series_list:
        for i, v in enumerate(s):
            out[i] += v
    return out


#: The installed collector, or ``None`` when telemetry is off.  Hook sites
#: never read it: they append to the recorder's log, which it folds.
TELEMETRY: Optional[TelemetryCollector] = None


def enable(interval: float = 1.0) -> TelemetryCollector:
    """Install (and return) a fresh global collector, attached to the
    installed recorder — or to a new one when observation is off."""
    global TELEMETRY
    tel = TelemetryCollector(interval)
    disable()
    rec = _rec.RECORDER
    if rec is None:
        rec = tel._installed = _rec.enable()
    tel.attach(rec)
    TELEMETRY = tel
    return tel


def disable() -> Optional[TelemetryCollector]:
    """Uninstall the global collector and return it (None if not enabled).
    It detaches from the log, sealing its last unit, and uninstalls the
    recorder :func:`enable` installed for it."""
    global TELEMETRY
    tel, TELEMETRY = TELEMETRY, None
    if tel is not None:
        tel.detach()
        if tel._installed is not None and _rec.RECORDER is tel._installed:
            _rec.disable()
    return tel
