"""The observation log (same opt-in pattern as ``repro.perf.profile``).

The scheduling/execution hot paths read one module global
(:data:`RECORDER`) per hook site and skip every instrumentation branch
while it is ``None``, so observation costs near zero when disabled.  While
it is set, each hook site appends **one tuple** per seam to the current
unit's log, laid out by :data:`repro.obs.events.SCHEMA`.  Entries are pure
observations — recording never schedules, mutates, or consults the wall
clock — so an observed run produces metrics bit-identical to an
unobserved one, and the log is as deterministic as the simulation.  The
trace (:attr:`TraceRecorder.events`) and the attached telemetry
collectors (:mod:`repro.obs.telemetry`) are its two views.

Usage::

    from repro.obs import recorder

    rec = recorder.enable()
    ...run simulations...
    events = recorder.disable().events

or via the CLI: ``python -m repro.experiments --trace --only table2
--scale tiny`` (pool workers record locally and the parent splices their
traces in unit order).

Enable the recorder *before* building the :class:`~repro.simcore.engine.\
Simulation`: the engine binds its observer hook at construction.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from . import events as _ev

__all__ = ["TraceRecorder", "RECORDER", "enable", "disable"]

#: kind -> (trace field names, field dropped while false) for the dict view
_VIEWS = {
    kind: (trace, _ev.OMIT_FALSE.get(kind))
    for kind, (trace, _) in _ev.SCHEMA.items() if kind in _ev.ALL_KINDS
}


class TraceRecorder:
    """The observation log across simulation units, plus its trace view."""

    def __init__(self) -> None:
        #: label of the simulation unit currently being logged; the parallel
        #: runner's serial path rebinds this per unit, direct users may too
        self.unit: str = "run"
        #: the current unit's log: hook sites append one tuple per seam
        self.log: list[tuple] = []
        #: (unit label, log) per begin_unit, in order
        self.segments: list[tuple[str, list]] = [(self.unit, self.log)]
        #: per-unit engine counters fed by the Simulation observer hook:
        #: unit -> [events_fired, last_sim_time]
        self.engine_stats: dict[str, list] = {}
        #: telemetry collectors folding this log (they follow begin_unit)
        self.sinks: list = []
        self._events: list[dict] = []
        self._viewed = (0, 0)  # (segment, entry) the trace view has reached

    def begin_unit(self, label: str) -> None:
        """All subsequent entries belong to simulation unit ``label``."""
        label = str(label)
        if label == self.unit:
            return
        self.unit = label
        self.log = []
        self.segments.append((label, self.log))
        for sink in self.sinks:
            sink.follow(label, self.log)

    def emit(self, kind: str, t: float, **fields) -> None:
        """Append one entry by field name (the hook sites build the tuple
        directly).  Telemetry-only fields default to ``None``."""
        trace, extra = _ev.SCHEMA[kind]
        opt = _ev.OMIT_FALSE.get(kind)
        entry = [kind, t]
        entry += (fields.pop(f, False) if f == opt else fields.pop(f) for f in trace)
        entry += (fields.pop(f, None) for f in extra)
        if fields:
            raise TypeError(f"{kind}: unknown fields {sorted(fields)}")
        self.log.append(tuple(entry))

    @property
    def events(self) -> list[dict]:
        """The lifecycle trace: one schema dict per trace-kind entry, in log
        order.  Materialized incrementally; the returned list is the cache
        (the parallel runner extends it with pool workers' traces)."""
        out = self._events
        seg, pos = self._viewed
        segments = self.segments
        while True:
            unit, log = segments[seg]
            for entry in islice(log, pos, None):
                view = _VIEWS.get(entry[0])
                if view is None:
                    continue
                names, opt = view
                ev = {"t": entry[1], "kind": entry[0], "unit": unit}
                ev.update(zip(names, entry[2:]))
                if opt is not None and not ev[opt]:
                    del ev[opt]
                out.append(ev)
            pos = len(log)
            if seg + 1 == len(segments):
                break
            seg, pos = seg + 1, 0
        self._viewed = (seg, pos)
        return out

    def __len__(self) -> int:
        return len(self.events)

    def engine_observer(self, handle) -> None:
        """Counts fired simulation events per unit (bound by
        ``Simulation.__init__``; trace metadata, not a log entry — one per
        engine event would dwarf the lifecycle log)."""
        stats = self.engine_stats.get(self.unit)
        if stats is None:
            stats = self.engine_stats[self.unit] = [0, 0.0]
        stats[0] += 1
        stats[1] = handle.time


#: The active recorder, or ``None`` when observation is off.  Hook sites
#: read this exactly once per call and branch away while it is ``None``.
RECORDER: Optional[TraceRecorder] = None


def enable() -> TraceRecorder:
    """Install (and return) a fresh global recorder.  Telemetry collectors
    attached to the previous one move to it."""
    global RECORDER
    old, RECORDER = RECORDER, TraceRecorder()
    if old is not None:
        for sink in list(old.sinks):
            sink.attach(RECORDER)
    return RECORDER


def disable() -> Optional[TraceRecorder]:
    """Uninstall the global recorder and return it (None if not enabled).
    Telemetry attached to it receives no further entries."""
    global RECORDER
    rec, RECORDER = RECORDER, None
    return rec
