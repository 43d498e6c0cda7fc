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
log segments in unit order).

Enable the recorder *before* building the simulated cluster: workers log
their capacities at construction, and the engine logs its event count
and clock each time a run stops.
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

    def splice(self, segments) -> None:
        """Append another recorder's ``(unit, log)`` segments — a pool
        worker's — after this log's.  The current unit continues in a fresh
        segment, so its later entries stay after the spliced ones in every
        view."""
        self.segments.extend(segments)
        self.log = []
        self.segments.append((self.unit, self.log))
        for sink in self.sinks:
            sink.follow(self.unit, self.log)

    @property
    def events(self) -> list[dict]:
        """The lifecycle trace: one schema dict per trace-kind entry, in log
        order.  Materialized incrementally; the returned list is the cache."""
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

    def engine_ends(self) -> dict[str, tuple[int, float]]:
        """unit -> (events fired, final clock) from each unit's last
        ``engine`` entry — the values telemetry reports as
        ``engine_events`` / ``sim_end``."""
        out: dict[str, tuple[int, float]] = {}
        for unit, log in self.segments:
            for entry in reversed(log):
                if entry[0] == _ev.ENGINE:
                    out[unit] = (entry[2], entry[1])
                    break
        return out


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
