"""Layer spans for the traced benchmark run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer (listed in
:data:`LAYERS`) at run time.  Every call becomes a span carrying its layer,
start, end and parent span, kept in flat in-memory arrays and written out
once at the end (:meth:`Tracer.write`).  A span's *self time* is its duration
minus the durations of its direct children, so the self times of all layers
plus the root span's own self time (``other_s``) add up to the root span's
duration exactly: every child duration is subtracted from exactly one parent.

Garbage-collector pauses are spans too (``python.gc``, from
``gc.callbacks``), so their time is taken out of whichever span they
interrupt instead of being charged to it.

The wrappers cost time; it lands in the parent span's self time, and the
benchmark reports the total as ``tracing.overhead_s`` (traced minus untraced
wall time).  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

__all__ = ["LAYERS", "Tracer", "install", "load_spans"]

#: layer -> (module, attributes).  ``Class.method`` also wraps every loaded
#: subclass that overrides the method; ``Class.*`` wraps every public method
#: the class defines; ``Class._on_*`` every event handler it schedules.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "dataflow.plan": (("repro.execution.job", ("plan_job",)),),
    "workloads.build": (("repro.workloads.spec", ("JobSpec.build_graph",)),),
    "execution.pull_sources": (
        ("repro.execution.metadata", ("MetadataStore.pull_sources",)),
    ),
    "execution.jm": (
        ("repro.execution.jobmanager", (
            "JobManager.place_task", "JobManager.run_monotask",
            "JobManager.monotask_finished",
        )),
    ),
    "simcore.step": (("repro.simcore.engine", ("Simulation.step",)),),
    "simcore.processor": (
        ("repro.simcore.resources", ("SharedProcessor.submit", "SharedProcessor.cancel")),
    ),
    "simcore.network": (
        ("repro.simcore.network", ("NetworkFabric.start_transfer", "NetworkFabric.cancel")),
    ),
    "scheduler.place": (("repro.scheduler.placement", ("PlacementPolicy.place",)),),
    "scheduler.refresh": (("repro.scheduler.ordering", ("SchedulingPolicy.refresh",)),),
    "scheduler.resort": (("repro.scheduler.worker", ("Worker.resort_queues",)),),
    "scheduler.enqueue": (("repro.scheduler.worker", ("Worker.enqueue",)),),
    "scheduler.admission": (
        ("repro.scheduler.admission", (
            "AdmissionController.submit", "AdmissionController.admit_ready",
            "AdmissionController.release", "AdmissionController.resize",
        )),
    ),
    "service.report": (("repro.service.driver", ("build_report",)),),
    # the controller's public methods plus the handlers it schedules on the
    # engine: crash, rejoin, slowdown and grant-timeout recovery run there
    "faults.handler": (
        ("repro.faults.injector", ("FaultController.*", "FaultController._on_*")),
    ),
    "obs.hook": (
        ("repro.obs.recorder", ("TraceRecorder.*",)),
        ("repro.obs.telemetry", ("TelemetryCollector.*",)),
    ),
    "obs.attribute": (("repro.obs.attribution", ("attribute",)),),
    "metrics.compute": (("repro.metrics.accounting", ("compute_metrics",)),),
}

GC_LAYER = "python.gc"


def _pull_sources(args, result, counts) -> None:
    counts["execution.sources"] += len(result)


def _run_monotask(args, result, counts) -> None:
    counts["execution.monotasks_run"] += 1
    counts["execution.work_started_mb"] += args[1].input_size_mb


def _start_transfer(args, result, counts) -> None:
    counts["simcore.transfers"] += 1


#: ``Class.method`` -> counter update run after the call, outside its span
TALLIES = {
    "MetadataStore.pull_sources": _pull_sources,
    "JobManager.run_monotask": _run_monotask,
    "ReceiverSideFabric.start_transfer": _start_transfer,
    "MaxMinFabric.start_transfer": _start_transfer,
}


class Tracer:
    """Span store plus per-layer self-time and call counters."""

    def __init__(self) -> None:
        self.names: list[str] = ["root"]
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        #: counters kept by :data:`TALLIES`
        self.counts: dict[str, float] = defaultdict(float)
        # open spans, innermost last: [span id, summed child duration]
        self._stack: list[list] = []
        self._root_t0 = 0.0

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    # ------------------------------------------------------------------
    def _open(self, lid: int) -> list:
        sid = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        entry = [sid, 0.0]
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, lid: int, t0: float, t1: float) -> None:
        sid = entry[0]
        self.start[sid] = t0
        self.end[sid] = t1
        self._stack.pop()
        d = t1 - t0
        self.self_s[lid] += d - entry[1]
        self.calls[lid] += 1
        if self._stack:
            self._stack[-1][1] += d

    def wrap(self, lid: int, fn, tally=None):
        """``fn`` as a span of layer ``lid``; ``tally(args, result, counts)``
        runs after the span closes."""
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entry = open_(lid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(entry, lid, t0, perf_counter())
            if tally is not None:
                tally(args, result, counts)
            return result

        return span

    # ------------------------------------------------------------------
    def begin_root(self) -> None:
        """Open the root span (the benchmark's timed region).  Spans and
        counters recorded before it, during set-up, are dropped."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts.clear()
        self._root = self._open(0)
        self._root_t0 = perf_counter()

    def end_root(self) -> float:
        """Close the root span; returns its duration (traced wall time)."""
        if not self._stack or self._stack[-1] is not self._root:
            raise RuntimeError("spans still open at the end of the root span")
        t1 = perf_counter()
        self._close(self._root, 0, self._root_t0, t1)
        return t1 - self._root_t0

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_entry = self._open(self._gc_lid)
            self._gc_t0 = perf_counter()
        elif self._gc_entry is not None:
            self._close(self._gc_entry, self._gc_lid, self._gc_t0, perf_counter())
            self._gc_entry = None

    def enable_gc_spans(self) -> None:
        self._gc_lid = self.layer_id(GC_LAYER)
        self._gc_entry = None
        gc.callbacks.append(self._gc_callback)

    def disable_gc_spans(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per layer; ``root`` is the untraced remainder."""
        return dict(zip(self.names, self.self_s))

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write(self, path: Path) -> Path:
        """Write the spans: a JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "layers": self.names,
            "spans": len(self.start),
            "arrays": [["layer", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(f)
        return path


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        cols = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, n)
            cols[name] = arr
    return header["layers"], cols


def _targets(module, attr: str):
    """(owner, name, function) triples an attribute pattern selects."""
    if "." not in attr:
        return [(module, attr, getattr(module, attr))]
    cls_name, meth = attr.split(".", 1)
    cls = getattr(module, cls_name)
    if meth in ("*", "_on_*"):
        pick = (
            (lambda n: not n.startswith("_")) if meth == "*"
            else (lambda n: n.startswith("_on_"))
        )
        return [
            (cls, n, f) for n, f in vars(cls).items()
            if pick(n) and callable(f) and not isinstance(f, (staticmethod, classmethod, type))
        ]
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        todo.extend(c.__subclasses__())
        if meth in vars(c):
            out.append((c, meth, vars(c)[meth]))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` (once per process)."""
    # import the packages whose classes get subclassed or imported lazily,
    # so every override exists before the class tree is walked
    for mod in ("repro.scheduler", "repro.faults.injector", "repro.service"):
        importlib.import_module(mod)
    for layer, entries in LAYERS.items():
        lid = tracer.layer_id(layer)
        for mod_name, attrs in entries:
            module = importlib.import_module(mod_name)
            for attr in attrs:
                targets = _targets(module, attr)
                if not targets:
                    raise LookupError(f"{mod_name}.{attr} matched nothing to trace")
                for owner, name, fn in targets:
                    tally = TALLIES.get(f"{getattr(owner, '__name__', '')}.{name}")
                    setattr(owner, name, tracer.wrap(lid, fn, tally))
