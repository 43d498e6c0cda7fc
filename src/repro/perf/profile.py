"""Opt-in work counters for the scheduling tick.

The per-tick scheduling loop (policy refresh → queue resort → ready-stage
gathering → Algorithm-1 placement → dispatch) gets counters that cost
*nothing* when disabled: the scheduler reads one module global
(:data:`PROFILER`) per tick / placement round and skips every counting
branch while it is ``None``.  Time is not measured here: the repository
benchmark (``python3 perfbench/run.py --workload W --trace 1``) times every
layer, the tick's refresh / resort / place included, from outside the
program.

Usage::

    from repro.perf import profile

    prof = profile.enable()
    ...run simulations...
    print(profile.disable().report())

or via the CLI: ``python -m repro.experiments --profile --only fig7
--scale tiny`` (profiling forces serial in-process execution — worker
processes would not share the parent's profiler).

Counters (cumulative over every tick while enabled):

* ``ticks`` / ``assignments`` — scheduling rounds run, tasks placed.
* ``resort_ticks`` — rounds that actually re-sorted worker queues
  (statically-ranked policies elide the resort entirely).
* ``stages_scored`` — StageScore evaluations, including lazy-heap
  re-evaluations.
* ``tasks_scored`` — best-worker searches (one per task per StageScore).
* ``workers_scanned`` — candidate workers considered across all searches.
* ``heap_repushes`` — stale lazy-heap tops that were re-pushed.
* ``profile_rows`` — F rows built under the placement engine's
  repeat-profile rule (one per run of same-profile tasks); a workload of
  all-distinct profiles keeps it at zero and ``workers_scanned`` near
  ``tasks_scored × workers``.
* ``pinned_tasks`` — best-worker searches of locality-pinned tasks (one
  candidate each).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TickProfiler", "PROFILER", "enable", "disable"]


class TickProfiler:
    """Work counters for the scheduling-tick hot path."""

    __slots__ = (
        "ticks", "assignments", "resort_ticks", "stages_scored",
        "tasks_scored", "workers_scanned", "heap_repushes",
        "profile_rows", "pinned_tasks",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def report(self) -> str:
        """Human-readable tick counter report."""
        ticks = self.ticks or 1
        return (
            f"scheduling-tick profile: {self.ticks} ticks, "
            f"{self.assignments} assignments\n"
            f"  counters: resort_ticks={self.resort_ticks} "
            f"(elided={self.ticks - self.resort_ticks}), "
            f"stages_scored={self.stages_scored} "
            f"({self.stages_scored / ticks:.1f}/tick), "
            f"tasks_scored={self.tasks_scored}, "
            f"workers_scanned={self.workers_scanned} "
            f"({self.workers_scanned / max(self.tasks_scored, 1):.1f}/task), "
            f"heap_repushes={self.heap_repushes}, "
            f"profile_rows={self.profile_rows}, "
            f"pinned_tasks={self.pinned_tasks}"
        )


#: The active profiler, or ``None`` when profiling is off.  Hot paths read
#: this exactly once per tick / placement round.
PROFILER: Optional[TickProfiler] = None


def enable() -> TickProfiler:
    """Install (and return) a fresh global profiler."""
    global PROFILER
    PROFILER = TickProfiler()
    return PROFILER


def disable() -> Optional[TickProfiler]:
    """Uninstall the global profiler and return it (None if not enabled)."""
    global PROFILER
    prof, PROFILER = PROFILER, None
    return prof
