"""The test oracle: a frozen, straightforward scheduling tick.

:class:`ReferenceUrsaPlacement` is the Algorithm-1 implementation as it
stood before the tick fast path: it snapshot/restores **every** worker view
per candidate stage, re-derives every task-usage tuple on demand and, in
task mode, rescans the whole pool for every placement.  It shares no code
with :class:`repro.scheduler.placement.UrsaPlacement` — not even the worker
view — so a bug in the engine cannot hide in a helper both use.

:class:`OracleConfig` runs a whole system on the oracle tick through the
two existing :class:`~repro.scheduler.UrsaConfig` seams, so production
code carries no oracle flag:

* ``placement`` — the oracle placement above;
* ``build_policy`` — ordering policies that restore the other two
  pre-fast-path behaviours: worker queues re-sorted on *every* tick (even
  under statically-ranked EJF) and SRJF's ``_dot(job)`` recomputed on every
  call instead of memoized.

The determinism suites (``tests/perf``, ``tests/faults``, ``tests/obs``)
require the engine's metrics, event streams and digests to equal the
oracle's byte for byte; the property suites in ``tests/scheduler`` compare
single placement rounds decision for decision and float for float.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.dataflow.graph import ResourceType
from repro.scheduler import (
    Assignment,
    EarliestJobFirst,
    PlacementPolicy,
    SmallestRemainingJobFirst,
    UrsaConfig,
)

__all__ = ["OracleConfig", "ReferenceUrsaPlacement", "UnmemoizedSRJF"]

_FLUID = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)
_CPU, _NET, _DISK = 0, 1, 2


class _WorkerView:
    """Tentative per-round view of one worker's headroom (tuple-indexed)."""

    __slots__ = (
        "worker", "index", "d", "mem_available", "inv_rate_ept", "mem_capacity",
        "alive",
    )

    def __init__(self, worker, index: int, ept: float):
        self.worker = worker
        self.index = index
        # D_r(w) = max(0, (EPT − APT_r(w)) / EPT) per fluid resource
        self.d = [max(0.0, (ept - worker.apt(r)) / ept) for r in _FLUID]
        self.mem_available = worker.available_memory_mb
        self.mem_capacity = worker.memory_capacity_mb
        rates = worker.processing_rates()
        # 1 / (rate_r(w) · EPT)
        self.inv_rate_ept = tuple(1.0 / (max(r, 1e-9) * ept) for r in rates)
        self.alive = worker.alive

    @property
    def d_mem(self) -> float:
        return self.mem_available / self.mem_capacity

    def snapshot(self) -> tuple:
        return (self.d[0], self.d[1], self.d[2], self.mem_available)

    def restore(self, snap: tuple) -> None:
        self.d[0], self.d[1], self.d[2], self.mem_available = snap


def _task_usage(task, ignore_network: bool) -> tuple[float, float, float]:
    return (
        task.est_cpu_mb,
        0.0 if ignore_network else task.est_net_mb,
        task.est_disk_mb,
    )


class ReferenceUrsaPlacement(PlacementPolicy):
    """Algorithm 1, pre-fast-path: snapshot-all undo, no caching."""

    def __init__(
        self,
        ept: float = 0.3,
        stage_bonus: float = 1e6,
        stage_aware: bool = True,
        ignore_network: bool = False,
    ):
        if ept <= 0:
            raise ValueError("EPT must be positive")
        self.ept = ept
        self.stage_bonus = stage_bonus
        self.stage_aware = stage_aware
        self.ignore_network = ignore_network

    # ------------------------------------------------------------------
    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        views = [_WorkerView(w, i, self.ept) for i, w in enumerate(workers)]
        if self.stage_aware:
            return self._place_by_stage(ready, views, now, job_policy)
        return self._place_by_task(ready, views, now, job_policy)

    # ------------------------------------------------------------------
    def _place_by_stage(self, ready, views, now, job_policy) -> list[Assignment]:
        assignments: list[Assignment] = []
        pending = [rs for rs in ready if rs.tasks]
        # lazy-greedy max-heap of (-score, tiebreak, stage)
        heap: list = []
        for seq, rs in enumerate(pending):
            score, plan = self._stage_score_tentative(rs.tasks, views)
            if not plan:
                continue
            score += job_policy.placement_bonus(rs.jm.job, now)
            heapq.heappush(heap, (-score, seq, rs))
        seq = len(pending)
        while heap:
            neg_stale, _sq, rs = heapq.heappop(heap)
            if not rs.tasks:
                continue
            score, plan = self._stage_score_tentative(rs.tasks, views)
            if not plan:
                continue  # headroom only shrinks within a round: drop
            score += job_policy.placement_bonus(rs.jm.job, now)
            if heap and -heap[0][0] > score + 1e-12:
                # stale top: push back with the fresh score and retry
                seq += 1
                heapq.heappush(heap, (-score, seq, rs))
                continue
            placed_ids = set()
            for task, widx, f in plan:
                self._commit(views[widx], task)
                assignments.append(Assignment(rs.jm, task, widx, f))
                placed_ids.add(task.task_id)
            rs.tasks = [t for t in rs.tasks if t.task_id not in placed_ids]
        return assignments

    def _place_by_task(self, ready, views, now, job_policy) -> list[Assignment]:
        """Fig-7 ablation: greedily place single highest-score tasks."""
        assignments: list[Assignment] = []
        pool = [(rs.jm, t) for rs in ready for t in rs.tasks]
        while pool:
            best = None
            best_score = float("-inf")
            for i, (jm, task) in enumerate(pool):
                widx, f = self._best_worker(task, views)
                if widx is None:
                    continue
                score = f + job_policy.placement_bonus(jm.job, now)
                if score > best_score:
                    best_score, best = score, (i, widx, f)
            if best is None:
                break
            i, widx, f = best
            jm, task = pool.pop(i)
            self._commit(views[widx], task)
            assignments.append(Assignment(jm, task, widx, f))
        return assignments

    # ------------------------------------------------------------------
    # Algorithm 1's StageScore (on a tentative copy of the views)
    # ------------------------------------------------------------------
    def _stage_score_tentative(self, tasks, views) -> tuple[float, list]:
        snaps = [v.snapshot() for v in views]
        result = self._stage_score(tasks, views)
        for v, s in zip(views, snaps):
            v.restore(s)
        return result

    def _stage_score(self, tasks, views) -> tuple[float, list]:
        plan: list = []
        score = 0.0
        stage_bonus = self.stage_bonus
        for task in tasks:
            widx, f = self._best_worker(task, views)
            if widx is None:
                stage_bonus = 0.0
            else:
                plan.append((task, widx, f))
                self._commit(views[widx], task)
                score += f
        if not plan:
            return (0.0, [])
        return (score / len(plan) + stage_bonus, plan)

    def _best_worker(self, task, views) -> tuple[Optional[int], float]:
        if task.locality is not None:
            candidates = (views[task.locality],)
        else:
            candidates = views
        usage = _task_usage(task, self.ignore_network)
        best_view = None
        best_f = float("-inf")
        for view in candidates:
            f = self._score(task, usage, view)
            if f is not None and f > best_f:
                best_f, best_view = f, view
        if best_view is None:
            return None, 0.0
        return best_view.index, best_f

    def _score(self, task, usage, view: _WorkerView) -> Optional[float]:
        """Textbook ``F(t, w) = Σ_r D_r(w) · Inc_r(t, w)``; ``None`` means
        infeasible (dead worker, memory misfit or the blocking rule)."""
        if not view.alive:
            return None
        mem = task.est_mem_mb
        if mem > view.mem_available + 1e-9:
            return None
        d = view.d
        inv = view.inv_rate_ept
        f = 0.0
        for r in (_CPU, _NET, _DISK):
            u = usage[r]
            if u <= 0.0:
                continue
            dr = d[r]
            if dr <= 0.0:
                return None  # blocking rule: needed resource, zero headroom
            inc = u * inv[r]
            if inc > dr:
                inc = dr  # availability caps the contribution
            f += dr * inc
        d_mem = view.mem_available / view.mem_capacity
        if mem > 0.0:
            if d_mem <= 0.0:
                return None
            inc_mem = mem / view.mem_capacity
            f += d_mem * min(inc_mem, d_mem)
        return f

    def _commit(self, view: _WorkerView, task) -> None:
        usage = _task_usage(task, self.ignore_network)
        d = view.d
        inv = view.inv_rate_ept
        for r in (_CPU, _NET, _DISK):
            if usage[r] > 0.0:
                nd = d[r] - usage[r] * inv[r]
                d[r] = nd if nd > 0.0 else 0.0
        view.mem_available -= task.est_mem_mb


class _ResortingEJF(EarliestJobFirst):
    """EJF whose worker queues are re-sorted every tick: claiming a dynamic
    rank turns off the scheduler's resort elision."""

    dynamic_rank = True


class UnmemoizedSRJF(SmallestRemainingJobFirst):
    """SRJF recomputing ``Σ_r (2L_r − R_r) · R_r / L_r`` on every call."""

    def _dot(self, job) -> float:
        total = 0.0
        for r in _FLUID:
            big_l = self._load[r]
            rem = min(job.remaining_work.get(r, 0.0), big_l)
            if big_l <= 1e-9:
                continue
            total += (2.0 * big_l - rem) * rem / big_l
        return total


@dataclass
class OracleConfig(UrsaConfig):
    """An :class:`UrsaConfig` whose system runs the oracle tick."""

    def __post_init__(self) -> None:
        if self.placement is None:
            self.placement = ReferenceUrsaPlacement(
                ept=self.scheduling_interval * self.ept_factor,
                stage_aware=self.stage_aware,
                ignore_network=self.ignore_network,
            )

    def build_policy(self):
        if self.policy == "ejf":
            return _ResortingEJF(self.policy_weight)
        if self.policy == "srjf":
            return UnmemoizedSRJF(self.policy_weight)
        return super().build_policy()
