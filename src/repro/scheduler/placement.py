"""Task placement — Algorithm 1 (§4.2.2) and its ablation variants.

Key quantities, named as in the paper:

* ``APT_r(w)`` — approximate time for worker ``w`` to drain its assigned
  type-r work (computed by the worker agents from measured processing
  rates).
* ``EPT`` — expected processing time per scheduling round; slightly larger
  than the scheduling interval to absorb communication delay.
* ``D_r(w) = max(0, (EPT − APT_r(w)) / EPT)`` — normalized headroom;
  ``D_mem(w)`` is the free-memory fraction.
* ``Inc_r(t, w)`` — the load increase on ``w`` if task ``t`` lands there:
  estimated type-r usage ÷ w's type-r processing rate ÷ EPT (memory: the
  estimated memory footprint ÷ capacity).
* ``F(t, w) = Σ_r D_r(w) · Inc_r(t, w)`` with two guard rules: never place
  where some ``D_r = 0`` while ``Inc_r > 0`` (execution would block on r),
  and cap ``Inc_r`` at ``D_r`` (availability bounds the contribution).

Whole stages are scored and placed together — a large ``stage_bonus`` makes
fully-placeable stages win over partial plans, which avoids manufacturing
stragglers that would block dependent stages (§5.2 ablates this).

Implementation notes (the placement loop runs at every scheduling interval
and dominated scheduler wall time):

* Stage selection uses lazy re-evaluation on a max-heap.  Within one
  placement round every commit can only *shrink* worker headroom, so stage
  scores are monotonically non-increasing; popping the stale maximum and
  re-scoring it fresh selects exactly the stage Algorithm 1's quadratic
  loop would, at a fraction of the cost.
* Tentative stage scoring undoes its commits with a *dirty set*: only the
  views a tentative plan actually touched are snapshotted (on first touch)
  and restored, instead of snapshot/restoring every worker per candidate
  stage.
* A heap entry whose generation still matches the commit counter was scored
  against the current view state, so its stored plan is committed without a
  redundant rescore (every round's first selection hits this).
* Per-task ``(cpu, net, disk)`` usage tuples are resolved once per task
  (``Task.sched_usage``): the estimates they derive from are frozen when
  the task becomes ready, and the same task is re-scored many times across
  rounds while it waits for headroom.
* **Repeat-profile rule.**  ``F(t, w)`` depends on the task only through
  its ``(usage, est_mem)`` profile.  A task whose profile differs from the
  previous task's scans the candidates directly, pruning with the cheapest
  checks first (liveness, memory fit, then the zero-headroom blocking rule
  per needed resource).  When the same profile repeats — equal-size
  partitions of one stage — :class:`_Scorer` builds one F row for it and,
  since a commit only shrinks the committed worker's headroom, refreshes
  just that worker's entry before the row is read again.  The row's
  first-occurrence maximum is the direct scan's first strict maximum, so
  decisions and floats are unchanged.

Everything here is float-for-float identical to the straightforward
implementation kept as the test oracle (``tests/scheduler/oracle.py``),
which the ``tests/perf`` determinism suite pins end-to-end.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional, Sequence

from ..dataflow.graph import ResourceType
from ..dataflow.monotask import Stage, Task
from ..perf import profile as _profile
from .ordering import SchedulingPolicy
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from ..execution.jobmanager import JobManager

__all__ = ["Assignment", "PlacementPolicy", "ReadyStage", "UrsaPlacement", "score_one"]

_FLUID = (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK)
_NEG_INF = float("-inf")


class Assignment:
    """One placement decision: task → worker.

    ``score`` carries the winning pure ``F(t, w)`` (no policy bonus) for
    lifecycle tracing; policies that don't score (e.g. Capacity) leave the
    default."""

    __slots__ = ("jm", "task", "worker", "score")

    def __init__(self, jm: "JobManager", task: Task, worker: int, score: float = 0.0):
        self.jm = jm
        self.task = task
        self.worker = worker
        self.score = score


class ReadyStage:
    """A stage with currently-ready tasks, as seen by the placement round."""

    __slots__ = ("jm", "stage", "tasks")

    def __init__(self, jm: "JobManager", stage: Stage, tasks: list[Task]):
        self.jm = jm
        self.stage = stage
        self.tasks = tasks


class PlacementPolicy:
    """Interface implemented by Algorithm 1, Tetris, and Capacity."""

    def place(
        self,
        ready: list[ReadyStage],
        workers: Sequence[Worker],
        now: float,
        job_policy: SchedulingPolicy,
    ) -> list[Assignment]:
        raise NotImplementedError


class _WorkerView:
    """Tentative per-round view of one worker's headroom (tuple-indexed)."""

    __slots__ = (
        "worker", "index", "d", "mem_available", "inv_rate_ept", "mem_capacity",
        "alive",
    )

    def __init__(self, worker: Worker, index: int, ept: float):
        self.worker = worker
        self.index = index
        #: the paper's D_r(w) = max(0, (EPT − APT_r(w)) / EPT) per fluid
        #: resource, where APT_r(w) comes from the worker's rate monitors
        self.d = [
            max(0.0, (ept - worker.apt(r)) / ept) for r in _FLUID
        ]
        self.mem_available = worker.available_memory_mb
        self.mem_capacity = worker.memory_capacity_mb
        rates = worker.processing_rates()
        #: 1 / (rate_r(w) · EPT): multiplying by estimated usage (MB) gives
        #: Inc_r(t, w) without a division on the scoring hot path
        self.inv_rate_ept = tuple(1.0 / (max(r, 1e-9) * ept) for r in rates)
        #: dead workers (fault layer) are skipped by every candidate scan;
        #: the flag lives on the view so the hot loops stay attribute-local
        self.alive = worker.alive

    @property
    def d_mem(self) -> float:
        """D_mem(w): the free-memory fraction (§4.2.2)."""
        return self.mem_available / self.mem_capacity


def score_one(view: _WorkerView, usage, mem: float) -> float:
    """``F(t, w) = Σ_r D_r(w) · Inc_r(t, w)`` for one (profile, worker)
    pair; ``-inf`` means infeasible: the worker is dead, the task's memory
    does not fit, or some needed resource has zero headroom (the blocking
    rule).  Term order (cpu, net, disk, mem) matches :meth:`_Scorer.search`'s
    direct scan, so both produce the same float."""
    if not view.alive:
        return _NEG_INF  # fault layer: dead workers take no placements
    avail = view.mem_available
    if mem > avail + 1e-9:
        return _NEG_INF
    d = view.d
    inv = view.inv_rate_ept
    u_cpu, u_net, u_disk = usage
    f = 0.0
    if u_cpu > 0.0:
        dr = d[0]  # D_cpu(w)
        if dr <= 0.0:
            return _NEG_INF  # blocking rule: needed resource, zero headroom
        inc = u_cpu * inv[0]  # Inc_cpu(t, w) = usage / (rate(w) · EPT)
        if inc > dr:
            inc = dr  # availability caps the contribution
        f += dr * inc
    if u_net > 0.0:
        dr = d[1]
        if dr <= 0.0:
            return _NEG_INF
        inc = u_net * inv[1]
        if inc > dr:
            inc = dr
        f += dr * inc
    if u_disk > 0.0:
        dr = d[2]
        if dr <= 0.0:
            return _NEG_INF
        inc = u_disk * inv[2]
        if inc > dr:
            inc = dr
        f += dr * inc
    if mem > 0.0:
        cap = view.mem_capacity
        d_mem = avail / cap
        if d_mem <= 0.0:
            return _NEG_INF
        inc_mem = mem / cap  # Inc_mem(t, w)
        f += d_mem * (inc_mem if inc_mem <= d_mem else d_mem)
    return f


def _commit(view: _WorkerView, usage, mem: float) -> None:
    """Shrink ``view``'s headroom by one placed task's increments."""
    d = view.d
    inv = view.inv_rate_ept
    u_cpu, u_net, u_disk = usage
    if u_cpu > 0.0:
        nd = d[0] - u_cpu * inv[0]
        d[0] = nd if nd > 0.0 else 0.0
    if u_net > 0.0:
        nd = d[1] - u_net * inv[1]
        d[1] = nd if nd > 0.0 else 0.0
    if u_disk > 0.0:
        nd = d[2] - u_disk * inv[2]
        d[2] = nd if nd > 0.0 else 0.0
    view.mem_available -= mem


class _Scorer:
    """Best-worker search over one view state, with the repeat-profile rule.

    ``row`` holds F for the previous unpinned task's profile once that
    profile repeats (empty once no worker fits it); ``dirty`` lists the
    workers committed since the row was last read, whose entries are
    refreshed before the next read.  A stage score uses a fresh scorer;
    task mode keeps one for the whole round and reports each permanent
    commit through :meth:`committed`.
    """

    __slots__ = (
        "views", "usage", "mem", "row", "dirty",
        "searches", "row_reads", "rows", "refreshed", "pinned",
    )

    def __init__(self, views: list[_WorkerView]):
        self.views = views
        self.usage = None
        self.mem = None
        self.row: Optional[list] = None
        self.dirty: list[int] = []
        # profiler tallies; workers_scanned is derived from them in scanned
        self.searches = 0
        self.row_reads = 0
        self.rows = 0
        self.refreshed = 0
        self.pinned = 0

    @property
    def scanned(self) -> int:
        """Candidate workers scored: a direct scan costs every worker (one
        if pinned), a row build every worker, a refresh one."""
        n = len(self.views)
        direct = self.searches - self.row_reads - self.pinned
        return n * (direct + self.rows) + self.pinned + self.refreshed

    def committed(self, view: _WorkerView) -> None:
        if self.row is not None:
            self.dirty.append(view.index)

    def search(self, scored, touched: Optional[dict]) -> tuple[float, list]:
        """Find each task's best worker — the first with the strictly
        highest ``F(t, w)`` — in turn; returns (sum of F, plan of (task,
        usage, mem, widx, f)).  With ``touched``, every placed task is
        tentatively committed before the next is scored, and each view is
        snapshotted into ``touched`` on its first commit."""
        views = self.views
        row = self.row
        dirty = self.dirty
        prev_usage = self.usage
        prev_mem = self.mem
        row_reads = 0
        refreshed = 0
        pinned = 0
        plan: list = []
        total = 0.0
        for task, usage, mem in scored:
            loc = task.locality
            if loc is None and mem == prev_mem and usage == prev_usage:
                # repeated profile: read (building or refreshing) the row
                row_reads += 1
                if row is None:
                    row = [score_one(v, usage, mem) for v in views]
                    dirty = []
                    self.rows += 1
                elif not row:
                    continue  # the profile fits nowhere (see below)
                elif dirty:
                    # headroom only shrinks: an infeasible entry stays so
                    for i in dirty:
                        if row[i] != _NEG_INF:
                            row[i] = score_one(views[i], usage, mem)
                    refreshed += len(dirty)
                    dirty = []
                best_f = max(row)
                if best_f == _NEG_INF:
                    # no worker fits this profile, and none can before the
                    # state is rebuilt: an empty row marks it dead
                    row = []
                    continue
                best_view = views[row.index(best_f)]
            else:
                if loc is None:
                    prev_usage = usage
                    prev_mem = mem
                    row = None
                    candidates = views
                else:
                    candidates = (views[loc],)
                    pinned += 1
                u_cpu, u_net, u_disk = usage
                best_view = None
                best_f = _NEG_INF
                # direct scan of F(t, w) = Σ_r D_r(w) · Inc_r(t, w): the
                # cheap feasibility checks prune a worker before any
                # scoring arithmetic
                for view in candidates:
                    if not view.alive:
                        continue  # fault layer: dead workers take no placements
                    if mem > view.mem_available + 1e-9:
                        continue
                    d = view.d
                    inv = view.inv_rate_ept
                    f = 0.0
                    if u_cpu > 0.0:
                        dr = d[0]
                        if dr <= 0.0:
                            continue  # blocking rule: zero headroom, work needed
                        inc = u_cpu * inv[0]
                        if inc > dr:
                            inc = dr  # availability caps the contribution
                        f += dr * inc
                    if u_net > 0.0:
                        dr = d[1]
                        if dr <= 0.0:
                            continue
                        inc = u_net * inv[1]
                        if inc > dr:
                            inc = dr
                        f += dr * inc
                    if u_disk > 0.0:
                        dr = d[2]
                        if dr <= 0.0:
                            continue
                        inc = u_disk * inv[2]
                        if inc > dr:
                            inc = dr
                        f += dr * inc
                    if mem > 0.0:
                        d_mem = view.mem_available / view.mem_capacity
                        if d_mem <= 0.0:
                            continue
                        inc_mem = mem / view.mem_capacity
                        f += d_mem * (inc_mem if inc_mem <= d_mem else d_mem)
                    if f > best_f:
                        best_f, best_view = f, view
                if best_view is None:
                    continue
            plan.append((task, usage, mem, best_view.index, best_f))
            total += best_f
            if touched is not None:
                if best_view not in touched:
                    bd = best_view.d
                    touched[best_view] = (bd[0], bd[1], bd[2], best_view.mem_available)
                _commit(best_view, usage, mem)
                if row is not None:
                    dirty.append(best_view.index)
        self.row = row
        self.dirty = dirty
        self.usage = prev_usage
        self.mem = prev_mem
        self.searches += len(scored)
        self.row_reads += row_reads
        self.refreshed += refreshed
        self.pinned += pinned
        return total, plan


def _count(prof, scorer: _Scorer) -> None:
    """Fold one scorer's tallies into the tick profiler."""
    prof.tasks_scored += scorer.searches
    prof.workers_scanned += scorer.scanned
    prof.profile_rows += scorer.rows
    prof.pinned_tasks += scorer.pinned


class UrsaPlacement(PlacementPolicy):
    """Algorithm 1 with stage-awareness and job-ordering bonuses."""

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
        # per-round scratch state (valid only inside one place() call)
        self._touched: dict[_WorkerView, tuple] = {}
        self._prof = None

    # ------------------------------------------------------------------
    def place(self, ready, workers, now, job_policy) -> list[Assignment]:
        self._prof = _profile.PROFILER
        views = [_WorkerView(w, i, self.ept) for i, w in enumerate(workers)]
        try:
            if self.stage_aware:
                return self._place_by_stage(ready, views, now, job_policy)
            return self._place_by_task(ready, views, now, job_policy)
        finally:
            self._prof = None

    def _usage(self, task: Task) -> tuple[float, float, float]:
        # est_* are frozen when the task becomes ready (before it is ever
        # scored), so the tuple is resolved once per task, not per round
        u = task.sched_usage
        if u is None:
            u = (
                task.est_cpu_mb,
                0.0 if self.ignore_network else task.est_net_mb,
                task.est_disk_mb,
            )
            task.sched_usage = u
        return u

    # ------------------------------------------------------------------
    def _place_by_stage(self, ready, views, now, job_policy) -> list[Assignment]:
        assignments: list[Assignment] = []
        pending = [rs for rs in ready if rs.tasks]
        prof = self._prof
        # Lazy-greedy max-heap of (-score, tiebreak, stage, scored, plan,
        # gen).  `gen` counts permanent commits: an entry whose gen still
        # matches was scored against the *current* view state, so its stored
        # score and plan are exactly what a fresh rescore would produce and
        # can be committed without re-scoring.
        gen = 0
        heap: list = []
        for seq, rs in enumerate(pending):
            # per-stage (task, usage, mem) tuples, resolved once per round:
            # the same stage is re-scored many times as the heap re-evaluates
            scored = [(t, self._usage(t), t.est_mem_mb) for t in rs.tasks]
            score, plan = self._stage_score_tentative(scored, views)
            if not plan:
                continue
            score += job_policy.placement_bonus(rs.jm.job, now)
            heapq.heappush(heap, (-score, seq, rs, scored, plan, gen))
        seq = len(pending)
        while heap:
            neg_stale, _sq, rs, scored, plan, g = heapq.heappop(heap)
            if not rs.tasks:
                continue
            if g != gen:
                score, plan = self._stage_score_tentative(scored, views)
                if not plan:
                    continue  # headroom only shrinks within a round: drop
                score += job_policy.placement_bonus(rs.jm.job, now)
                if heap and -heap[0][0] > score + 1e-12:
                    # stale top: push back with the fresh score and retry
                    seq += 1
                    heapq.heappush(heap, (-score, seq, rs, scored, plan, gen))
                    if prof is not None:
                        prof.heap_repushes += 1
                    continue
            # else: no commit since this entry was scored — the stored plan
            # is fresh, and the heap property guarantees every remaining
            # stale score (an upper bound on its fresh score) is <= ours
            placed_ids = set()
            for task, usage, mem, widx, f in plan:
                _commit(views[widx], usage, mem)
                assignments.append(Assignment(rs.jm, task, widx, f))
                placed_ids.add(task.task_id)
            gen += 1
            rs.tasks = [t for t in rs.tasks if t.task_id not in placed_ids]
            if rs.tasks:
                # the leftover was unplaceable with shrunken headroom; it
                # stays ready for the next scheduling interval
                continue
        return assignments

    def _place_by_task(self, ready, views, now, job_policy) -> list[Assignment]:
        """Fig-7 ablation: greedily place single highest-score tasks.

        The oracle loop re-scores the whole pool for every placement
        (O(P²·W)); scores only shrink as headroom is committed, so the same
        lazy max-heap trick applies.  Ties are resolved exactly as the
        oracle's first-strict-maximum scan does — by original pool
        position — so entries keep their enumeration index on re-push and
        the acceptance test compares full (score, seq) keys.  One
        :class:`_Scorer` serves the whole round: permanent commits are the
        only state changes, and each is reported to it.
        """
        assignments: list[Assignment] = []
        prof = self._prof
        scorer = _Scorer(views)
        search = scorer.search
        usage_of = self._usage
        heap: list = []
        pool = [(rs.jm, t) for rs in ready for t in rs.tasks]
        for seq, (jm, task) in enumerate(pool):
            _, plan = search(((task, usage_of(task), task.est_mem_mb),), None)
            if not plan:
                continue
            score = plan[0][4] + job_policy.placement_bonus(jm.job, now)
            heap.append((-score, seq, jm, task))
        heapq.heapify(heap)
        while heap:
            neg_stale, seq, jm, task = heapq.heappop(heap)
            _, plan = search(((task, usage_of(task), task.est_mem_mb),), None)
            if not plan:
                continue  # headroom only shrinks: never feasible again
            _, usage, mem, widx, f = plan[0]
            score = f + job_policy.placement_bonus(jm.job, now)
            if heap and (heap[0][0], heap[0][1]) < (-score, seq):
                # a stale competitor might still beat us (or win the
                # pool-order tie): re-evaluate it first
                heapq.heappush(heap, (-score, seq, jm, task))
                if prof is not None:
                    prof.heap_repushes += 1
                continue
            view = views[widx]
            _commit(view, usage, mem)
            scorer.committed(view)
            assignments.append(Assignment(jm, task, widx, f))
        if prof is not None:
            _count(prof, scorer)
        return assignments

    # ------------------------------------------------------------------
    # Algorithm 1's StageScore (tentative commits undone via the dirty set)
    # ------------------------------------------------------------------
    def _stage_score_tentative(self, scored, views) -> tuple[float, list]:
        touched = self._touched
        result = self._stage_score(scored, views, touched)
        for view, snap in touched.items():
            view.d[0], view.d[1], view.d[2], view.mem_available = snap
        touched.clear()
        return result

    def _stage_score(self, scored, views, touched) -> tuple[float, list]:
        """Score one stage; returns (score, plan of (task, usage, mem, widx, f)).

        Each task goes to its best worker under the tentative commits of the
        tasks before it; a stage whose every task found a worker earns
        ``stage_bonus``."""
        scorer = _Scorer(views)
        total, plan = scorer.search(scored, touched)
        prof = self._prof
        if prof is not None:
            prof.stages_scored += 1
            _count(prof, scorer)
        if not plan:
            return (0.0, [])
        bonus = self.stage_bonus if len(plan) == len(scored) else 0.0
        return (total / len(plan) + bonus, plan)
