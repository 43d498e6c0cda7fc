"""Property tests pinning the engine's profile-row path to the oracle.

The placement engine scores a repeated ``(usage, mem)`` profile through one
F row (``score_one`` per worker, then single-entry refreshes) instead of
the direct candidate scan.  It claims *bit*-identity with the frozen oracle
in :mod:`tests.scheduler.oracle`, not approximate equality: every F(t, w)
— direct scan, row entry and ``score_one`` refresh — must equal the
oracle's float exactly, across resource mixes, the D_r = 0 blocking rule,
Inc-capping, memory infeasibility, dead workers and locality pins.
"""

import random

import pytest

from repro.scheduler import EarliestJobFirst, UrsaPlacement
from repro.scheduler.placement import _Scorer, _WorkerView, score_one

from .oracle import ReferenceUrsaPlacement, _task_usage
from .oracle import _WorkerView as _OracleView
from .test_placement import _randomized_setup, build_jm, ready_stages

_NEG_INF = float("-inf")


def _collect_profiles(stages):
    """Distinct (usage, est_mem) profiles over every ready task."""
    profiles = []
    seen = set()
    for stage in stages:
        for task in stage.tasks:
            key = (_task_usage(task, False), task.est_mem_mb)
            if key not in seen:
                seen.add(key)
                profiles.append(key)
    return profiles


def _oracle_row(oracle, views, task, usage, mem):
    """Brute-force row: the oracle's textbook scorer per worker."""
    task_mem = task.est_mem_mb
    try:
        task.est_mem_mb = mem
        out = []
        for view in views:
            f = oracle._score(task, usage, view)
            out.append(_NEG_INF if f is None else f)
        return out
    finally:
        task.est_mem_mb = task_mem


@pytest.mark.parametrize("seed", range(12))
def test_score_row_matches_bruteforce_scalar_scorer(seed):
    """Engine rows == per-worker oracle F(t, w), float-for-float, on
    randomized worker states (mixed loads, blocking, mem pressure); the
    direct scan and the row path pick the same first maximum."""
    workers, stages = _randomized_setup(seed, n_jobs=4, machines=6)
    rng = random.Random(seed)
    for w in rng.sample(workers, 2):
        w.alive = rng.random() < 0.5  # dead workers must score -inf
    oracle = ReferenceUrsaPlacement(ept=0.3)
    oracle_views = [_OracleView(w, i, ept=0.3) for i, w in enumerate(workers)]
    views = [_WorkerView(w, i, ept=0.3) for i, w in enumerate(workers)]
    task = stages[0].tasks[0]
    for usage, mem in _collect_profiles(stages):
        expected = _oracle_row(oracle, oracle_views, task, usage, mem)
        assert [score_one(v, usage, mem) for v in views] == expected
        best = max(expected)
        want = [] if best == _NEG_INF else [
            (task, usage, mem, expected.index(best), best)]
        scorer = _Scorer(views)
        one = ((task, usage, mem),)
        assert scorer.search(one, None)[1] == want  # direct scan
        assert scorer.search(one, None)[1] == want  # repeat: row path
        assert scorer.rows == 1


def test_score_row_covers_blocking_capping_and_memory():
    """Directed edge cases: a zero-headroom resource blocks, a huge task's
    Inc is capped at D_r, and memory infeasibility wins over everything."""
    workers, _ = _randomized_setup(0, n_jobs=1, machines=4)
    views = [_WorkerView(w, i, ept=0.3) for i, w in enumerate(workers)]
    usage = (10.0, 0.0, 0.0)

    views[1].d[0] = 0.0  # blocking rule: needed resource with zero headroom
    assert score_one(views[1], usage, 0.0) == _NEG_INF

    huge = (1e9, 1e9, 1e9)  # Inc-capping: F bounded by sum of D_r^2 (+ mem)
    for v in views:
        f = score_one(v, huge, 0.0)
        if f != _NEG_INF:
            assert f <= sum(d * d for d in v.d) + 1e-12

    too_big = max(v.mem_capacity for v in views) * 2.0
    assert all(score_one(v, usage, too_big) == _NEG_INF for v in views)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("stage_aware", [True, False])
def test_vector_engine_matches_scalar_and_reference(seed, stage_aware):
    """Full placement rounds with locality pins: the engine and the frozen
    oracle must agree on every (task, worker, score)."""

    def run(make):
        workers, stages = _randomized_setup(seed, n_jobs=4, machines=4)
        rng = random.Random(seed * 31 + 7)
        for stage in stages:  # sprinkle locality pins over the ready set
            for task in stage.tasks:
                if rng.random() < 0.2:
                    task.locality = rng.randrange(len(workers))
        out = make().place(stages, workers, 25.0, EarliestJobFirst(weight=0.1))
        return [(a.jm.job.job_id, a.task.task_id, a.worker, a.score) for a in out]

    expected = run(lambda: ReferenceUrsaPlacement(ept=0.3, stage_aware=stage_aware))
    assert run(lambda: UrsaPlacement(ept=0.3, stage_aware=stage_aware)) == expected


def test_ursa_config_selects_engine_not_oracle():
    """A default system places through the one engine; the oracle is only
    reachable through the ``placement`` seam, and the retired engine knob
    is gone from the config."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.scheduler import UrsaConfig, UrsaSystem

    from .oracle import OracleConfig

    def cluster():
        return Cluster(ClusterSpec.small(num_machines=2, cores=4, core_rate_mbps=10.0))

    system = UrsaSystem(cluster(), UrsaConfig())
    assert type(system.placement) is UrsaPlacement
    oracle = UrsaSystem(cluster(), OracleConfig(stage_aware=False))
    assert isinstance(oracle.placement, ReferenceUrsaPlacement)
    assert oracle.placement.stage_aware is False
    with pytest.raises(TypeError):
        UrsaConfig(placement_mode="vector")


def test_profiler_counters_populate():
    """A profiled round reports the rows its repeated profiles built and
    the locality-pinned searches it ran."""
    from repro.cluster import Cluster, ClusterSpec
    from repro.perf import profile as tick_profile
    from repro.scheduler import Worker

    prof = tick_profile.enable()
    try:
        cluster = Cluster(ClusterSpec.small(num_machines=4, cores=4, core_rate_mbps=10.0))
        workers = [Worker(cluster, i, EarliestJobFirst()) for i in range(4)]
        jm = build_jm(cluster, n_tasks=6, size=10.0)
        for task in list(jm.ready_tasks)[:2]:
            task.locality = 1
        UrsaPlacement(ept=0.3).place(ready_stages(jm), workers, 0.0, EarliestJobFirst())
    finally:
        tick_profile.disable()
    assert prof.profile_rows > 0
    assert prof.pinned_tasks >= 2  # the two locality-pinned tasks
    assert prof.workers_scanned < prof.tasks_scored * len(workers)
