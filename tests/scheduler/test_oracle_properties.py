"""Engine ≡ oracle on ready sets built to exercise the repeat-profile rule.

``_randomized_setup`` in ``test_placement`` draws continuous task sizes,
so every task there has its own profile and scores are tie-free: the
engine's F row is never reused and first-maximum tie-breaking is never
tested.  These ready sets are made of a few discrete sizes instead:

* equal-size tasks that tie on identical idle workers;
* A A B A runs, so a row is built, dropped and rebuilt;
* locality pins between same-profile tasks, whose commits must refresh
  the row;
* dead workers, which a row must keep at ``-inf``.

Each case runs a full placement round in stage mode and in task mode and
requires the engine and the oracle to agree on every (job, task, worker,
score).  A width sweep (8, 64 and 128 workers) repeats the check on
mostly-uniform stages with a few odd partitions.
"""

import random

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.dataflow import ResourceType
from repro.perf import profile as tick_profile
from repro.scheduler import EarliestJobFirst, UrsaPlacement, Worker

from .oracle import ReferenceUrsaPlacement
from .test_placement import build_jm, ready_stages

#: the discrete task sizes (MB) profiles are drawn from
_SIZES = (4.0, 10.0, 25.0)


def _setup(seed, machines, sizes_per_job, loaded, dead=0, pin_p=0.0):
    """Workers (idle and identical unless ``loaded``) plus one ready stage
    per job, with ``dead`` workers down and tasks pinned with ``pin_p``."""
    rng = random.Random(seed)
    cluster = Cluster(ClusterSpec.small(num_machines=machines, cores=4, core_rate_mbps=10.0))
    workers = [Worker(cluster, i, EarliestJobFirst()) for i in range(machines)]
    if loaded:
        for w in workers:
            for r in (ResourceType.CPU, ResourceType.NETWORK, ResourceType.DISK):
                w.assigned_work[r] = rng.uniform(0.0, 8.0)
                w.rates[r].record(rng.uniform(5.0, 40.0), rng.uniform(0.5, 3.0))
            w.running[ResourceType.CPU] = rng.randrange(0, w.machine.spec.cores + 1)
            w.machine.reserve_memory(rng.uniform(0.0, 0.5) * w.machine.memory.capacity)
    for w in rng.sample(workers, dead):
        w.alive = False
    stages = []
    for j, sizes in enumerate(sizes_per_job):
        jm = build_jm(cluster, n_tasks=len(sizes), size=sizes, job_id=j,
                      submit=float(j % 2))
        stages.extend(ready_stages(jm))
    for stage in stages:
        for task in stage.tasks:
            if rng.random() < pin_p:
                task.locality = rng.randrange(machines)
    return workers, stages


def _decisions(make, build):
    workers, stages = build()
    out = make().place(stages, workers, 25.0, EarliestJobFirst(weight=0.1))
    return [(a.jm.job.job_id, a.task.task_id, a.worker, a.score) for a in out]


def _check(build, stage_aware, expect_rows=True):
    """Engine ≡ oracle on ``build()``'s round; returns the engine's
    profiler so callers can assert the row path ran."""
    expected = _decisions(
        lambda: ReferenceUrsaPlacement(ept=0.3, stage_aware=stage_aware), build)
    prof = tick_profile.enable()
    try:
        got = _decisions(lambda: UrsaPlacement(ept=0.3, stage_aware=stage_aware), build)
    finally:
        tick_profile.disable()
    assert got == expected
    assert expected, "the case places nothing: it would test nothing"
    if expect_rows:
        assert prof.profile_rows > 0  # the repeat-profile row was used
    return prof


A, B, C = _SIZES


@pytest.mark.parametrize("stage_aware", [True, False])
@pytest.mark.parametrize("case", [
    # equal sizes on identical idle workers: every F ties
    dict(sizes=[[A] * 6, [A] * 6], loaded=False),
    # A A B A runs: build, drop and rebuild the row
    dict(sizes=[[A, A, B, A, B, B, A, A], [B, A, A, B]], loaded=False),
    dict(sizes=[[A, A, B, A, B, B, A, A], [C, C, A, C]], loaded=True),
    # pins between same-profile tasks refresh the row they interrupt
    dict(sizes=[[A] * 8, [B, B, A, B, B]], loaded=False, pin_p=0.3),
    dict(sizes=[[C] * 8, [A, A, B, A]], loaded=True, pin_p=0.3),
    # dead workers stay -inf in every row
    dict(sizes=[[A] * 8, [A, B, A, A]], loaded=False, dead=1),
    dict(sizes=[[B] * 6, [A, A, C, A]], loaded=True, dead=2, pin_p=0.2),
], ids=["ties", "aaba-idle", "aaba-loaded", "pins-idle", "pins-loaded",
        "dead-idle", "dead-pins-loaded"])
def test_directed_repeated_profiles_match_oracle(case, stage_aware):
    sizes = case["sizes"]
    _check(
        lambda: _setup(0, 4, sizes, case["loaded"], case.get("dead", 0),
                       case.get("pin_p", 0.0)),
        stage_aware,
    )


@pytest.mark.parametrize("stage_aware", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_random_interleaved_profiles_match_oracle(seed, stage_aware):
    """Random runs over three sizes, random pins and dead workers, on idle
    (tie-heavy) or pre-loaded workers."""
    rng = random.Random(seed)
    sizes = [
        [rng.choice(_SIZES) for _ in range(rng.randrange(3, 10))]
        for _ in range(rng.randrange(2, 5))
    ]
    dead = rng.randrange(0, 2)
    _check(
        lambda: _setup(seed, 5, sizes, loaded=seed % 2 == 1, dead=dead, pin_p=0.15),
        stage_aware,
        expect_rows=any(a == b for s in sizes for a, b in zip(s, s[1:])),
    )


def _sweep_setup(n_workers: int, seed: int = 7):
    """Pre-loaded workers plus six jobs' stages sized to the width: mostly
    one profile per stage, with a few odd-sized partitions."""
    rng = random.Random(seed)
    per_job = max(2, (4 * n_workers) // 6)
    sizes = []
    for _ in range(6):
        base = rng.uniform(4.0, 60.0)
        sizes.append([
            base if rng.random() < 0.9 else rng.uniform(1.0, 120.0)
            for _ in range(per_job)
        ])
    return _setup(seed, n_workers, sizes, loaded=True)


@pytest.mark.parametrize("n_workers,stage_aware", [
    (8, True), (64, True), (128, True), (8, False),
])
def test_width_sweep_decisions_match_oracle(n_workers, stage_aware):
    prof = _check(lambda: _sweep_setup(n_workers), stage_aware)
    # rows never cost more candidate scores than a direct scan per task
    assert prof.workers_scanned <= prof.tasks_scored * n_workers
