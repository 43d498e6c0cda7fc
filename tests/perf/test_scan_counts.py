"""Scan-count bounds on the placement engine, from the TickProfiler counters.

``workers_scanned`` counts every candidate worker the engine scores: a
direct scan costs every worker, building a repeated profile's F row costs
every worker, and refreshing one committed worker's row entry costs one.

* Heterogeneous TPC-H (nearly every task its own profile): rows must never
  cost more than a direct scan per task, ``workers_scanned ≤ tasks_scored
  × workers``.  An engine that rescored every cached row on every commit
  broke this bound.
* Homogeneous setting-1 synthetic jobs (every stage one profile): row
  reuse must cut the scans well below one direct scan per task.
"""

from repro.cluster import Cluster
from repro.experiments.common import SCALES, require_done, run_one_system
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.perf import profile as tick_profile
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, synthetic_setting1, tpch2_workload

SC = SCALES["tiny"]
WORKERS = SC.cluster.num_machines


def _profiled(run):
    prof = tick_profile.enable()
    try:
        run()
    finally:
        tick_profile.disable()
    assert prof.tasks_scored > 0
    return prof


def test_heterogeneous_tpch_scans_at_most_one_pass_per_task():
    def run():
        run_one_system(
            "ursa-srjf",
            lambda sc: tpch2_workload(
                n_jobs=sc.n_jobs, scale=sc.workload_scale,
                arrival_interval=sc.arrival_interval,
                max_parallelism=sc.max_parallelism, partition_mb=sc.partition_mb,
            ),
            SC,
        )

    prof = _profiled(run)
    assert prof.workers_scanned <= prof.tasks_scored * WORKERS


def test_homogeneous_synthetic_reuses_rows():
    def run():
        system = UrsaSystem(Cluster(SC.cluster), UrsaConfig(policy="ejf", policy_weight=5.0))
        submit_workload(system, synthetic_setting1(params_for(SC), n_jobs=4, seed=1), seed=1)
        system.run(max_events=SC.max_events)
        require_done(system, "synthetic setting-1")

    prof = _profiled(run)
    assert prof.profile_rows > 0
    assert prof.workers_scanned < prof.tasks_scored * WORKERS / 4
