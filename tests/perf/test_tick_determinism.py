"""The scheduling-tick fast path changes *nothing* but time.

:class:`~tests.scheduler.oracle.OracleConfig` runs the frozen oracle tick
(the brute-force placement in ``tests/scheduler/oracle.py``, a forced queue
resort every tick, and unmemoized SRJF ranks).  Every optimization in the
engine — lazy-heap stage selection with generation reuse, dirty-set undo,
cached usage tuples, the repeat-profile F row, resort elision, SRJF
memoization — must leave the simulation metrics pickle-byte-identical to
that oracle, for both job-ordering policies and in stage and task mode.
Profiling must be a pure observer: enabling it cannot perturb results
either.
"""

import pickle

import pytest

from repro.experiments.common import SCALES, run_one_system
from repro.perf import profile as tick_profile
from repro.scheduler import UrsaConfig
from repro.workloads import tpch2_workload

from ..scheduler.oracle import OracleConfig, ReferenceUrsaPlacement

_cache: dict = {}


def _workload(sc):
    return tpch2_workload(
        n_jobs=sc.n_jobs,
        scale=sc.workload_scale,
        arrival_interval=sc.arrival_interval,
        max_parallelism=sc.max_parallelism,
        partition_mb=sc.partition_mb,
    )


def _metrics(policy: str, oracle: str = "", cached: bool = True, **flags) -> bytes:
    """Pickled metrics of one tiny TPC-H run.  ``oracle="tick"`` runs the
    whole oracle tick; ``oracle="placement"`` swaps in only the oracle
    placement, isolating the placement engine from the policy changes."""
    key = (policy, oracle, tuple(sorted(flags.items())))
    if cached and key in _cache:
        return _cache[key]
    if oracle == "tick":
        cfg = OracleConfig(policy=policy, **flags)
    elif oracle == "placement":
        sc = UrsaConfig()
        placement = ReferenceUrsaPlacement(
            ept=sc.scheduling_interval * sc.ept_factor,
            stage_aware=flags.get("stage_aware", True),
        )
        cfg = UrsaConfig(policy=policy, placement=placement, **flags)
    else:
        cfg = UrsaConfig(policy=policy, **flags)
    name = "ursa-ejf" if policy == "ejf" else "ursa-srjf"
    res = run_one_system(name, _workload, SCALES["tiny"], seed=0,
                         overrides={"ursa_config": cfg})
    blob = pickle.dumps(res.metrics)
    if cached:
        _cache[key] = blob
    return blob


@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_fast_path_bit_identical_to_legacy(policy):
    """Engine ≡ oracle tick (placement, resort-every-tick, unmemoized SRJF)."""
    assert _metrics(policy) == _metrics(policy, oracle="tick")


def test_fast_path_bit_identical_in_task_mode():
    """The fig-7 ablation path (non-stage-aware lazy task heap)."""
    assert _metrics("ejf", stage_aware=False) == _metrics(
        "ejf", oracle="tick", stage_aware=False
    )


@pytest.mark.parametrize("policy", ["ejf", "srjf"])
def test_engine_bit_identical(policy):
    """The placement engine alone (its repeat-profile F rows included)
    reproduces the oracle placement's metrics under the production
    policies."""
    assert _metrics(policy, oracle="placement") == _metrics(policy)


def test_engine_bit_identical_in_task_mode():
    assert _metrics("ejf", oracle="placement", stage_aware=False) == _metrics(
        "ejf", stage_aware=False
    )


def test_srjf_in_task_mode_bit_identical_to_oracle():
    assert _metrics("srjf", stage_aware=False) == _metrics(
        "srjf", oracle="tick", stage_aware=False
    )


def test_profiled_run_is_identical_and_populates_counters():
    base = _metrics("ejf")
    prof = tick_profile.enable()
    try:
        profiled = _metrics("ejf", cached=False)
    finally:
        assert tick_profile.disable() is prof
    assert profiled == base
    assert prof.ticks > 0
    assert prof.assignments > 0
    assert prof.stages_scored > 0
    assert prof.tasks_scored >= prof.assignments
    # EJF ranks are static: the per-tick queue resort must be elided
    assert prof.resort_ticks == 0
