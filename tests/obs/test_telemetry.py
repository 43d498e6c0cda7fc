"""Telemetry collector: bit-identity guarantees, conservation, summaries."""

import json
import pickle

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments import common, fig_faults, table2_tpch
from repro.faults import FaultPlan, GrantTimeout, RetryPolicy, WorkerBlackout, WorkerCrash
from repro.metrics import compute_metrics
from repro.obs import recorder, telemetry
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload

from ..scheduler.oracle import OracleConfig


def _small_workload():
    return tpch_workload(
        n_jobs=6, scale=0.02, arrival_interval=0.5, max_parallelism=64,
        partition_mb=12.0, seed=5,
    )


FAULT_PLAN = FaultPlan((
    WorkerBlackout(at=2.0, worker=1, duration=4.0),
    WorkerCrash(at=6.0, worker=2),
    GrantTimeout(at=3.0, worker=0, delay=1.0),
))


def _run(policy="srjf", oracle=False, faults=None, retry=None):
    cluster = Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )
    config_cls = OracleConfig if oracle else UrsaConfig
    system = UrsaSystem(
        cluster, config_cls(policy=policy, faults=faults, retry=retry)
    )
    submit_workload(system, _small_workload())
    system.run(max_events=50_000_000)
    return pickle.dumps(compute_metrics(system))


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def test_enable_disable_lifecycle():
    assert telemetry.TELEMETRY is None
    tel = telemetry.enable(interval=0.5)
    assert telemetry.TELEMETRY is tel
    assert tel.interval == 0.5
    assert telemetry.disable() is tel
    assert telemetry.TELEMETRY is None
    assert telemetry.disable() is None  # idempotent


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        telemetry.enable(interval=0.0)


def test_disabled_run_collects_nothing():
    _run()
    assert telemetry.TELEMETRY is None


def test_telemetry_on_metrics_bit_identical_to_off():
    """Telemetry is pure observation: enabling it changes no metric byte."""
    base = _run()
    tel = telemetry.enable()
    on = _run()
    telemetry.disable()
    assert on == base
    s = tel.summary()["units"]["run"]
    assert s["counters"]["grants"] > 0
    assert s["counters"]["jobs_completed"] == 6


def test_optimized_and_legacy_emit_identical_telemetry():
    """The oracle tick (tests/scheduler/oracle.py) flows through the same
    hooks as the engine, so the whole summary — series included — matches
    bit-for-bit."""
    tel_opt = telemetry.enable()
    metrics_opt = _run()
    telemetry.disable()
    tel_leg = telemetry.enable()
    metrics_leg = _run(oracle=True)
    telemetry.disable()
    assert metrics_opt == metrics_leg
    assert json.dumps(tel_opt.summary(), sort_keys=True) == json.dumps(
        tel_leg.summary(), sort_keys=True
    )


def test_failure_free_grant_release_conservation():
    tel = telemetry.enable()
    _run()
    telemetry.disable()
    c = tel.summary()["units"]["run"]["counters"]
    assert c["grants"] == c["releases"] + c["aborts"]
    assert c["aborts"] == 0
    assert c["queue_pushes"] == c["queue_pops"] + c["queue_evicted"]


def test_series_are_nonempty_and_exact():
    tel = telemetry.enable()
    _run()
    telemetry.disable()
    s = tel.summary()["units"]["run"]
    cpu = s["utilization"]["cpu"]
    assert cpu["capacity"] > 0
    assert len(cpu["series"]) > 1
    assert cpu["busy_seconds"] > 0.0
    # the series mean (weighted by bin coverage) matches the exact integral
    assert 0.0 < cpu["mean"] < 1.0
    assert s["sim_end"] > 0.0
    assert s["engine_events"] > 0
    assert s["alloc_latency"]["cpu"]["count"] > 0
    assert s["jct"]["count"] == 6


def _table2_ursa_ejf(monkeypatch):
    res = common.run_one_system(
        "ursa-ejf", table2_tpch.workload, common.SCALES["tiny"], seed=1
    )
    return res.cluster


def _fig_faults_srjf_c2(monkeypatch):
    built = []

    class KeepCluster(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(fig_faults, "Cluster", KeepCluster)
    fig_faults.run_unit(common.SCALES["tiny"], "srjf-c2", seed=0)
    return built[0]


@pytest.mark.parametrize("unit", [_table2_ursa_ejf, _fig_faults_srjf_c2])
def test_busy_integrals_equal_cluster_usage_ledger(unit, monkeypatch):
    """Telemetry's busy integrals (folded from grant/release log entries)
    and the cluster's SE/UE usage ledger (the machines' ``cpu_used`` /
    ``disk_used`` step series) are two views of the same occupancy: their
    summed integrals over the run are exactly equal, faults included.
    Network is left out on purpose: telemetry counts active transfers per
    worker, the cluster ledger records the downlink fraction in use."""
    tel = telemetry.enable()
    cluster = unit(monkeypatch)
    telemetry.disable()
    u = tel.units["run"]
    end = u.end_time()
    for rtype, kind in (("cpu", "cpu_used"), ("disk", "disk_used")):
        busy = sum(
            u.busy[key].integral(0.0, end) for key in sorted(u.busy) if key[1] == rtype
        )
        assert busy > 0.0
        assert busy == cluster.integrate(kind, 0.0, end), rtype


def test_fault_run_conservation_and_fault_metrics():
    """Aborts account for every grant torn down by the fault layer; the
    push/pop/evict identity holds; fault counters are populated."""
    base = _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    tel = telemetry.enable()
    on = _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    telemetry.disable()
    assert on == base  # telemetry-off bit-identity holds under faults too
    c = tel.summary()["units"]["run"]["counters"]
    assert c["aborts"] > 0
    assert c["grants"] == c["releases"] + c["aborts"]
    assert c["queue_pushes"] == c["queue_pops"] + c["queue_evicted"]
    assert c["monotasks_lost"] > 0
    assert c["retries"] > 0
    assert c["worker_down"] == 2  # blackout + crash
    f = tel.summary()["units"]["run"]["faults"]
    assert f["repair_count"] >= 1  # the blackout rejoined
    assert f["recovery_count"] >= 1 and f["recovery_mean_s"] > 0.0
    assert f["wasted_work_mb"] > 0.0


def test_fault_run_telemetry_and_trace_do_not_depend_on_each_other():
    """One log, two views: under faults, telemetry alone, telemetry
    attached to an already-enabled recorder, and telemetry enabled before
    the recorder all fold the same summary, and the trace is the same
    with telemetry on and off."""
    kwargs = dict(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    try:
        tel_alone = telemetry.enable()
        _run(**kwargs)
        telemetry.disable()
        assert recorder.RECORDER is None  # telemetry removed the log it installed

        rec_with_tel = recorder.enable()
        tel_after = telemetry.enable()
        _run(**kwargs)
        recorder.disable()
        telemetry.disable()

        tel_before = telemetry.enable()
        recorder.enable()
        _run(**kwargs)
        telemetry.disable()
        assert recorder.RECORDER is not None  # the trace's recorder stays
        recorder.disable()

        rec_alone = recorder.enable()
        _run(**kwargs)
        recorder.disable()
    finally:
        recorder.disable()
    summary = json.dumps(tel_alone.summary(), sort_keys=True)
    assert tel_alone.summary()["units"]["run"]["counters"]["aborts"] > 0
    assert json.dumps(tel_after.summary(), sort_keys=True) == summary
    assert json.dumps(tel_before.summary(), sort_keys=True) == summary
    assert rec_with_tel.events == rec_alone.events
    assert any(e["kind"] == "monotask_lost" for e in rec_alone.events)


def test_unit_labels_partition_metrics():
    tel = telemetry.enable()
    tel.begin_unit("a")
    _run()
    tel.begin_unit("b")
    _run(policy="ejf")
    telemetry.disable()
    summary = tel.summary()
    assert set(summary["units"]) == {"a", "b"}
    ca = summary["units"]["a"]["counters"]
    cb = summary["units"]["b"]["counters"]
    assert ca["jobs_completed"] == cb["jobs_completed"] == 6
    assert summary["totals"]["jobs_completed"] == 12
    # the pre-begin_unit "run" placeholder never saw events: dropped
    assert "run" not in summary["units"]


def test_on_unit_end_fires_per_nonempty_unit():
    seen = []
    tel = telemetry.enable()
    tel.on_unit_end = lambda u: seen.append(u.label)
    tel.begin_unit("a")   # seals empty "run": no callback
    _run()
    tel.begin_unit("b")   # seals "a"
    telemetry.disable()   # seals empty-ish "b"? b saw nothing: no callback
    assert seen == ["a"]


def test_summary_is_json_serializable():
    tel = telemetry.enable()
    _run(policy="ejf", faults=FAULT_PLAN, retry=RetryPolicy(max_attempts=4))
    telemetry.disable()
    text = json.dumps(tel.summary(), sort_keys=True)
    assert json.loads(text)["units"]["run"]["counters"]["grants"] > 0


def test_fold_is_idempotent_and_deferred():
    tel = telemetry.enable()
    _run()
    u = tel.units["run"]
    assert u.counters["grants"] == 0  # aggregation deferred while the unit is hot
    first = json.dumps(telemetry.unit_summary(u), sort_keys=True)
    assert u.counters["grants"] > 0  # folded by the summary
    again = json.dumps(telemetry.unit_summary(u), sort_keys=True)
    telemetry.disable()
    assert first == again
