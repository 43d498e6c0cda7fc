"""The observation log conforms to ``events.SCHEMA``, and the trace view
is exactly the schema's trace fields of each trace-kind entry."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments import fig_faults, fig_service
from repro.experiments.common import SCALES
from repro.faults import FaultPlan, GrantTimeout, RetryPolicy, WorkerBlackout, WorkerCrash
from repro.obs import events as ev
from repro.obs import recorder, telemetry
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.workloads import submit_workload, tpch_workload


def _retry_exhausted_run():
    """Faults under a one-attempt retry budget: a job fails outright."""
    cluster = Cluster(
        ClusterSpec(num_machines=3, machine=ClusterSpec.paper_cluster().machine)
    )
    plan = FaultPlan((
        WorkerBlackout(at=2.0, worker=1, duration=4.0),
        WorkerCrash(at=6.0, worker=2),
        GrantTimeout(at=3.0, worker=0, delay=1.0),
    ))
    system = UrsaSystem(
        cluster,
        UrsaConfig(policy="ejf", faults=plan, retry=RetryPolicy(max_attempts=1)),
    )
    submit_workload(system, tpch_workload(
        n_jobs=6, scale=0.02, arrival_interval=0.5, max_parallelism=64,
        partition_mb=12.0, seed=5,
    ))
    system.run(max_events=50_000_000)
    assert system.failed_jobs


@pytest.fixture(scope="module")
def observed():
    """A tiny faulted unit and a tiny overloaded, autoscaled fig_service
    unit (plus a retry-exhausting run) with telemetry on."""
    telemetry.disable()
    recorder.disable()
    tel = telemetry.enable()
    rec = tel.recorder
    try:
        rec.begin_unit("fig_faults:srjf-c2")
        fig_faults.run_unit(SCALES["tiny"], "srjf-c2", seed=0)
        rec.begin_unit("fig_service:poisson-x2.0")
        fig_service.run_unit(SCALES["tiny"], "poisson-x2.0", seed=0)
        rec.begin_unit("retry-exhausted")
        _retry_exhausted_run()
    finally:
        telemetry.disable()
    return rec


def test_every_log_entry_matches_its_schema_arity(observed):
    seen = set()
    for _, log in observed.segments:
        for entry in log:
            kind = entry[0]
            assert kind in ev.SCHEMA, entry
            trace, extra = ev.SCHEMA[kind]
            assert len(entry) == 2 + len(trace) + len(extra), entry
            assert isinstance(entry[1], float), entry
            seen.add(kind)
    # the three runs reach every seam the schema names
    assert seen == set(ev.SCHEMA)


def test_trace_view_has_exactly_the_trace_fields_in_order(observed):
    events = observed.events
    n_trace = sum(
        1 for _, log in observed.segments for e in log if e[0] in ev.ALL_KINDS
    )
    assert len(events) == n_trace
    for e in events:
        trace, _ = ev.SCHEMA[e["kind"]]
        optional = ev.OMIT_FALSE.get(e["kind"])
        expected = ["t", "kind", "unit"] + [
            f for f in trace if f != optional or f in e
        ]
        assert list(e) == expected, e
    assert not {e["kind"] for e in events} & ev.TELEMETRY_KINDS
    failed = [e for e in events if e["kind"] == ev.JOB_FINISH and "failed" in e]
    assert failed and all(e["failed"] is True for e in failed)


def test_emit_builds_the_same_entry_as_a_hook_site():
    rec = recorder.TraceRecorder()
    rec.emit(ev.QUEUE_PUSH, 1.5, worker=0, rtype="cpu", job=1, mt=2, qlen=3,
             work_mb=4.0)
    rec.emit(ev.JOB_FINISH, 2.0, job=1, jct=2.0)
    assert rec.log == [
        (ev.QUEUE_PUSH, 1.5, 0, "cpu", 1, 2, 3, 4.0),
        (ev.JOB_FINISH, 2.0, 1, 2.0, False, None),
    ]
    assert rec.events[1] == {"t": 2.0, "kind": ev.JOB_FINISH, "unit": "run",
                             "job": 1, "jct": 2.0}
    with pytest.raises(TypeError):
        rec.emit(ev.SCHED_TICK, 0.0, assigned=1, bogus=2)
