"""The benchmark's three workloads, built on the simulator's public API.

Each workload has two phases:

* ``setup(seed)`` builds the cluster, the system and the inputs.  Set-up
  time ends where it returns.
* ``execute(state)`` submits the work, runs the simulation until every job
  is terminal (or, for the open-loop service, until the stop time) and
  computes the reports.  This is the timed ``wall_s`` region.

``modelled(state)`` then reads the modelled cluster's results, which are
deterministic for a seed, and ``check(state)`` lists output-check failures
(empty means the run is correct).  Neither is timed.

Why each workload is in the benchmark, the layers it loads and the
predicted layer -> end-to-end links are in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json

from repro.cluster import Cluster
from repro.experiments import fig_faults, fig_service
from repro.experiments.common import SCALES
from repro.experiments.fig8_fig9_fig10_synthetic import params_for
from repro.experiments.table2_tpch import workload as tpch_workload
from repro.metrics import accounting
from repro.obs import attribution
from repro.obs import recorder as obs_recorder
from repro.obs import telemetry as obs_telemetry
from repro.obs.latency import dist
from repro.scheduler import UrsaConfig, UrsaSystem
from repro.service import validate_report
from repro.workloads import submit_workload, synthetic_setting1

__all__ = ["WORKLOADS", "digest"]

SCALE = SCALES["bench"]

#: closed batch size of ``batch-shuffle``
BATCH_JOBS = 8
#: the fig_service unit ``service-overload`` runs
SERVICE_UNIT = "poisson-x1.5"
#: permanent crashes in the ``faults-observed`` plan (plus one blackout)
FAULT_CRASHES = 2


class _State:
    """Everything one run builds, runs and reports."""

    def __init__(self, seed: int, system, **extra) -> None:
        self.seed = seed
        self.system = system
        self.metrics = None
        self.report = None
        self.attribution = None
        self.telemetry_summary = None
        self.__dict__.update(extra)


def _terminal_errors(system) -> list[str]:
    stuck = [j.job_id for j in system.jobs if not j.terminal]
    return [f"{len(stuck)} job(s) not terminal: {stuck[:5]}"] if stuck else []


class BatchShuffle:
    """8 setting-1 Type-1 synthetic jobs under EJF: every stage is a P=256
    all-to-all shuffle on the 8x32-core bench cluster."""

    name = "batch-shuffle"

    def setup(self, seed: int) -> _State:
        system = UrsaSystem(
            Cluster(SCALE.cluster), UrsaConfig(policy="ejf", policy_weight=5.0)
        )
        jobs = synthetic_setting1(params_for(SCALE), n_jobs=BATCH_JOBS, seed=seed)
        return _State(seed, system, jobs=jobs)

    def execute(self, st: _State) -> None:
        submit_workload(st.system, st.jobs, seed=st.seed)
        st.system.run(max_events=SCALE.max_events)
        st.metrics = accounting.compute_metrics(st.system)

    def modelled(self, st: _State) -> dict:
        return _closed_batch_modelled(st)

    def check(self, st: _State) -> list[str]:
        errs = _terminal_errors(st.system)
        if st.system.failed_jobs:
            errs.append(f"{len(st.system.failed_jobs)} job(s) failed without faults")
        return errs


class ServiceOverload:
    """fig_service's poisson-x1.5 unit: open-loop arrivals at 1.5x the
    nominal rate, SRJF, admission backpressure and the autoscaler."""

    name = "service-overload"

    def setup(self, seed: int) -> _State:
        driver = fig_service.build_unit(SCALE, SERVICE_UNIT, seed=seed)
        return _State(seed, driver.system, driver=driver)

    def execute(self, st: _State) -> None:
        st.report = st.driver.run()
        st.metrics = accounting.compute_metrics(st.system)

    def modelled(self, st: _State) -> dict:
        rep = st.report
        win = rep["window"]
        counts = rep["counts"]
        auto = rep["autoscaler"]
        return {
            "sim_makespan_s": st.metrics.makespan,
            "sim_mean_jct_s": win["jct"]["mean"],
            "sim_p50_jct_s": win["latency_p50_s"],
            "sim_p95_jct_s": win["jct"]["p95"],
            "sim_cpu_util": st.metrics.cpu_utilization,
            "sim_goodput_jobs_per_s": win["goodput_jobs_per_s"],
            "sim_completed_ratio": counts["completed"] / counts["generated"],
            "sim_shed_rate": win["shed_rate"],
            "sim_jobs_failed": counts["failed"],
            "sim_admission_wait_p95_s": win["admission_wait"]["p95"],
            "sim_mean_active_workers": auto["mean_active"],
            "jobs_completed": counts["completed"],
            "arrivals": counts["generated"],
            "shed": counts["shed"],
            "scale_events": auto["scale_ups"] + auto["scale_downs"],
        }

    def check(self, st: _State) -> list[str]:
        errs = _terminal_errors(st.system)
        errs += [f"SLO report: {e}" for e in validate_report(st.report)]
        return errs


class FaultsObserved:
    """Table-2 TPC-H under fig_faults' seeded 2-crash + 1-blackout plan,
    SRJF, with the trace recorder and telemetry on and the attribution
    analysis run at the end."""

    name = "faults-observed"

    def setup(self, seed: int) -> _State:
        # the recorder must exist before the Simulation is built: the engine
        # binds its observer at construction
        rec = obs_recorder.enable()
        rec.begin_unit(self.name)
        tel = obs_telemetry.enable()
        tel.begin_unit(self.name)
        plan = fig_faults.build_plan(SCALE, FAULT_CRASHES, seed)
        system = UrsaSystem(
            Cluster(SCALE.cluster),
            UrsaConfig(policy="srjf", faults=plan, retry=fig_faults.RETRY),
        )
        return _State(
            seed, system, jobs=tpch_workload(SCALE), recorder=rec, telemetry=tel
        )

    def execute(self, st: _State) -> None:
        try:
            submit_workload(st.system, st.jobs, seed=st.seed)
            st.system.run(max_events=SCALE.max_events)
        finally:
            obs_recorder.disable()
            obs_telemetry.disable()
        st.metrics = accounting.compute_metrics(st.system)
        st.attribution = attribution.attribute(st.recorder.events)
        st.telemetry_summary = st.telemetry.summary()

    def modelled(self, st: _State) -> dict:
        out = _closed_batch_modelled(st)
        stats = st.system.fault_controller.stats.as_dict()
        out.update(
            monotasks_lost=stats["monotasks_lost"],
            tasks_restarted=stats["tasks_restarted"],
            wasted_work_mb=float(stats["wasted_work_mb"]),
            sim_recovery_mean_s=float(stats["recovery_mean_s"]),
            obs_events=len(st.recorder.events),
        )
        return out

    def check(self, st: _State) -> list[str]:
        errs = _terminal_errors(st.system)
        errs += [f"attribution: {e}" for e in attribution.validate(st.attribution)]
        return errs


def _closed_batch_modelled(st: _State) -> dict:
    """Modelled results of a closed batch (every submitted job counts)."""
    m = st.metrics
    jobs = st.system.jobs
    jct = dist([j.jct for j in jobs if j.done], empty_zero=True)
    waits = [j.admit_time - j.submit_time for j in jobs if j.admit_time is not None]
    return {
        "sim_makespan_s": m.makespan,
        "sim_mean_jct_s": m.mean_jct,
        "sim_p50_jct_s": jct.p50,
        "sim_p95_jct_s": jct.p95,
        "sim_cpu_util": m.cpu_utilization,
        "sim_goodput_jobs_per_s": jct.count / m.makespan,
        "sim_completed_ratio": jct.count / len(jobs),
        "sim_shed_rate": 0.0,
        "sim_jobs_failed": len(st.system.failed_jobs),
        "sim_admission_wait_p95_s": dist(waits, empty_zero=True).p95,
        "sim_mean_active_workers": float(len(st.system.workers)),
        "jobs_completed": jct.count,
        "arrivals": len(jobs),
        "shed": 0,
        "scale_events": 0,
    }


def digest(workload, st: _State) -> str:
    """sha256 over every modelled output of a run: per-job lifecycle times,
    the paper's metrics, and the workload's reports.  Floats are written
    with ``float.hex`` so the digest moves with any bit of any result."""

    def canon(x):
        if isinstance(x, float):
            return float(x).hex()
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    jobs = [
        (j.job_id, j.state.value, j.submit_time, j.admit_time, j.finish_time, j.tasks_done)
        for j in st.system.jobs
    ]
    doc = {
        "workload": workload.name,
        "events": st.system.sim.events_fired,
        "jobs": jobs,
        "metrics": st.metrics.row(),
        "modelled": workload.modelled(st),
        "report": st.report,
        "attribution": attribution.attribution_digest(st.attribution) if st.attribution else None,
        "telemetry": st.telemetry_summary,
    }
    blob = json.dumps(canon(doc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


WORKLOADS = {w.name: w for w in (BatchShuffle(), ServiceOverload(), FaultsObserved())}
