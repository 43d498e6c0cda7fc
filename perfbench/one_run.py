"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run so that peak memory is per run
and no state carries over between runs.  It prints one JSON object::

    python3 perfbench/one_run.py --workload batch-shuffle --seed 1 \\
        --spawned-at <time.monotonic() of the parent just before the spawn>

With ``--trace-out PATH`` the run is traced: the layers' entry points are
wrapped (``spans.py``), the scheduler's TickProfiler and garbage-collector
spans are on, the spans are written to PATH and the result carries a
``layers`` section.  The modelled results and their digest must not change.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def layer_metrics(tracer, prof, workload, st, wall_s: float) -> dict:
    """Per-layer metrics of a traced run (``tracing.overhead_s`` is added by
    the parent, which also has the untraced runs)."""
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    mod = workload.modelled(st)
    monotasks = [mt for job in st.system.jobs for mt in job.plan.monotasks]
    events = st.system.sim.events_fired
    pulls = calls["execution.pull_sources"]
    wasted = mod.get("wasted_work_mb", 0.0)
    started = counts["execution.work_started_mb"]
    return {
        "dataflow.plan_s": self_s["dataflow.plan"],
        "dataflow.plans": calls["dataflow.plan"],
        "dataflow.monotasks": len(monotasks),
        "dataflow.dep_edges": sum(len(mt.parents) for mt in monotasks),
        "workloads.build_s": self_s["workloads.build"],
        "execution.pull_sources_s": self_s["execution.pull_sources"],
        "execution.pull_sources_calls": pulls,
        "execution.sources_per_call": counts["execution.sources"] / pulls if pulls else 0.0,
        "execution.jm_s": self_s["execution.jm"],
        "execution.monotasks_run": int(counts["execution.monotasks_run"]),
        "simcore.events": events,
        "simcore.step_self_s": self_s["simcore.step"],
        "simcore.host_us_per_event": 1e6 * self_s["simcore.step"] / events,
        "simcore.processor_s": self_s["simcore.processor"],
        "simcore.network_s": self_s["simcore.network"],
        "simcore.transfers": int(counts["simcore.transfers"]),
        "scheduler.place_s": self_s["scheduler.place"],
        "scheduler.ticks": prof.ticks,
        "scheduler.assignments": prof.assignments,
        "scheduler.tasks_scored": prof.tasks_scored,
        "scheduler.workers_scanned": prof.workers_scanned,
        "scheduler.assign_ratio": prof.assignments / prof.tasks_scored if prof.tasks_scored else 0.0,
        "scheduler.refresh_s": self_s["scheduler.refresh"],
        "scheduler.resort_s": self_s["scheduler.resort"],
        "scheduler.enqueue_s": self_s["scheduler.enqueue"],
        "scheduler.admission_s": self_s["scheduler.admission"],
        "jobs.sim_mean_jct_s": mod["sim_mean_jct_s"],
        "jobs.sim_p50_jct_s": mod["sim_p50_jct_s"],
        "jobs.sim_p95_jct_s": mod["sim_p95_jct_s"],
        "scheduler.sim_admission_wait_p95_s": mod["sim_admission_wait_p95_s"],
        "service.sim_mean_active_workers": mod["sim_mean_active_workers"],
        "service.sim_shed_rate": mod["sim_shed_rate"],
        "service.arrivals": mod["arrivals"],
        "service.shed": mod["shed"],
        "service.scale_events": mod["scale_events"],
        "service.report_s": self_s["service.report"],
        "faults.monotasks_lost": mod.get("monotasks_lost", 0),
        "faults.tasks_restarted": mod.get("tasks_restarted", 0),
        "faults.sim_jobs_failed": mod["sim_jobs_failed"],
        "faults.useful_work_ratio": 1.0 - wasted / started if started else 1.0,
        "faults.sim_recovery_mean_s": mod.get("sim_recovery_mean_s", 0.0),
        "faults.handler_s": self_s["faults.handler"],
        "obs.events": mod.get("obs_events", 0),
        "obs.hook_s": self_s["obs.hook"],
        "obs.attribute_s": self_s["obs.attribute"],
        "metrics.compute_s": self_s["metrics.compute"],
        "python.gc_s": self_s["python.gc"],
        "python.gc_collections": calls["python.gc"],
        "other_s": self_s["root"],
        "tracing.wall_s": wall_s,
    }


#: layer self times that tile the traced wall time, with ``other_s``
SELF_TIME_KEYS = (
    "dataflow.plan_s", "workloads.build_s", "execution.pull_sources_s",
    "execution.jm_s", "simcore.step_self_s", "simcore.processor_s",
    "simcore.network_s", "scheduler.place_s", "scheduler.refresh_s",
    "scheduler.resort_s", "scheduler.enqueue_s", "scheduler.admission_s",
    "service.report_s", "faults.handler_s", "obs.hook_s", "obs.attribute_s",
    "metrics.compute_s", "python.gc_s", "other_s",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    tracer = prof = None
    if args.trace_out is not None:
        import spans

        tracer = spans.Tracer()
        # wrap before anything is built: objects bind some methods
        # (engine observer, fault handlers) at construction
        spans.install(tracer)
    from workloads import WORKLOADS, digest

    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    st = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    if tracer is not None:
        from repro.perf import profile

        prof = profile.enable()
        tracer.enable_gc_spans()
        tracer.begin_root()
        workload.execute(st)
        wall_s = tracer.end_root()
        tracer.disable_gc_spans()
        profile.disable()
    else:
        t0 = time.perf_counter()
        workload.execute(st)
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(st)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "modelled": workload.modelled(st),
        "digest": digest(workload, st),
        "errors": errors,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, prof, workload, st, wall_s)
        tiled = sum(layers[k] for k in SELF_TIME_KEYS)
        if abs(tiled - wall_s) > 1e-9 * max(1.0, wall_s):
            errors.append(f"layer self times sum to {tiled!r}, traced wall is {wall_s!r}")
        result["layers"] = layers
        result["spans"] = len(tracer.start)
        tracer.write(Path(args.trace_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
