#!/usr/bin/env python
"""Measure single-simulation wall time of the scheduler, with its tick breakdown.

One fixed, mid-size synthetic workload (setting-1 Type-1 jobs on the bench
cluster) is run to completion through ``UrsaSystem`` ``--repeats`` times;
the best-of-N wall time is the headline.  One extra untimed profiled run
supplies the per-phase tick breakdown and the placement counters.  Every
run — timed, profiled, and the optional traced (``--trace-out``) and
telemetry (``--telemetry``) runs — must produce pickle-identical metrics,
so profiling, tracing and telemetry are checked to be pure observers.

Writes a JSON baseline (default ``BENCH_sim.json``)::

    PYTHONPATH=src python scripts/bench_sim.py
    PYTHONPATH=src python scripts/bench_sim.py --repeats 5 --n-jobs 10
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import sys
import time
from pathlib import Path


def _run_once(
    n_jobs: int, profiled: bool = False, traced: bool = False,
    telemetry: bool = False,
) -> tuple[bytes, float, dict]:
    """One full simulation; returns (metrics bytes, wall seconds, profile).

    Timed repeats run *unprofiled*; the per-phase counters in the baseline
    come from one extra untimed profiled run.  ``traced=True`` records the
    monotask lifecycle through ``repro.obs`` (also untimed, for the
    tracing-is-pure-observation identity check and ``--trace-out``);
    ``telemetry=True`` likewise enables the cluster telemetry collector
    (unless the caller already enabled one, as the overhead timing in
    ``scripts/metrics_diff.py`` does around the *timed* repeats).
    """
    from repro.cluster import Cluster
    from repro.experiments.common import SCALES, require_done
    from repro.experiments.fig8_fig9_fig10_synthetic import params_for
    from repro.metrics import compute_metrics
    from repro.obs import recorder as obs_recorder
    from repro.obs import telemetry as obs_telemetry
    from repro.perf import profile as tick_profile
    from repro.scheduler import UrsaConfig, UrsaSystem
    from repro.workloads import submit_workload, synthetic_setting1

    rec = obs_recorder.enable() if traced else None
    tel = obs_telemetry.enable() if telemetry else None
    if traced or telemetry:
        # one label on the log: the trace and the telemetry fold follow it
        obs_recorder.RECORDER.begin_unit("bench_sim")
    sc = SCALES["bench"]
    cluster = Cluster(sc.cluster)
    system = UrsaSystem(cluster, UrsaConfig(policy="ejf", policy_weight=5.0))
    workload = synthetic_setting1(params_for(sc), n_jobs=n_jobs)
    submit_workload(system, workload, seed=1)

    prof = tick_profile.enable() if profiled else None
    try:
        start = time.perf_counter()
        system.run(max_events=sc.max_events)
        elapsed = time.perf_counter() - start
    finally:
        if profiled:
            tick_profile.disable()
        if traced:
            obs_recorder.disable()
        if telemetry:
            obs_telemetry.disable()
    require_done(system, "bench_sim workload")
    metrics = pickle.dumps(compute_metrics(system))
    extra = prof.as_dict() if prof is not None else {}
    if rec is not None:
        extra["recorder"] = rec
    if tel is not None:
        extra["telemetry"] = tel
    return metrics, elapsed, extra


_PHASES = ("refresh", "resort", "ready", "place", "dispatch")


def _phase_breakdown(prof: dict) -> dict:
    """Per-phase share of the scheduling tick from a profiled run's dict."""
    total = sum(prof.get(f"{name}_ns", 0) for name in _PHASES) or 1
    return {
        name: {
            "ms": round(prof.get(f"{name}_ns", 0) / 1e6, 1),
            "share": round(prof.get(f"{name}_ns", 0) / total, 4),
        }
        for name in _PHASES
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N (default 3)")
    parser.add_argument("--n-jobs", type=int, default=8, help="workload size (default 8)")
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="also run once (untimed) with lifecycle tracing enabled and "
             "write trace.jsonl / trace.json under DIR; the traced run is "
             "folded into the metrics-identity check",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="also run once (untimed) with the cluster telemetry collector "
             "enabled and fold that run into the metrics-identity check "
             "(wall-clock overhead is measured separately by "
             "scripts/metrics_diff.py write --measure-overhead)",
    )
    args = parser.parse_args(argv)

    print(f"bench_sim: synthetic setting-1, n_jobs={args.n_jobs}, "
          f"best of {args.repeats}", file=sys.stderr)

    walls: list[float] = []
    runs: list[bytes] = []
    for rep in range(args.repeats):
        metrics, wall, _ = _run_once(args.n_jobs)
        walls.append(wall)
        runs.append(metrics)
        print(f"  repeat {rep}: {wall:6.2f} s", file=sys.stderr)

    # one extra (untimed) profiled run supplies the per-phase counters and
    # doubles as the profiled-run-is-identical check
    metrics_profiled, _, prof = _run_once(args.n_jobs, profiled=True)
    runs.append(metrics_profiled)

    if args.trace_out is not None:
        # one more untimed run with the lifecycle recorder on: tracing is
        # pure observation, so its metrics must join the identity check
        from repro.obs import write_trace_files

        metrics_traced, _, extra = _run_once(args.n_jobs, traced=True)
        runs.append(metrics_traced)
        rec = extra["recorder"]
        paths = write_trace_files(rec, args.trace_out)
        print(f"  traced run: {len(rec.events)} events -> {paths['chrome']}",
              file=sys.stderr)

    if args.telemetry:
        # telemetry is a pure observer too: its run joins the identity check
        metrics_tel, _, extra = _run_once(args.n_jobs, telemetry=True)
        runs.append(metrics_tel)
        totals = extra["telemetry"].summary()["totals"]
        print(f"  telemetry run: {totals['grants']:.0f} grants / "
              f"{totals['releases']:.0f} releases recorded", file=sys.stderr)
    identical = all(m == runs[0] for m in runs)

    breakdown = _phase_breakdown(prof)
    print("per-phase tick breakdown (profiled run):", file=sys.stderr)
    print(f"  {'phase':<10} {'ms':>10} {'%tick':>7}", file=sys.stderr)
    for name in _PHASES:
        cell = breakdown[name]
        print(f"  {name:<10} {cell['ms']:>10.1f} {100 * cell['share']:>6.1f}%",
              file=sys.stderr)

    best = min(walls)
    baseline = {
        "benchmark": "single-simulation wall time",
        "workload": f"synthetic setting-1, {args.n_jobs} Type-1 jobs, bench cluster, ejf",
        "repeats": args.repeats,
        "profile": prof,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "wall_s": [round(t, 2) for t in walls],
        "best_s": round(best, 2),
        "metrics_bit_identical": identical,
        "phase_breakdown": breakdown,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"best {best:.2f}s (identical metrics: {identical}); wrote {args.out}",
          file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
