"""The repository benchmark: host cost and modelled results of the Ursa simulator.

Runs one workload (or ``all`` three, interleaved) for about ``--seconds``
seconds, one fresh interpreter per run (``one_run.py``), checks every run's
output, and prints the metrics named in ``BENCHMARK.json`` as the last line
of standard output::

    python3 perfbench/run.py --workload batch-shuffle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 120

``--trace 0`` reports the end-to-end metrics: host metrics are medians over
the untraced runs, modelled (``sim_*``) metrics are deterministic for a seed.
``--trace 1`` adds one traced run per workload and reports the per-layer
metrics; ``tracing.overhead_s`` is its wall time minus the untraced median.

Every run must finish with all jobs terminal, pass the workload's own
checks (SLO-report accounting identity, JCT-ledger identity) and produce
the same digest of modelled outputs as every other run of the set, traced
or not.  A run that fails counts in ``failed``; the command then prints
``"correct": false`` and exits 1.  Per-run records, with the host's core
count, load average, Python version and platform, go to
``.perfbench/results-<workload>-seed<seed>-trace<t>.json``; traced runs
write their spans next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("batch-shuffle", "service-overload", "faults-observed")

#: the whole command stops starting runs, and kills a run, past this
HARD_LIMIT_S = 170.0

#: pin native thread pools so numpy cannot spread one run over cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(workload: str, seed: int, trace_out: Path | None, timeout: float) -> dict:
    """One run in a fresh interpreter; returns its record (``errors`` is
    non-empty when the run failed)."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "one_run.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    base = {"workload": workload, "seed": seed, "traced": trace_out is not None,
            "host": host_record()}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(t0)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {**base, "errors": [f"timed out after {timeout:.0f} s"]}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {**base, "elapsed_s": elapsed,
                "errors": [f"exit code {proc.returncode}: {' | '.join(tail)}"]}
    return {**base, **json.loads(lines[-1]), "elapsed_s": elapsed}


def run_set(workloads: list[str], seed: int, seconds: float, trace: bool) -> dict[str, list]:
    """Interleave runs of ``workloads`` for about ``seconds`` seconds: whole
    rounds of one untraced run per workload, plus (``trace``) one traced run
    per workload after the first round."""
    start = time.monotonic()
    runs: dict[str, list] = {w: [] for w in workloads}

    def one(w: str, trace_out: Path | None) -> bool:
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        if remaining <= 0:
            return False
        runs[w].append(spawn(w, seed, trace_out, remaining))
        log_run(runs[w][-1])
        return True

    # stop once another round would overrun the budget; an untraced set
    # takes two rounds at least, so its medians are never a single run
    min_rounds = 1 if trace else 2
    rounds = 0
    while rounds < min_rounds or (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        if not all(one(w, None) for w in workloads):
            break
        rounds += 1
        if trace and rounds == 1:
            if not all(one(w, OUT / f"spans-{w}-seed{seed}.bin") for w in workloads):
                break
    return runs


def log_run(rec: dict) -> None:
    kind = "traced" if rec.get("traced") else "run"
    if rec["errors"]:
        print(f"[{rec['workload']}] {kind} FAILED: {'; '.join(rec['errors'])}", file=sys.stderr)
    else:
        print(f"[{rec['workload']}] {kind}: setup {rec['setup_s']:.3f} s, "
              f"wall {rec['wall_s']:.3f} s, rss {rec['peak_rss_mb']:.0f} MB, "
              f"digest {rec['digest'][:12]}", file=sys.stderr)


def mark_digest_mismatches(runs: list[dict]) -> None:
    """Every run of a set must model the same outputs; runs whose digest
    differs from the majority fail."""
    digests = [r["digest"] for r in runs if not r["errors"]]
    if not digests:
        return
    majority = max(set(digests), key=digests.count)
    for r in runs:
        if not r["errors"] and r["digest"] != majority:
            r["errors"].append(f"modelled-output digest {r['digest'][:12]} != {majority[:12]}")


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """End-to-end metrics from a workload's passing untraced runs."""
    mod = plain[0]["modelled"]
    med = lambda key: statistics.median(r[key] for r in plain)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "jobs_per_s": statistics.median(
            r["modelled"]["jobs_completed"] / r["wall_s"] for r in plain
        ),
        "peak_rss_mb": med("peak_rss_mb"),
        **{k: mod[k] for k in (
            "sim_makespan_s", "sim_cpu_util",
            "sim_goodput_jobs_per_s", "sim_completed_ratio",
        )},
    }


def per_layer(plain: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics of the traced run, plus the tracing overhead."""
    layers = dict(traced["layers"])
    layers["tracing.overhead_s"] = (
        traced["wall_s"] - statistics.median(r["wall_s"] for r in plain)
    )
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no simulator sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    runs = run_set(workloads, args.seed, args.seconds, bool(args.trace))

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for w in workloads:
        mark_digest_mismatches(runs[w])
        attempted += len(runs[w])
        failed += sum(1 for r in runs[w] if r["errors"])
        ok_plain = [r for r in runs[w] if not r["errors"] and not r["traced"]]
        ok_traced = [r for r in runs[w] if not r["errors"] and r["traced"]]
        if not ok_plain or (args.trace and not ok_traced):
            continue
        values = per_layer(ok_plain, ok_traced[0]) if args.trace else end_to_end(ok_plain)
        prefix = f"{w}." if args.workload == "all" else ""
        print(f"[{w}] {len(ok_plain)} untraced run(s), seed {args.seed}", file=sys.stderr)
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "runs": runs}, indent=1))

    if attempted == 0 or len(metrics) < len(declared) * len(workloads):
        print("no complete result: see the failures above", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
