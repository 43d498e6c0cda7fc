"""Tests of the benchmark itself (not part of the simulator's test suite).

    python3 -m pytest perfbench -q

The two smoke tests run every workload twice untraced, then once untraced
and once traced (about three minutes on one core).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from one_run import SELF_TIME_KEYS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


def _assert_every_metric(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    for w in WORKLOADS:
        for m in declared:
            got = metrics[f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"], (w, m["name"])
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_end_to_end_smoke_every_workload():
    result = _result(_bench("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "0"))
    assert result["attempted"] == 2 * len(WORKLOADS)
    _assert_every_metric(result, SPEC["end_to_end"])
    for key, m in result["metrics"].items():
        assert m["value"] > 0, key


def test_traced_smoke_second_seed_passes_output_check():
    result = _result(_bench("--workload", "all", "--seed", "2", "--seconds", "0", "--trace", "1"))
    _assert_every_metric(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    record = json.loads((ROOT / ".perfbench" / "results-all-seed2-trace1.json").read_text())
    for w in WORKLOADS:
        tiled = sum(metrics[f"{w}.{k}"] for k in SELF_TIME_KEYS)
        assert tiled == pytest.approx(metrics[f"{w}.tracing.wall_s"], rel=1e-9)
        runs = record["runs"][w]
        assert {r["traced"] for r in runs} == {False, True}
        assert len({r["digest"] for r in runs}) == 1, "tracing changed modelled outputs"
    # the span file reproduces the reported self times
    names, cols = spans.load_spans(ROOT / ".perfbench" / "spans-batch-shuffle-seed2.bin")
    self_s = [0.0] * len(names)
    for i in range(len(cols["start"])):
        d = cols["end"][i] - cols["start"][i]
        self_s[cols["layer"][i]] += d
        if cols["parent"][i] >= 0:
            self_s[cols["layer"][cols["parent"][i]]] -= d
    by_name = dict(zip(names, self_s))
    assert by_name["root"] == pytest.approx(metrics["batch-shuffle.other_s"], abs=1e-6)
    assert by_name["execution.pull_sources"] == pytest.approx(
        metrics["batch-shuffle.execution.pull_sources_s"], abs=1e-6
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "batch-shuffle", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_tile_the_root_span():
    tracer = spans.Tracer()
    inner_lid, outer_lid = tracer.layer_id("inner"), tracer.layer_id("outer")
    inner = tracer.wrap(inner_lid, lambda: time.sleep(0.01))

    def _outer():
        time.sleep(0.005)
        inner()
        inner()

    outer = tracer.wrap(outer_lid, _outer)
    tracer.begin_root()
    outer()
    time.sleep(0.002)
    wall = tracer.end_root()
    st = tracer.self_times()
    assert sum(st.values()) == pytest.approx(wall, rel=1e-12)
    assert st["inner"] >= 0.02 and 0.005 <= st["outer"] < 0.02
    assert tracer.call_counts() == {"root": 1, "inner": 2, "outer": 1}
    parents = list(tracer.parent)
    assert parents == [-1, 0, 1, 1]
