"""Self-test of the benchmark at toy sizes.

    python -m pytest benchmarks/test_benchmark.py -q

For each workload: the printed metric names and units match BENCHMARK.json,
a corrupted recorded answer is counted as failed without crashing the run,
and the traced self times add up to the traced wall time.  Also checks that
the benchmark refuses to report from a directory without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--seed", "3", "--seconds", "1",
           "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_spec(workload):
    out = result(bench("--workload", workload, "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(workload):
    out = result(bench("--workload", workload, "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    report = json.loads((ROOT / ".bench_out" / "results"
                         / f"{workload}-seed3-trace1.json").read_text())
    wall, self_sum = report["trace_wall_s"], report["trace_self_sum_s"]
    overhead = abs(out["metrics"]["trace_overhead_ratio"]["value"] - 1.0)
    assert self_sum <= wall
    assert wall - self_sum <= (overhead + 0.01) * wall


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_counts_as_failed(workload, tmp_path):
    expected = tmp_path / "expected.json"
    proc = bench("--workload", workload, "--expected", str(expected), "--record-rounds", "1")
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(expected.read_text())
    answers = recorded["workloads"][workload]
    key = next(k for k, v in answers.items() if v["exact"] is not None)
    answers[key]["exact"] = "0" * 24
    expected.write_text(json.dumps(recorded))
    out = result(bench("--workload", workload, "--trace", "0", "--expected", str(expected)))
    assert out["failed"] >= 1 and not out["correct"]
    assert out["attempted"] > out["failed"]


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
