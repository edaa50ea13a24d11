"""Benchmark launcher: one workload, one seed, fresh processes, checked answers.

    python3 benchmarks/run.py --workload fourier-nil --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``cyclicforms`` from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; either way the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A readable report,
with machine info and the tail percentile used, goes to standard error and
to ``.bench_out/results/``.  See ``benchmarks/README.md``.
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
DEFAULT_SEED = 1
HELDOUT_SEED = 97  # never used while tuning; check claimed gains on it too
SETUP_SAMPLES = 11  # set-ups per run (10 set-up-only workers + the measuring one); median
WORKER_TIMEOUT_S = 170
PIN_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
# workload -> preferred tail percentile: the highest on the ladder that keeps
# ten jobs beyond it even in a slow run (fourier-nil: 4 rounds of 52 jobs,
# where p95 would keep only 10.4; exact-search: 14 rounds of 18 jobs)
TAIL = {"fourier-nil": 90.0, "exact-search": 95.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def spawn(args: argparse.Namespace, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--expected", args.expected, *extra]
    env = dict(os.environ, **PIN_THREADS)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def read_setup(proc: subprocess.Popen) -> float:
    """Set-up seconds at the reference speed, as the worker reports them."""
    word, _, value = proc.stdout.readline().partition(" ")
    if word != "READY":
        raise RuntimeError("worker failed during set-up")
    return float(value)


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def run_worker(args: argparse.Namespace, *extra: str) -> tuple[float, str]:
    proc = spawn(args, *extra)
    try:
        setup = read_setup(proc)
        return setup, finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def tail(latencies: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the preferred percentile, or the
    highest lower one on the ladder, with at least ten samples beyond it."""
    import numpy as np

    lat = np.asarray(latencies)
    for pct in [p for p in TAIL_LADDER if p <= preferred]:
        value = float(np.percentile(lat, pct))
        beyond = int((lat > value).sum())
        if beyond >= 10:
            return pct, value, beyond
    value = float(np.percentile(lat, 50.0))
    return 50.0, value, int((lat > value).sum())


def job_kinds(run: dict) -> dict:
    """Per job kind: (runs, median latency, max latency), at the reference speed."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(run["kinds"], run["ref_latencies"]):
        by_kind.setdefault(kind, []).append(latency)
    return {k: (len(v), statistics.median(v), max(v)) for k, v in by_kind.items()}


def machine_info() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_model": "unknown", "caches": {},
            "git_sha": git_sha()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3"):
                info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(args, res: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, every time scaled to the probe's reference speed."""
    run = res["untraced"]
    latencies = run["ref_latencies"]
    pct, tail_value, beyond = tail(latencies, TAIL[args.workload])
    metrics = {
        "jobs_per_s": (run["ok"] / run["ref_wall_s"], "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    notes = {"job_tail_s": f"p{pct:g} of {len(latencies)} jobs, {beyond} beyond it",
             "setup_s": f"median of {len(setups)} fresh-process set-ups",
             "jobs_per_s": f"{run['ok']} checked jobs in {run['ref_wall_s']:.2f} s "
                           f"({run['wall_s']:.2f} s of wall time), {run['rounds']} rounds",
             "job_p50_s": f"{statistics.median(run['latencies']):.4g} s of wall time"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: toy sizes, for the benchmark's self-test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="digest of recorded exact answers")
    parser.add_argument("--record-rounds", type=int, default=0,
                        help="record the answers of this many rounds into --expected")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    try:
        if args.record_rounds:
            run_worker(args, "--record-rounds", str(args.record_rounds))
            print(f"recorded {args.workload} seed {args.seed} into {args.expected}",
                  file=sys.stderr)
            return 0
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, "--setup-only")[0])
        setup, out = run_worker(args)
        setups.append(setup)
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    phases = [res["untraced"]] + ([res["traced"]] if "traced" in res else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = attempted - sum(p["ok"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    if args.trace:
        import layertrace

        units = {name: unit for name, unit, _b, _n in layertrace.PER_LAYER}
        metrics = {name: (res["layers"][name], units[name]) for name in units}
        notes = {name: note for name, _u, _b, note in layertrace.PER_LAYER if note}
        for name, why in res["absent"].items():
            notes[name] = f"absent: {why}"
    else:
        metrics, notes = end_to_end(args, res, setups)

    report = {
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "machine": machine_info(), "attempted": attempted,
        "failed": failed, "ops_failed_ratio": failed / attempted, "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "job_kinds": job_kinds(res["untraced"]),
        "speed": {"reference_probe_s": res["untraced"]["reference_probe_s"],
                  "median_probe_s": res["untraced"]["probe_median_s"],
                  "probes": res["untraced"]["probes"],
                  "round_s": res["untraced"]["round_ref_s"],
                  "probe_overhead_s": res["untraced"]["probe_overhead_s"]},
    }
    if args.trace:
        report["trace_wall_s"] = res["traced"]["wall_s"]
        report["trace_self_sum_s"] = res["trace_self_sum_s"]
        report["spans_file"] = res["spans_file"]
    print_report(report)
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def print_report(report: dict) -> None:
    err = sys.stderr
    m = report["machine"]
    print(f"# {report['workload']} seed {report['seed']} (default {report['default_seed']}, "
          f"held-out {report['heldout_seed']}), {report['seconds']:g} s, trace "
          f"{report['trace']}", file=err)
    print(f"# {m['nproc']} cpus, {m['cpu_model']}, {m['caches']}, python {m['python']}, "
          f"numpy {m['numpy']}, git {m['git_sha'][:12]}", file=err)
    print(f"# attempted {report['attempted']}, failed {report['failed']}, "
          f"ops_failed_ratio {report['ops_failed_ratio']:.4g}", file=err)
    sp = report["speed"]
    print(f"# speed probe: median {sp['median_probe_s'] * 1e3:.2f} ms over {sp['probes']} probes "
          f"(reference {sp['reference_probe_s'] * 1e3:.2f} ms), {sp['probe_overhead_s']:.2f} s "
          "spent probing; times below are at the reference speed", file=err)
    for failure in report["failures"]:
        print(f"#   FAILED {failure}", file=err)
    width = max(len(k) for k in report["metrics"])
    for name, metric in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']:<9} {note}", file=err)
    for kind, (count, median, worst) in report["job_kinds"].items():
        print(f"#   job {kind:<24} {count:>5} runs, median {median:.4f} s, max {worst:.4f} s",
              file=err)
    if report["trace"]:
        print(f"# traced wall {report['trace_wall_s']:.3f} s, sum of self times "
              f"{report['trace_self_sum_s']:.3f} s, spans in {report['spans_file']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
