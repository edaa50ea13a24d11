"""One workload in one fresh process: set up, run closed-loop rounds, check answers.

Started by ``run.py``.  Prints ``READY <seconds>`` once set-up is done, with
the set-up time at the reference speed (see ``speed.py``), then a single
JSON line with the phase results.  Tracing, when asked for, wraps the library from the outside only
(see ``layertrace.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RAW_CAP = 1.4  # a run stops at this many times --seconds of wall time at the latest


def import_library():
    if not (SRC / "cyclicforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no cyclicforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import cyclicforms

    if Path(cyclicforms.__file__).resolve().parent != SRC / "cyclicforms":
        raise SystemExit(f"error: imported cyclicforms from {cyclicforms.__file__}, not {SRC}")


def answer_digest(exact) -> str | None:
    if exact is None:
        return None
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def compare(expected: dict | None, digest: str | None, floats: list[float]) -> str | None:
    """Why the answer differs from the recorded one, or None."""
    if expected is None:
        return None
    if expected["exact"] != digest:
        return f"exact answer digest {digest} != recorded {expected['exact']}"
    if len(expected["floats"]) != len(floats):
        return "float answer has a different length than recorded"
    for got, want in zip(floats, expected["floats"]):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return f"float answer {got!r} != recorded {want!r}"
    return None


class Runner:
    """Runs rounds of one workload and keeps the per-job outcomes."""

    def __init__(self, workload, ctx, seed: int, tiny: bool, expected: dict):
        self.workload = workload
        self.ctx = ctx
        self.seed = seed
        self.tiny = tiny
        self.expected = expected
        self.records: dict[str, dict] = {}

    def stream(self):
        """(round, index in round, job), without end."""
        import numpy as np

        rng = np.random.default_rng([self.seed, 0x5EED])
        r = 0
        while True:
            for index, job in enumerate(self.workload.round(self.ctx, rng, r, self.tiny)):
                yield r, index, job
            r += 1

    def run(self, seconds: float | None = None, rounds: int | None = None,
            jobs: int | None = None, tracer=None) -> dict:
        """Closed loop, one job after another, until the round or job count is
        reached or ``seconds`` of job time at the reference speed have passed (see
        ``speed.py``).  A slow machine stops at ``RAW_CAP * seconds`` of wall time."""
        log = speed.SpeedLog()
        spans, kinds, rounds_of, failures = [], [], [], []
        ok = 0
        raw = ref = 0.0
        for r, index, job in self.stream():
            if (rounds is not None and r >= rounds) or (jobs is not None and len(spans) >= jobs):
                break
            if seconds is not None and spans and (ref >= seconds or raw >= RAW_CAP * seconds):
                break
            if log.due():
                log.sample()
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.root(f"job:{job.kind}", f"{r}.{index}"):
                    error = self._one(job)
            else:
                error = self._one(job)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            raw += t1 - t0
            ref += log.scale(t0, t1)  # probes before the job only; refined below
            kinds.append(job.kind)
            rounds_of.append(r)
            if error is None:
                ok += 1
            else:
                failures.append(f"round {r} {job.kind} {job.params}: {error}")
        log.sample()
        ref_latencies = [log.scale(t0, t1) for t0, t1 in spans]
        done = rounds_of[-1] + 1 if rounds_of else 0
        round_ref_s = [0.0] * done
        for r, latency in zip(rounds_of, ref_latencies):
            round_ref_s[r] += latency
        return {"rounds": done, "wall_s": raw, "ref_wall_s": sum(ref_latencies),
                "attempted": len(spans), "ok": ok, "latencies": [t1 - t0 for t0, t1 in spans],
                "ref_latencies": ref_latencies, "round_ref_s": round_ref_s,
                "kinds": kinds, "failures": failures,
                "reference_probe_s": speed.REFERENCE_S,
                "probe_median_s": statistics.median(log.took), "probes": len(log.took),
                "probe_overhead_s": log.overhead_s}

    def _one(self, job) -> str | None:
        try:
            exact, floats = job.run()
        except Exception as exc:  # a failed job is counted, never fatal
            return f"{type(exc).__name__}: {exc}"
        digest = answer_digest(exact)
        self.records[job.key] = {"exact": digest, "floats": list(floats)}
        return compare(self.expected.get(job.key), digest, floats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-rounds", type=int, default=0)
    args = parser.parse_args(argv)

    # Set-up is timed from here: interpreter start and the numpy import the
    # probe needs stay out, importing cyclicforms is in.  Process start-up
    # varies on a shared host in ways the probe does not follow.
    log = speed.SpeedLog()
    speed.probe()  # the first call pays one-time costs
    log.sample()
    log.sample()
    started = time.perf_counter()
    import_library()
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    work = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(work=work, seed=args.seed)
        tracer = layertrace.Tracer() if args.trace else None
        if tracer is not None:
            with tracer.installed(), tracer.root("setup", "setup"):
                workload.setup(ctx, tiny)
        else:
            workload.setup(ctx, tiny)
        ready = time.perf_counter()
        log.sample()
        log.sample()
        print(f"READY {log.scale(started, ready)!r}", flush=True)
        if args.setup_only:
            return 0

        expected_path = Path(args.expected)
        expected_all = json.loads(expected_path.read_text()) if expected_path.is_file() else {}
        expected = expected_all.get("workloads", {}).get(args.workload, {})
        if args.record_rounds:
            expected = {}
        runner = Runner(workload, ctx, args.seed, tiny, expected)
        out: dict = {}
        if args.record_rounds:
            out["untraced"] = runner.run(rounds=args.record_rounds)
            expected_all.setdefault("workloads", {})[args.workload] = runner.records
            expected_all["default_seed"] = args.seed
            expected_path.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n")
        elif tracer is None:
            out["untraced"] = runner.run(seconds=args.seconds)
        else:
            # the same jobs twice: untraced for the overhead base, then traced
            out["untraced"] = runner.run(seconds=args.seconds / 2)
            base = tracer.self_sum()
            with tracer.installed():
                out["traced"] = runner.run(jobs=out["untraced"]["attempted"], tracer=tracer)
            traced, untraced = out["traced"], out["untraced"]
            failed = (untraced["attempted"] - untraced["ok"]) + (traced["attempted"] - traced["ok"])
            values, absent = layertrace.layer_metrics(
                tracer, traced["ref_wall_s"], untraced["ref_wall_s"],
                failed / (untraced["attempted"] + traced["attempted"]))
            out["layers"] = values
            out["absent"] = absent
            out["trace_self_sum_s"] = tracer.self_sum() - base
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(tracer.dump()))
            out["spans_file"] = str(spans.relative_to(ROOT))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
