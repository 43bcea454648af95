#!/usr/bin/env python3
"""Benchmark of typea_irreps: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

With --trace 0 it reports the end-to-end metrics: the median set-up time
of fresh interpreters (start, package import, input generation), ops per
second over the timed ops, the median and 90th-percentile op latency,
and the median peak resident memory of the processes doing the ops.
Passes over the seeded op list run, each in a fresh interpreter, until
--seconds of timed ops and at least 100 ops are done.

With --trace 1 it runs one untraced and one traced pass of the same op
list and reports the per-layer metrics of the traced pass, plus
trace.overhead_s, the traced pass's timed seconds minus the untraced
one's.  Spans are written to perfbench/out/.

Every result is checked outside the timed region; the last line of
standard output is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, SRC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
MIN_OPS = 100
WALL_LIMIT_S = 170.0
WORKER = os.path.join(BENCH_DIR, "worker.py")


class BenchError(Exception):
    pass


def _worker_cmd(args, *flags):
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed)] + list(flags)


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def _deadline_left(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run passed its %.0f s wall limit" % WALL_LIMIT_S)
    return left


def setup_sample(args, deadline):
    """Seconds from spawning a worker to its 'ready' line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=_deadline_left(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError("set-up failed: %s" % err.strip()[-500:])
    return elapsed


def run_pass(args, deadline, *flags):
    proc = subprocess.Popen(_worker_cmd(args, *flags), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    try:
        out, err = proc.communicate(timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("pass passed the wall limit")
    if proc.returncode != 0:
        raise BenchError("pass failed: %s" % err.strip()[-800:])
    return json.loads(out.strip().splitlines()[-1])


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(args, deadline):
    setups = [setup_sample(args, deadline) for _ in range(SETUP_SAMPLES)]
    passes = []
    timed = 0.0
    ops = 0
    while timed < args.seconds or ops < MIN_OPS:
        flags = ["--full-check"] if not passes else []
        got = run_pass(args, deadline, *flags)
        passes.append(got)
        timed += got["timed_s"]
        ops += got["attempted"]
    times = [t for p in passes for t in p["times"]]
    if len(times) < 2:
        raise BenchError("fewer than two ops succeeded")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / timed,
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_p90_ms": 1000.0 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
    }
    return passes, metrics


def traced(args, deadline):
    plain = run_pass(args, deadline)
    traced_pass = run_pass(args, deadline, "--trace")
    metrics = dict(traced_pass["layers"])
    metrics["trace.overhead_s"] = traced_pass["timed_s"] - plain["timed_s"]
    return [plain, traced_pass], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "typea_irreps", "__init__.py")):
        print("run.py: no typea_irreps source under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + WALL_LIMIT_S
    try:
        units = load_units()
        passes, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1

    errors = [e for p in passes for e in p["errors"]]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        errors.append("passes over the same ops gave different answers")
    for p in passes:
        for line in p["failures"]:
            print("failed: %s" % line, file=sys.stderr)
    for line in errors[:20]:
        print("check: %s" % line, file=sys.stderr)
    last = passes[-1]
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes) if not args.trace else last["attempted"],
        "failed": sum(p["failed"] for p in passes) if not args.trace else last["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    for name, m in sorted(result["metrics"].items()):
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
