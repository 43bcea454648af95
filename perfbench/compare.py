#!/usr/bin/env python3
"""Run sets of benchmark runs and compare two sets against the bounds in
BENCHMARK.json.

    python3 perfbench/compare.py run --workload gram-rank --seeds 1-10 --out perfbench/out/a.jsonl
    python3 perfbench/compare.py run --workload gram-rank --seeds 1-10 --out perfbench/out/b.jsonl
    python3 perfbench/compare.py check perfbench/out/a.jsonl perfbench/out/b.jsonl

`run` appends one result line per seed.  `check` passes when, for every
end-to-end metric, each set's spread (distance between the first and
third quartile over the median, setup_s exempt) is within the metric's
bound, the second set's median is not worse than the first's by more
than the bound, every run was correct, and both sets failed the same
share of their ops.  It exits 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """Relative change of the second median from the first, positive when
    it got worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec, set_a, set_b):
    """Lines of the report and whether every rule holds."""
    lines = []
    ok = True
    for name, rows in (("first", set_a), ("second", set_b)):
        bad = sum(1 for r in rows if not r["correct"])
        if bad:
            ok = False
            lines.append("%s set: %d runs not correct" % (name, bad))
    share_a = Fraction(sum(r["failed"] for r in set_a), sum(r["attempted"] for r in set_a))
    share_b = Fraction(sum(r["failed"] for r in set_b), sum(r["attempted"] for r in set_b))
    if share_a != share_b:
        ok = False
    lines.append("failed share %s vs %s%s" % (share_a, share_b,
                                              "" if share_a == share_b else "  DIFFERENT"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in set_a]
        b = [r["metrics"][name]["value"] for r in set_b]
        sa, sb = spread(a), spread(b)
        worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
        flags = []
        if name != "setup_s" and max(sa, sb) > bound:
            flags.append("SPREAD")
        if worse > bound:
            flags.append("WORSE")
        ok = ok and not flags
        lines.append("%-12s bound %.2f  median %.4g -> %.4g (%+.3f)  spread %.3f / %.3f  %s"
                     % (name, bound, statistics.median(a), statistics.median(b), worse,
                        sa, sb, " ".join(flags) or "ok"))
    return lines, ok


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_run(args):
    spec = load_spec()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            print("seed %d failed: %s" % (seed, proc.stderr.strip()[-500:]), file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
        print("seed %d (%.1f s): %s" % (seed, wall, line), flush=True)
    return 0


def cmd_check(args):
    sets = []
    for path in (args.first, args.second):
        with open(path) as fh:
            sets.append([json.loads(line) for line in fh if line.strip()])
    lines, ok = compare(load_spec(), *sets)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload over a range of seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11-13")
    run.add_argument("--out", default=os.path.join(BENCH_DIR, "out", "runs.jsonl"))
    check = sub.add_parser("check", help="compare two files of result lines")
    check.add_argument("first")
    check.add_argument("second")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
