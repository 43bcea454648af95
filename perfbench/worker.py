"""One pass of one workload in a fresh interpreter.

run.py starts this once per set-up sample (--setup-only: import the
package and build the inputs, then report ready) and once per pass.  A
pass times every op of the seeded op list, reads the process's peak
resident memory, checks the results outside the timed region and prints
one JSON line.  With --trace the package's functions are wrapped in
spans for the timed ops and the per-layer metrics come back too.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR, use_checkout_package  # noqa: E402

# the module-level memo tables of the package; a classify op starts with
# them empty, as a one-shot `typea-irreps verify` does
MEMO_TABLES = (
    ("freudenthal", "_TABLES"),
    ("verma_gram", "_engines"),
    ("verma_gram", "_straighten_memo"),
    ("verma_gram", "_WEDGE_CACHE"),
)


def clear_memo_tables():
    for modname, attr in MEMO_TABLES:
        table = getattr(importlib.import_module("typea_irreps." + modname), attr, None)
        if isinstance(table, dict):
            table.clear()


class Reference:
    """Package functions the checks compare against, bound after import."""

    def __init__(self):
        from typea_irreps import dim_classifier, freudenthal, verma_gram

        self.weyl_multiplicity = freudenthal.weyl_multiplicity
        self.table_row_dimension = dim_classifier.table_row_dimension
        self.brute_force_small = dim_classifier.brute_force_small
        self.enumerate_small_irreducibles = dim_classifier.enumerate_small_irreducibles
        self.rational_rank = verma_gram.rational_rank
        self.rank_mod_p = verma_gram.rank_mod_p
        self.irreducible_multiplicity = verma_gram.irreducible_multiplicity


def make_runner(workload, tracer):
    """The op function of a workload: op -> result (plain values)."""
    from typea_irreps import cli, dim_classifier, verma_gram

    from checks import classify_summary

    if workload == "classify":
        def run_timed(op):
            clear_memo_tables()
            if tracer is not None:
                tracer.caches_cleared()
            t0 = time.perf_counter()
            got = dim_classifier.verify_tables(op["l"], op["p"], op["s"])
            return time.perf_counter() - t0, classify_summary(got)
        return run_timed

    if workload == "gram-rank":
        def run_timed(op):
            lam, mu, p = tuple(op["lam"]), tuple(op["mu"]), op["p"]
            t0 = time.perf_counter()
            if op["kind"] == "stream":
                m = verma_gram.irreducible_multiplicity(lam, mu, p)
                dt = time.perf_counter() - t0
                return dt, {"m": m}
            gram = verma_gram.gram_matrix(lam, mu)
            divisors = verma_gram.smith_normal_form(gram)
            dt = time.perf_counter() - t0
            return dt, {"m": sum(1 for d in divisors if d % p), "gram": gram,
                        "divisors": divisors}
        return run_timed

    def run_timed(op):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op["argv"]))
        text = out.getvalue()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.output_bytes += len(text.encode())
        return dt, {"code": code, "out": text, "err": err.getvalue()}
    return run_timed


def digest_of(results):
    """Hash of everything a pass answered, except timings and matrices."""
    h = hashlib.sha256()
    for got in results:
        plain = {k: v for k, v in got.items() if k != "gram"} if got else None
        h.update(json.dumps(plain, sort_keys=True).encode())
    return h.hexdigest()


def run_checks(workload, ops, results, full):
    import checks

    ref = Reference()
    errors = []
    pairs = [(op, got) for op, got in zip(ops, results) if got is not None]
    if workload == "classify":
        for op, got in pairs:
            errors += checks.check_classify(op, got, ref)
        if full:
            errors += checks.check_brute_force(ref)
    elif workload == "gram-rank":
        for op, got in pairs:
            if full or op["kind"] == "stream":
                errors += checks.check_gram(op, got, ref)
    else:
        for op, got in pairs:
            errors += checks.check_query(op, got, ref)
        errors += checks.check_repeats([op for op, _ in pairs], [g["out"] for _, g in pairs])
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--full-check", action="store_true")
    args = ap.parse_args(argv)

    use_checkout_package()
    import typea_irreps.cli  # noqa: F401  (the import is part of set-up)

    from workloads import build

    ops = build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run_timed = make_runner(args.workload, tracer)

    times, results, failures = [], [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        span = tracer.begin_op(index) if tracer else None
        try:
            dt, got = run_timed(op)
        except Exception as e:  # an op that raises is a failed op, not a crash
            dt, got = None, None
            failures.append("op %d %s: %s: %s" % (index, json.dumps(op)[:200],
                                                  type(e).__name__, e))
        if span:
            tracer.end_op(span)
        if dt is not None:
            times.append(dt)
        results.append(got)
    timed_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"attempted": len(ops), "failed": len(failures), "failures": failures[:5],
           "times": times, "timed_s": timed_s, "rss_mb": rss_mb,
           "digest": digest_of(results)}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    out["errors"] = run_checks(args.workload, ops, results, args.full_check)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
