#!/usr/bin/env python3
"""Self-tests of the benchmark itself: each correctness check rejects a
deliberately wrong value, the same seed gives the same inputs, the
set comparison flags spread, worsening and failure-share changes, and
run.py refuses to run without the package source.

    python3 perfbench/selftest.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    contraction_kernel,
    kostant_size,
    multinomial_orbit_size,
    use_checkout_package,
    weyl_dimension_product,
)

use_checkout_package()

import checks  # noqa: E402
import compare  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, build, load_cells, sparse  # noqa: E402


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(json.dumps(build(w, 7)), json.dumps(build(w, 7)), w)

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(json.dumps(build(w, 7)), json.dumps(build(w, 8)), w)

    def test_pass_sizes(self):
        self.assertGreaterEqual(len(build("gram-rank", 1)), 100)
        query = build("query-mix", 1)
        self.assertEqual(sum(op["repeat"] for op in query), 136)
        self.assertEqual(len(query), 300)


class Formulas(unittest.TestCase):
    def test_orbit_size(self):
        self.assertEqual(multinomial_orbit_size((1, 0, 0)), 4)
        self.assertEqual(multinomial_orbit_size((0, 1, 0)), 6)
        self.assertEqual(multinomial_orbit_size((1, 1, 1)), 24)
        self.assertEqual(multinomial_orbit_size((0, 0, 0)), 1)

    def test_weyl_dimension(self):
        self.assertEqual(weyl_dimension_product((1, 0, 0, 0)), 5)
        self.assertEqual(weyl_dimension_product((1, 0, 0, 1)), 24)
        self.assertEqual(weyl_dimension_product((0, 1, 0)), 6)
        self.assertEqual(weyl_dimension_product((2, 0)), 6)

    def test_kostant_size(self):
        self.assertEqual(kostant_size((1, 1)), 2)
        self.assertEqual(kostant_size((2, 2)), 3)
        self.assertEqual(kostant_size((1, 1, 1)), 4)
        self.assertEqual(kostant_size((0, 1, 0)), 1)

    def test_kostant_size_matches_package(self):
        from typea_irreps.verma_gram import kostant_count

        for c in ((2, 1, 3), (1, 2, 2, 1), (3, 0, 2, 1), (2, 2, 2, 2, 1)):
            self.assertEqual(kostant_size(c), kostant_count(c), c)

    def test_contraction_kernel(self):
        self.assertEqual(contraction_kernel(4, 2), 40)


class ChecksReject(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = worker.Reference()
        cls.run_query = staticmethod(worker.make_runner("query-mix", None))
        cls.cell = next(c for c in load_cells()["gram"] if 30 <= c["monomials"] <= 120)

    def assertRejects(self, fn, *args):
        self.assertTrue(fn(*args), "a wrong value passed the check")

    def test_classify(self):
        from typea_irreps import dim_classifier

        op = {"kind": "verify", "l": 19, "p": 3, "s": 3}
        good = checks.classify_summary(dim_classifier.verify_tables(19, 3, 3))
        self.assertEqual(checks.check_classify(op, good, self.ref), [])

        def mutated(edit):
            got = copy.deepcopy(good)
            edit(got)
            return got

        entry = 1
        self.assertRejects(checks.check_classify, op, mutated(
            lambda g: g["missing"].append(["t1:l1", [1] + [0] * 18, 20])), self.ref)
        self.assertRejects(checks.check_classify, op, mutated(
            lambda g: g["extra"].append([[1] * 19, 5])), self.ref)
        self.assertRejects(checks.check_classify, op, mutated(
            lambda g: g["entries"][entry].__setitem__(1, g["entries"][entry][1] + 1)), self.ref)
        self.assertRejects(checks.check_classify, op, mutated(
            lambda g: g["entries"][entry][2][0].__setitem__(1, 7)), self.ref)
        for bad in (0, 99):
            def set_mult(g, bad=bad):
                term = g["entries"][-1][2][-1]
                g["entries"][-1][1] += (bad - term[2]) * term[1]
                term[2] = bad
            self.assertRejects(checks.check_classify, op, mutated(set_mult), self.ref)

    def test_brute_force(self):
        class Liar:
            def enumerate_small_irreducibles(self, l, p, s):
                return self.real.enumerate_small_irreducibles(l, p, s)

            def brute_force_small(self, l, p, s):
                return self.real.brute_force_small(l, p, s)[1:]

        liar = Liar()
        liar.real = self.ref
        self.assertRejects(checks.check_brute_force, liar)

    def test_gram(self):
        from typea_irreps import verma_gram

        cell = self.cell
        lam, mu, p = tuple(cell["lam"]), tuple(cell["mu"]), cell["p"]
        stream = dict(cell, kind="stream")
        m = verma_gram.irreducible_multiplicity(lam, mu, p)
        self.assertEqual(checks.check_gram(stream, {"m": m}, self.ref), [])
        self.assertRejects(checks.check_gram, stream, {"m": 0}, self.ref)
        self.assertRejects(checks.check_gram, stream, {"m": cell["weyl"] + 1}, self.ref)
        self.assertRejects(checks.check_gram, dict(stream, weyl=cell["weyl"] + 1),
                           {"m": m}, self.ref)

        dense = dict(cell, kind="dense")
        gram = verma_gram.gram_matrix(lam, mu)
        divisors = verma_gram.smith_normal_form(gram)
        good = {"m": sum(1 for d in divisors if d % p), "gram": gram.rows}
        self.assertEqual(checks.check_gram(dense, good, self.ref), [])
        self.assertRejects(checks.check_gram, dense, dict(good, m=good["m"] - 1), self.ref)
        bigger = [row + [0] for row in gram.rows] + [[0] * (len(gram.rows) + 1)]
        self.assertRejects(checks.check_gram, dense, dict(good, gram=bigger), self.ref)

    def query(self, op):
        _, got = self.run_query(op)
        self.assertEqual(checks.check_query(op, got, self.ref), [], op["argv"])
        return got

    def rejects_edit(self, op, got, edit):
        doc = json.loads(got["out"])
        edit(doc)
        self.assertRejects(checks.check_query, op, dict(got, out=json.dumps(doc)), self.ref)

    def test_query_orbit(self):
        w = [0, 2, 0, 0, 1, 0]
        op = {"kind": "orbit", "l": 6, "weight": w,
              "argv": ["orbit", "--rank", "6", "--weight", "2:2,5:1"]}
        got = self.query(op)
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("orbit_size", "1"))
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("weyl_dimension", "2"))
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("dual", "1:1"))
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("self_dual", True))
        self.rejects_edit(op, got, lambda d: d["config"].__setitem__("rank", "7"))
        self.rejects_edit(op, got, lambda d: d["config"].__setitem__("weight", "2:1"))
        self.assertRejects(checks.check_query, op, dict(got, code=1), self.ref)
        self.assertRejects(checks.check_query, op, dict(got, out="not json"), self.ref)

    def test_query_dim(self):
        op = {"kind": "dim", "row": "t1:l1+l2", "l": 9, "p": 3, "weight": [1, 1] + [0] * 7,
              "argv": ["dim", "--rank", "9", "--char", "3", "--weight", "1:1,2:1"]}
        got = self.query(op)
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__(
            "value", str(int(d["result"]["value"]) + 1)))
        self.rejects_edit(op, got, lambda d: d["result"]["breakdown"][0].__setitem__(
            "multiplicity", "5"))
        self.rejects_edit(op, got, lambda d: d["config"].__setitem__("char", "5"))

    def test_query_mult(self):
        c = self.cell
        op = {"kind": "mult-gram", "l": len(c["lam"]), "p": c["p"], "lam": c["lam"],
              "mu": c["mu"], "weyl": c["weyl"],
              "argv": ["mult", "--rank", str(len(c["lam"])), "--char", str(c["p"]),
                       "--weight", sparse(c["lam"]), "--sub", sparse(c["mu"])]}
        got = self.query(op)
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("multiplicity", "0"))
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__(
            "multiplicity", str(op["weyl"] + 1)))
        self.rejects_edit(op, got, lambda d: d["result"].__setitem__("provenance", "unit"))
        self.rejects_edit(op, got, lambda d: d["config"].__setitem__("sub", "0"))

    def test_query_construct(self):
        for name, l in (("l1l2", 4), ("l1llm1", 5), ("2l1ll", 3)):
            op = {"kind": "construct", "name": name, "l": l, "p": 3,
                  "argv": ["construct", name, "--rank", str(l), "--char", "3"]}
            got = self.query(op)
            field = "weyl" if name == "2l1ll" else "kernel"
            self.rejects_edit(op, got, lambda d: d["result"].__setitem__(field, "1"))
            self.rejects_edit(op, got, lambda d: d["result"].__setitem__("irreducible", "1"))
            self.rejects_edit(op, got, lambda d: d["config"].__setitem__("construction", "x"))

    def test_repeats(self):
        ops = [{"argv": ["orbit", "--rank", "4", "--weight", "1:1"]}] * 2
        self.assertEqual(checks.check_repeats(ops, ["a", "a"]), [])
        self.assertRejects(checks.check_repeats, ops, ["a", "b"])


def _row(value, failed=0, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": value, "unit": "x"}
                        for m in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
                                  "peak_rss_mb")}}


class Compare(unittest.TestCase):
    spec = compare.load_spec()

    def steady(self, scale=1.0, **kw):
        return [_row(scale * (1 + 0.01 * (i % 3)), **kw) for i in range(10)]

    def test_same_sets_pass(self):
        self.assertTrue(compare.compare(self.spec, self.steady(), self.steady())[1])

    def test_worse_median_fails(self):
        # ops_per_s is higher-better, so a 40% drop must fail; the
        # lower-better metrics rise by the same factor when scaled up
        lines, ok = compare.compare(self.spec, self.steady(), self.steady(1.4))
        self.assertFalse(ok)
        self.assertTrue(any("WORSE" in line for line in lines))
        lines, ok = compare.compare(self.spec, self.steady(), self.steady(0.6))
        self.assertFalse(ok)

    def test_wide_spread_fails(self):
        noisy = [_row(v) for v in (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)]
        lines, ok = compare.compare(self.spec, self.steady(), noisy)
        self.assertFalse(ok)
        self.assertTrue(any("SPREAD" in line for line in lines))

    def test_failed_share_must_match(self):
        self.assertFalse(compare.compare(self.spec, self.steady(),
                                         self.steady(failed=1))[1])

    def test_incorrect_run_fails(self):
        bad = self.steady()
        bad[3] = _row(1.0, correct=False)
        self.assertFalse(compare.compare(self.spec, self.steady(), bad)[1])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package(self):
        bare = os.path.join(OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
