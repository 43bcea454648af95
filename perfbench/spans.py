"""In-memory span tracing around the package's public functions.

The tracer replaces a function at the name its caller looks it up by
(for example the premet_bound_exceeds that dim_classifier imported), so
the package itself is unchanged.  A span records its name, parent,
start, end, the op it belongs to, and one value the layer reports (a
count, a key, a result size).  Spans stay in a list until the pass ends;
per-layer metrics and the span file are computed from that list.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (module, attribute the caller uses, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("dim_classifier", "verify_tables", "dim_classifier.verify_tables"),
    ("cli", "dim_irreducible", "dim_classifier.dim_irreducible"),
    ("dim_classifier", "premet_bound_exceeds", "weyl_orbits.premet"),
    ("dim_classifier", "subdominant_weights", "weyl_orbits.subdominant"),
    ("dim_classifier", "orbit_size", "weyl_orbits.orbit"),
    ("cli", "orbit_size", "weyl_orbits.orbit"),
    ("dim_classifier", "weyl_multiplicity_table", "freudenthal.table"),
    ("cli", "weyl_multiplicity", "freudenthal.table"),
    ("cli", "weyl_dimension", "freudenthal.weyl_dimension"),
    ("dim_classifier", "oracle_multiplicity", "oracles.multiplicity"),
    ("cli", "oracle_multiplicity", "oracles.multiplicity"),
    ("dim_classifier", "kostant_count", "verma_gram.kostant"),
    ("verma_gram", "kostant_count", "verma_gram.kostant"),
    ("dim_classifier", "irreducible_multiplicity", "verma_gram.rank"),
    ("cli", "irreducible_multiplicity", "verma_gram.rank"),
    ("verma_gram", "irreducible_multiplicity", "verma_gram.rank"),
    ("verma_gram", "gram_matrix", "verma_gram.gram_matrix"),
    ("verma_gram", "smith_normal_form", "verma_gram.snf"),
    ("verma_gram", "rank_mod_p", "verma_gram.rank_mod_p"),
    ("cli", "contraction_kernel_dim", "tensor_constructions.construct"),
    ("cli", "young_symmetrizer_module", "tensor_constructions.construct"),
)

# span record fields
SID, PARENT, NAME, START, END, OP, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.patched = []
        self.tabled = set()        # lam keys requested since the last cache clear
        self.counted = set()       # kostant contents counted within the current op
        self.output_bytes = 0
        self.no_pattern = None

    # -- installation -------------------------------------------------

    def install(self):
        from typea_irreps.multiplicity_oracles import NO_PATTERN

        self.no_pattern = NO_PATTERN
        hooks = {
            "dim_classifier.verify_tables": self._on_report,
            "freudenthal.table": self._on_table,
            "oracles.multiplicity": self._on_oracle,
            "verma_gram.kostant": self._on_kostant,
        }
        for modname, attr, name in TARGETS:
            mod = importlib.import_module("typea_irreps." + modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                print("trace: %s.%s is gone; %s reads 0" % (modname, attr, name),
                      file=sys.stderr)
                continue
            setattr(mod, attr, self._wrap(orig, name, hooks.get(name)))
            self.patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched = []

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0, 0, self.op, None]
            spans.append(rec)
            stack.append(rec[SID])
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return traced

    # -- per-layer values ---------------------------------------------

    def _on_report(self, rec, args, kwargs, result):
        rec[VALUE] = (result.report.visited_count, result.report.pruned_count)

    def _on_table(self, rec, args, kwargs, result):
        lam = tuple(args[0])
        rec[VALUE] = lam in self.tabled
        self.tabled.add(lam)

    def _on_oracle(self, rec, args, kwargs, result):
        rec[VALUE] = result is not self.no_pattern

    def _on_kostant(self, rec, args, kwargs, result):
        content = tuple(args[0])
        cap = args[1] if len(args) > 1 else kwargs.get("cap")
        rec[VALUE] = (cap is not None and result == cap + 1, content in self.counted)
        self.counted.add(content)
        parent = rec[PARENT]
        if parent is not None and self.spans[parent][NAME] == "verma_gram.rank":
            self.spans[parent][VALUE] = result

    # -- op boundaries --------------------------------------------------

    def begin_op(self, index):
        self.op = index
        self.counted = set()
        rec = [len(self.spans), None, "op", perf_counter_ns(), 0, index, None]
        self.spans.append(rec)
        self.stack.append(rec[SID])
        return rec

    def end_op(self, rec):
        rec[END] = perf_counter_ns()
        self.stack.pop()
        self.op = None

    def caches_cleared(self):
        self.tabled = set()

    # -- results ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        """Per-layer counts and seconds; self time is a span's duration
        minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        count = {}
        total = {}
        self_ns = {}
        values = {}
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child[rec[SID]]
            values.setdefault(name, []).append(rec[VALUE])

        def n(name):
            return count.get(name, 0)

        def s(name):
            return total.get(name, 0) / 1e9

        reports = [v for v in values.get("dim_classifier.verify_tables", []) if v]
        tables = values.get("freudenthal.table", [])
        kostant = values.get("verma_gram.kostant", [])
        ranked = [v for v in values.get("verma_gram.rank", []) if v is not None]
        return {
            "dim_classifier.weights_visited": sum(v[0] for v in reports),
            "dim_classifier.weights_pruned": sum(v[1] for v in reports),
            "dim_classifier.weights_evaluated": n("weyl_orbits.subdominant"),
            "dim_classifier.self_s": (self_ns.get("dim_classifier.verify_tables", 0)
                                      + self_ns.get("dim_classifier.dim_irreducible", 0)) / 1e9,
            "weyl_orbits.premet_calls": n("weyl_orbits.premet"),
            "weyl_orbits.premet_s": s("weyl_orbits.premet"),
            "weyl_orbits.subdominant_calls": n("weyl_orbits.subdominant"),
            "weyl_orbits.subdominant_s": s("weyl_orbits.subdominant"),
            "weyl_orbits.orbit_calls": n("weyl_orbits.orbit"),
            "weyl_orbits.orbit_s": s("weyl_orbits.orbit"),
            "freudenthal.table_calls": len(tables),
            "freudenthal.table_s": s("freudenthal.table"),
            "freudenthal.table_reuse": sum(tables) / len(tables) if tables else 0.0,
            "oracles.calls": n("oracles.multiplicity"),
            "oracles.hits": sum(values.get("oracles.multiplicity", [])),
            "oracles.s": s("oracles.multiplicity"),
            "verma_gram.kostant_calls": len(kostant),
            "verma_gram.kostant_s": s("verma_gram.kostant"),
            "verma_gram.kostant_saturated": sum(1 for sat, _ in kostant if sat),
            "verma_gram.kostant_repeats": sum(1 for _, rep in kostant if rep),
            "verma_gram.rank_calls": n("verma_gram.rank"),
            "verma_gram.rank_s": s("verma_gram.rank"),
            "verma_gram.monomials_ranked": sum(ranked),
            "verma_gram.gram_matrix_s": s("verma_gram.gram_matrix"),
            "verma_gram.snf_calls": n("verma_gram.snf"),
            "verma_gram.snf_s": s("verma_gram.snf"),
            "verma_gram.rank_mod_p_s": s("verma_gram.rank_mod_p"),
            "tensor_constructions.calls": n("tensor_constructions.construct"),
            "tensor_constructions.s": s("tensor_constructions.construct"),
            "cli.calls": n("cli.main"),
            "cli.self_s": self_ns.get("cli.main", 0) / 1e9,
            "cli.output_bytes": self.output_bytes,
        }
