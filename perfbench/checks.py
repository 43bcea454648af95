"""Correctness checks on op results, run after the timed region.

Each check returns a list of error strings, empty when the result holds.
The checks compare against formulas written in common.py, against a
different module of the package than the one that produced the value,
or against a property the method must have.  `ref` is the package-side
reference: an object with weyl_multiplicity, table_row_dimension,
rational_rank, rank_mod_p, irreducible_multiplicity, brute_force_small
and enumerate_small_irreducibles.
"""

import json

from common import (
    contraction_kernel,
    kostant_size,
    multinomial_orbit_size,
    root_content,
    weyl_dimension_product,
)
from workloads import sparse

# small cells on which the pruned search must agree with the exhaustive scan
BRUTE_FORCE_CELLS = ((5, 2, 3), (5, 3, 3), (4, 5, 3), (6, 2, 4))

CONSTRUCT_ROWS = {"l1l2": "t1:l1+l2", "l1llm1": "t1:l1+llm1", "2l1ll": "t1:2l1+ll"}


def classify_summary(check):
    """Plain form of a TableCheck: what the checks and the digest read."""
    return {
        "missing": [[r, list(w), d] for r, w, d in check.missing],
        "extra": [[list(w), d] for w, d in check.extra],
        "matched": len(check.matched),
        "entries": [[list(e.weight), e.dim,
                     [[list(t.mu), t.orbit, t.multiplicity] for t in e.breakdown]]
                    for e in check.report.entries],
    }


def check_classify(op, got, ref):
    l, p, s = op["l"], op["p"], op["s"]
    where = "verify l=%d p=%d s=%d" % (l, p, s)
    errors = []
    if got["missing"]:
        errors.append("%s: rows missing %s" % (where, got["missing"]))
    if got["extra"]:
        errors.append("%s: unclaimed weights %s" % (where, got["extra"]))
    cap = (l + 1) ** s
    for weight, dim, terms in got["entries"]:
        w = tuple(weight)
        total = sum(orbit * mult for _, orbit, mult in terms)
        if dim != total:
            errors.append("%s %s: dim %d != sum over breakdown %d" % (where, w, dim, total))
        if dim > cap:
            errors.append("%s %s: dim %d above (l+1)^s" % (where, w, dim))
        if dim > weyl_dimension_product(w):
            errors.append("%s %s: dim %d above the Weyl dimension" % (where, w, dim))
        for mu, orbit, mult in terms:
            if orbit != multinomial_orbit_size(mu):
                errors.append("%s %s mu=%s: orbit %d" % (where, w, mu, orbit))
            if not 1 <= mult <= ref.weyl_multiplicity(w, tuple(mu)):
                errors.append("%s %s mu=%s: multiplicity %d out of [1, weyl]"
                              % (where, w, mu, mult))
    return errors


def check_brute_force(ref):
    errors = []
    for l, p, s in BRUTE_FORCE_CELLS:
        pruned = [(e.weight, e.dim) for e in ref.enumerate_small_irreducibles(l, p, s).entries]
        if pruned != ref.brute_force_small(l, p, s):
            errors.append("pruned search disagrees with the exhaustive scan at l=%d p=%d s=%d"
                          % (l, p, s))
    return errors


def check_gram(op, got, ref):
    lam, mu, p = tuple(op["lam"]), tuple(op["mu"]), op["p"]
    where = "%s lam=%s mu=%s p=%d" % (op["kind"], sparse(lam), sparse(mu), p)
    weyl = ref.weyl_multiplicity(lam, mu)
    errors = []
    if weyl != op["weyl"]:
        errors.append("%s: Weyl multiplicity %d, pool says %d" % (where, weyl, op["weyl"]))
    if not 1 <= got["m"] <= weyl:
        errors.append("%s: multiplicity %d out of [1, %d]" % (where, got["m"], weyl))
    if op["kind"] == "dense":
        gram = got["gram"]
        if len(gram) != kostant_size(root_content(lam, mu)):
            errors.append("%s: %d monomials, Kostant count %d"
                          % (where, len(gram), kostant_size(root_content(lam, mu))))
        if ref.rational_rank(gram) != weyl:
            errors.append("%s: rational rank != Weyl multiplicity %d" % (where, weyl))
        modp = ref.rank_mod_p(gram, p)
        streamed = ref.irreducible_multiplicity(lam, mu, p)
        if not got["m"] == modp == streamed:
            errors.append("%s: divisors prime to p %d, rank mod p %d, streamed %d"
                          % (where, got["m"], modp, streamed))
    return errors


def _expect(errors, where, name, got, want):
    if got != want:
        errors.append("%s: %s is %r, expected %r" % (where, name, got, want))


def check_query(op, got, ref):
    """One command's exit code and output against the request."""
    where = " ".join(op["argv"])
    errors = []
    if got["code"] != 0:
        return ["%s: exit code %d" % (where, got["code"])]
    try:
        doc = json.loads(got["out"])
        cfg, res = doc["config"], doc["result"]
    except (ValueError, KeyError, TypeError):
        return ["%s: output is not the JSON document" % where]
    kind = op["kind"]
    _expect(errors, where, "command", cfg.get("command"), op["argv"][0])
    _expect(errors, where, "rank", cfg.get("rank"), str(op["l"]))
    if kind != "orbit":
        _expect(errors, where, "char", cfg.get("char"), str(op["p"]))
    try:
        if kind == "orbit":
            w = tuple(op["weight"])
            _expect(errors, where, "weight", cfg.get("weight"), sparse(w))
            _expect(errors, where, "orbit_size", int(res["orbit_size"]),
                    multinomial_orbit_size(w))
            _expect(errors, where, "weyl_dimension", int(res["weyl_dimension"]),
                    weyl_dimension_product(w))
            _expect(errors, where, "dual", res["dual"], sparse(w[::-1]))
            _expect(errors, where, "self_dual", res["self_dual"], w == w[::-1])
        elif kind == "dim":
            _expect(errors, where, "weight", cfg.get("weight"), sparse(op["weight"]))
            value = int(res["value"])
            total = sum(int(t["orbit"]) * int(t["multiplicity"]) for t in res["breakdown"])
            _expect(errors, where, "sum over breakdown", total, value)
            _expect(errors, where, "dim", value,
                    ref.table_row_dimension(op["row"], op["l"], op["p"]))
        elif kind in ("mult-gram", "mult-closed"):
            _expect(errors, where, "weight", cfg.get("weight"), sparse(op["lam"]))
            _expect(errors, where, "sub", cfg.get("sub"), sparse(op["mu"]))
            m = int(res["multiplicity"])
            if not 1 <= m <= op["weyl"]:
                errors.append("%s: multiplicity %d out of [1, %d]" % (where, m, op["weyl"]))
            _expect(errors, where, "gram provenance", res["provenance"] == "gram",
                    kind == "mult-gram")
        else:
            name, l, p = op["name"], op["l"], op["p"]
            _expect(errors, where, "construction", cfg.get("construction"), name)
            if name == "2l1ll":
                lam = [0] * l
                lam[0] += 2
                lam[l - 1] += 1
                _expect(errors, where, "weyl", int(res["weyl"]), weyl_dimension_product(lam))
            else:
                k = 2 if name == "l1l2" else l - 1
                _expect(errors, where, "kernel", int(res["kernel"]), contraction_kernel(l, k))
            _expect(errors, where, "irreducible", int(res["irreducible"]),
                    ref.table_row_dimension(CONSTRUCT_ROWS[name], l, p))
    except (KeyError, TypeError, ValueError) as e:
        errors.append("%s: malformed result field (%s)" % (where, e))
    return errors


def check_repeats(ops, outputs):
    """A repeated command returns byte-identical output."""
    first = {}
    errors = []
    for op, got in zip(ops, outputs):
        key = tuple(op["argv"])
        if key in first and first[key] != got:
            errors.append("%s: repeated command changed its output" % " ".join(key))
        first.setdefault(key, got)
    return errors
