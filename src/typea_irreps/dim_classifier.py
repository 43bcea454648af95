"""Dimensions of restricted irreducibles and the small-dimension search.

dim L(lambda) = sum over subdominant mu of |W.mu| * m_lambda(mu); the
multiplicities come from the closed-form catalogue, from the Gram engine,
or from the observation that a Weyl multiplicity of 1 pins the modular one
(it is at least 1 for restricted highest weights and at most the Weyl
value).  On top of that sit evaluators for the registered rows of the two
small-dimension tables plus the four extension rows, a pruned search for
all restricted weights with dim L <= (l+1)^s, and a checker that compares
the two.
"""

from dataclasses import dataclass
from math import comb

from .freudenthal import weyl_multiplicity_table
from .multiplicity_oracles import NO_PATTERN, epsilon_p, oracle_multiplicity
from .root_system import (
    dual_weight,
    format_weight,
    is_dominant,
    is_restricted,
    rank_of,
)
from .verma_gram import (
    DEFAULT_MONOMIAL_CAP,
    ResourceExceeded,
    irreducible_multiplicity,
)
from .weyl_orbits import orbit_size, premet_bound_exceeds, subdominant_weights

STRATEGIES = ("oracle-first", "gram-only", "oracle-only")


class NotApplicable:
    """Returned when a table row's index range or side condition fails."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "NotApplicable"


NOT_APPLICABLE = NotApplicable()


@dataclass(frozen=True)
class MuTerm:
    mu: tuple
    orbit: int
    multiplicity: int
    provenance: str


@dataclass(frozen=True)
class DimensionResult:
    value: int
    breakdown: tuple

    def to_dict(self):
        return {
            "value": str(self.value),
            "breakdown": [
                {
                    "mu": format_weight(t.mu),
                    "orbit": str(t.orbit),
                    "multiplicity": str(t.multiplicity),
                    "provenance": t.provenance,
                }
                for t in self.breakdown
            ],
        }


@dataclass(frozen=True)
class ReportEntry:
    weight: tuple
    dual: tuple
    dim: int
    breakdown: tuple

    @property
    def self_dual(self):
        return self.weight == self.dual


@dataclass(frozen=True)
class ClassificationReport:
    rank: int
    char: int
    exponent: int
    cap: int
    entries: tuple
    visited_count: int
    pruned_count: int

    def to_dict(self):
        return {
            "rank": str(self.rank),
            "char": str(self.char),
            "exponent": str(self.exponent),
            "cap": str(self.cap),
            "entries": [
                {
                    "weight": format_weight(e.weight),
                    "dual": format_weight(e.dual),
                    "self_dual": e.self_dual,
                    "dim": str(e.dim),
                    "breakdown": [
                        {
                            "mu": format_weight(t.mu),
                            "orbit": str(t.orbit),
                            "multiplicity": str(t.multiplicity),
                            "provenance": t.provenance,
                        }
                        for t in e.breakdown
                    ],
                }
                for e in self.entries
            ],
            "visited_count": str(self.visited_count),
            "pruned_count": str(self.pruned_count),
        }


def _resolve_multiplicity(lam, mu, p, strategy, weyl_table):
    """(multiplicity, provenance) for one subdominant mu, or None when only
    the Gram engine can answer and the strategy allows it."""
    if strategy != "gram-only":
        if weyl_table[mu] == 1:
            return 1, "weyl-mult-1"
        hit = oracle_multiplicity(lam, mu, p)
        if hit is not NO_PATTERN:
            return hit.value, hit.source
        if strategy == "oracle-only":
            raise ResourceExceeded(
                "no closed form for mu=%s under oracle-only" % format_weight(mu),
                blocking=tuple(mu))
    return None


def _dim_terms(lam, p, strategy, cap_monomials, cap_value=None):
    """Breakdown terms for dim L(lam), or None once the running total is
    known to exceed cap_value.

    Every subdominant mu has multiplicity >= 1 (lam is restricted), so
    the orbit sum, and then the floor with the closed forms filled in and
    1 for every mu left to the Gram engine, can reject lam before any
    form work.  Only when that floor fits are the deferred mu ranked, in
    ascending Weyl multiplicity, which is also the size of the tableau
    basis the Gram engine ranks, so that the cheapest blocker aborts
    first.  Under "gram-only" the Weyl table only sets that order.
    """
    mus = subdominant_weights(lam)
    orbits = {mu: orbit_size(mu) for mu in mus}
    if cap_value is not None and sum(orbits.values()) > cap_value:
        return None

    weyl_table = weyl_multiplicity_table(lam)
    resolved = {}
    deferred = []
    for mu in mus:
        hit = _resolve_multiplicity(lam, mu, p, strategy, weyl_table)
        if hit is None:
            deferred.append(mu)
        else:
            resolved[mu] = hit

    def running_floor():
        total = 0
        for mu in mus:
            mult = resolved[mu][0] if mu in resolved else 1
            total += orbits[mu] * mult
        return total

    if cap_value is not None and running_floor() > cap_value:
        return None

    for mu in sorted(deferred, key=lambda mu: (weyl_table[mu], mu)):
        mult = irreducible_multiplicity(lam, mu, p, cap=cap_monomials)
        resolved[mu] = (mult, "gram")
        if cap_value is not None and running_floor() > cap_value:
            return None

    return tuple(
        MuTerm(mu, orbits[mu], resolved[mu][0], resolved[mu][1]) for mu in mus)


def dim_irreducible(lam, p, strategy="oracle-first", cap_monomials=DEFAULT_MONOMIAL_CAP):
    """Exact dimension of the irreducible module of highest weight lam in
    characteristic p, with the per-mu breakdown.

    strategy picks where multiplicities come from: "oracle-first" uses the
    closed forms and the Weyl-multiplicity-1 shortcut, with the Gram
    engine as fallback; "gram-only" ranks every weight space; and
    "oracle-only" refuses Gram work, raising ResourceExceeded naming the
    first mu it cannot answer.
    """
    lam = tuple(lam)
    if not is_dominant(lam):
        raise ValueError("%r is not dominant" % (lam,))
    if not is_restricted(lam, p):
        raise ValueError("%r is not %d-restricted" % (lam, p))
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % (strategy,))
    terms = _dim_terms(lam, p, strategy, cap_monomials)
    value = sum(t.orbit * t.multiplicity for t in terms)
    return DimensionResult(value, terms)


# ---------------------------------------------------------------------------
# Registered table rows


@dataclass(frozen=True)
class TableRow:
    row_id: str
    table: str
    min_l: int
    max_l: object  # None or inclusive upper rank bound (side condition)
    weight_at: object
    dim_at: object

    def applicable_rank(self, l):
        return l >= self.min_l and (self.max_l is None or l <= self.max_l)


def _w(l, *pairs):
    out = [0] * l
    for pos, a in pairs:
        out[pos - 1] += a
    return tuple(out)


def _row(row_id, table, min_l, max_l, weight_at, dim_at):
    return TableRow(table + ":" + row_id, table, min_l, max_l, weight_at, dim_at)


def _build_rows():
    ep = epsilon_p
    rows = [
        # exponent-3 table
        _row("l1", "t1", 1, None, lambda l: _w(l, (1, 1)),
             lambda l, p: l + 1),
        _row("l2", "t1", 2, None, lambda l: _w(l, (2, 1)),
             lambda l, p: comb(l + 1, 2)),
        _row("2l1", "t1", 1, None, lambda l: _w(l, (1, 2)),
             lambda l, p: comb(l + 2, 2)),
        _row("l1+ll", "t1", 2, None, lambda l: _w(l, (1, 1), (l, 1)),
             lambda l, p: (l + 1) ** 2 - 1 - ep(p, l + 1)),
        _row("l3", "t1", 3, None, lambda l: _w(l, (3, 1)),
             lambda l, p: comb(l + 1, 3)),
        _row("3l1", "t1", 1, None, lambda l: _w(l, (1, 3)),
             lambda l, p: comb(l + 3, 3)),
        _row("l1+l2", "t1", 2, None, lambda l: _w(l, (1, 1), (2, 1)),
             lambda l, p: 2 * comb(l + 2, 3) - ep(p, 3) * comb(l + 1, 3)),
        _row("l1+llm1", "t1", 3, None, lambda l: _w(l, (1, 1), (l - 1, 1)),
             lambda l, p: 3 * comb(l + 2, 3) - comb(l + 2, 2) - ep(p, l) * (l + 1)),
        _row("2l1+ll", "t1", 2, None, lambda l: _w(l, (1, 2), (l, 1)),
             lambda l, p: 3 * comb(l + 2, 3) + comb(l + 1, 2) - ep(p, l + 2) * (l + 1)),
        _row("l4", "t1", 4, 28, lambda l: _w(l, (4, 1)),
             lambda l, p: comb(l + 1, 4)),
        # exponent-4 table
        _row("l4", "t2", 4, None, lambda l: _w(l, (4, 1)),
             lambda l, p: comb(l + 1, 4)),
        _row("4l1", "t2", 1, None, lambda l: _w(l, (1, 4)),
             lambda l, p: comb(l + 4, 4)),
        _row("2l2", "t2", 2, None, lambda l: _w(l, (2, 2)),
             lambda l, p: comb(l + 1, 2) ** 2 - (l + 1) * comb(l + 1, 3)
             - ep(p, 3) * comb(l + 1, 4)),
        _row("l1+l3", "t2", 3, None, lambda l: _w(l, (1, 1), (3, 1)),
             lambda l, p: 3 * comb(l + 2, 4) - ep(p, 2) * comb(l + 1, 4)),
        _row("2l1+l2", "t2", 2, None, lambda l: _w(l, (1, 2), (2, 1)),
             lambda l, p: 3 * comb(l + 3, 4)),
        _row("l1+llm2", "t2", 4, None, lambda l: _w(l, (1, 1), (l - 2, 1)),
             lambda l, p: (l - 2) * comb(l + 2, 3) - ep(p, l - 1) * comb(l + 1, 2)),
        _row("3l1+ll", "t2", 2, None, lambda l: _w(l, (1, 3), (l, 1)),
             lambda l, p: 4 * comb(l + 3, 4) + comb(l + 2, 3)
             - ep(p, l + 3) * comb(l + 2, 2)),
        _row("2l1+llm1", "t2", 3, None, lambda l: _w(l, (1, 2), (l - 1, 1)),
             lambda l, p: comb(l + 3, 2) * comb(l, 2)
             - ep(p, l + 1) * ((l + 1) ** 2 - 2)),
        # last two correction terms follow the multiplicity engine: the
        # final elementary divisor of the mu=0 block is binomial(l, 2), so
        # at p == 2 the row differs from -eps(l-1)((l+1)^2-1) - eps(l) when
        # l == 2, 3 mod 4
        _row("l2+llm1", "t2", 4, None, lambda l: _w(l, (2, 1), (l - 1, 1)),
             lambda l, p: comb(l + 1, 2) ** 2 - (l + 1) ** 2
             - ep(p, l - 1) * (l * l + 2 * l - 1) - ep(p, comb(l, 2))),
        _row("2l1+2ll", "t2", 2, None, lambda l: _w(l, (1, 2), (l, 2)),
             lambda l, p: comb(l + 2, 2) ** 2 - (l + 1) ** 2
             - ep(p, l + 3) * ((l + 1) ** 2 - 1) - ep(p, l + 2)),
        # the eps(l+2) term is suppressed when eps(3) or eps(l) also fires
        # (the mu = lambda_2 multiplicity loses one fewer than the generic
        # count then); at odd p only eps(3) can coincide
        _row("l1+l2+ll", "t2", 4, None, lambda l: _w(l, (1, 1), (2, 1), (l, 1)),
             lambda l, p: (l + 1) * (2 * comb(l + 1, 3) + l * l - 1)
             - ep(p, 3) * (l - 2) * comb(l + 2, 3)
             - ep(p, l) * comb(l + 2, 2)
             - ep(p, l + 2) * (1 - ep(p, 3) - ep(p, l)) * comb(l + 1, 2)),
        _row("l5", "t2", 5, 128, lambda l: _w(l, (5, 1)),
             lambda l, p: comb(l + 1, 5)),
        _row("l2+l3", "t2", 4, 109, lambda l: _w(l, (2, 1), (3, 1)),
             lambda l, p: comb(l + 1, 2) * comb(l + 1, 3)
             - (l + 1) * comb(l + 1, 4)
             - ep(p, 2) * comb(l + 1, 5) - 4 * ep(p, 3) * comb(l + 2, 5)),
        _row("5l1", "t2", 1, 108, lambda l: _w(l, (1, 5)),
             lambda l, p: comb(l + 5, 5)),
        _row("3l1+l2", "t2", 4, 108, lambda l: _w(l, (1, 3), (2, 1)),
             lambda l, p: 4 * comb(l + 4, 5)
             - ep(p, 5) * (3 * comb(l + 3, 5) + 2 * comb(l + 2, 4) + comb(l + 1, 3))),
        _row("l1+l4", "t2", 4, 42, lambda l: _w(l, (1, 1), (4, 1)),
             lambda l, p: 4 * comb(l + 2, 5) - ep(p, 5) * comb(l + 1, 5)),
        # rank-relaxation extras
        _row("2l1+l3", "remark", 4, 35, lambda l: _w(l, (1, 2), (3, 1)),
             lambda l, p: 6 * comb(l + 3, 5)
             - ep(p, 5) * (3 * comb(l + 2, 5) + comb(l + 1, 4))),
        _row("l6", "remark", 6, 32, lambda l: _w(l, (6, 1)),
             lambda l, p: comb(l + 1, 6)),
        _row("l1+llm3", "remark", 5, 28, lambda l: _w(l, (1, 1), (l - 3, 1)),
             lambda l, p: (l - 3) * comb(l + 2, 4) - ep(p, l - 2) * comb(l + 1, 3)),
        _row("l7", "remark", 7, 22, lambda l: _w(l, (7, 1)),
             lambda l, p: comb(l + 1, 7)),
    ]
    return tuple(rows)


TABLE_ROWS = _build_rows()
_ROWS_BY_ID = {r.row_id: r for r in TABLE_ROWS}


def table_rows(table=None):
    """The registered rows, optionally filtered to t1, t2, or remark."""
    if table is None:
        return TABLE_ROWS
    return tuple(r for r in TABLE_ROWS if r.table == table)


def table_row_dimension(row_id, l, p):
    """Closed-form dimension of one registered row at rank l in
    characteristic p, or NOT_APPLICABLE outside the row's index range or
    side condition.

    row_id is either fully qualified ("t1:l4", "t2:l4", "remark:l7") or
    bare ("l1+l2+ll"), in which case the first match in t1, t2, remark
    order wins.
    """
    row = _ROWS_BY_ID.get(row_id)
    if row is None:
        for r in TABLE_ROWS:
            if r.row_id.split(":", 1)[1] == row_id:
                row = r
                break
    if row is None:
        raise KeyError("unknown table row %r" % (row_id,))
    if not row.applicable_rank(l):
        return NOT_APPLICABLE
    return row.dim_at(l, p)


# ---------------------------------------------------------------------------
# Pruned enumeration


def _fold_pair(weight):
    """The representative kept under duality: the lexicographically
    greater of the weight and its mirror image."""
    dual = dual_weight(weight)
    return weight if weight >= dual else dual


def enumerate_small_irreducibles(l, p, s, strategy="oracle-first",
                                 cap_monomials=DEFAULT_MONOMIAL_CAP, threads=1):
    """All nonzero p-restricted dominant weights with dim L <= (l+1)^s,
    reported up to duality.

    Depth-first search over coefficient vectors, position by position.
    Each weight is checked once against the Premet lower bound (the orbit
    sum over the dominant weights of V(lambda), all of which occur in
    L(lambda) for restricted lambda).  The child with coefficient 0 at a
    position is its parent's own weight, so it inherits the parent's
    verdict without a second check.  The bound only grows with each
    coefficient, since Pi(lambda + omega_i) contains Pi(lambda) + omega_i;
    so for a = 1, ..., p-1 the loop stops at the first pruned child, as
    every larger coefficient would be pruned too, and its cost does not
    grow with p.  visited_count is the number of bound checks, one per
    weight reached, the zero weight excluded; pruned_count is the number
    of checks that failed, at most one per position of each prefix.

    The surviving weights are evaluated one after the other: threads is
    accepted for compatibility and echoed by the CLI, but evaluation is
    sequential, since a thread pool gains nothing on this pure-Python
    work under the GIL.
    """
    cap = (l + 1) ** s
    visited = 0
    pruned = 0
    candidates = []
    coeffs = [0] * l

    def walk(pos):
        # coeffs already passed the bound; extend it at pos, pos+1, ...
        nonlocal visited, pruned
        if pos == l:
            if any(coeffs):
                candidates.append(tuple(coeffs))
            return
        walk(pos + 1)
        for a in range(1, p):
            coeffs[pos] = a
            visited += 1
            if premet_bound_exceeds(tuple(coeffs), cap):
                pruned += 1
                break
            walk(pos + 1)
        coeffs[pos] = 0

    walk(0)

    results = []
    for w in candidates:
        dual = dual_weight(w)
        if w < dual:
            continue
        terms = _dim_terms(w, p, strategy, cap_monomials, cap_value=cap)
        if terms is not None:
            dim = sum(t.orbit * t.multiplicity for t in terms)
            results.append(ReportEntry(w, dual, dim, terms))

    entries = sorted(results, key=lambda e: (e.dim, e.weight))
    return ClassificationReport(l, p, s, cap, tuple(entries), visited, pruned)


def brute_force_small(l, p, s, strategy="oracle-first",
                      cap_monomials=DEFAULT_MONOMIAL_CAP):
    """Exhaustive scan of the whole restricted box, no tree pruning; the
    independent answer the depth-first search is checked against."""
    cap = (l + 1) ** s
    out = []
    box = [0] * l

    def weights():
        def rec(pos):
            if pos == l:
                w = tuple(box)
                if any(w):
                    yield w
                return
            for a in range(p):
                box[pos] = a
                yield from rec(pos + 1)
            box[pos] = 0
        yield from rec(0)

    for w in weights():
        if w < dual_weight(w):
            continue
        terms = _dim_terms(w, p, strategy, cap_monomials, cap_value=cap)
        if terms is None:
            continue
        dim = sum(t.orbit * t.multiplicity for t in terms)
        out.append((w, dim))
    out.sort(key=lambda e: (e[1], e[0]))
    return out


# ---------------------------------------------------------------------------
# Table verification


@dataclass(frozen=True)
class TableCheck:
    matched: tuple   # (row_id, folded weight, dimension)
    missing: tuple   # (row_id, folded weight, formula dimension)
    extra: tuple     # (weight, dimension) enumerated but unclaimed
    report: ClassificationReport

    def to_dict(self):
        return {
            "matched": [
                {"row": rid, "weight": format_weight(w), "dim": str(d)}
                for rid, w, d in self.matched
            ],
            "missing": [
                {"row": rid, "weight": format_weight(w), "dim": str(d)}
                for rid, w, d in self.missing
            ],
            "extra": [
                {"weight": format_weight(w), "dim": str(d)} for w, d in self.extra
            ],
            "report": self.report.to_dict(),
        }


def verify_tables(l, p, s, strategy="oracle-first",
                  cap_monomials=DEFAULT_MONOMIAL_CAP, threads=1):
    """Compare the pruned enumeration against the registered rows.

    A row is in play when its rank range and side condition hold, its
    weight is p-restricted, and its formula value fits under (l+1)^s; the
    exponent picks the row set (t1 for s <= 3, all rows for s >= 4).
    Weights are folded to the duality representative before matching.
    """
    report = enumerate_small_irreducibles(
        l, p, s, strategy=strategy, cap_monomials=cap_monomials, threads=threads)
    found = {e.weight: e.dim for e in report.entries}
    cap = (l + 1) ** s

    matched = []
    missing = []
    claimed = set()
    for row in TABLE_ROWS:
        if row.table != "t1" and s < 4:
            continue
        if not row.applicable_rank(l):
            continue
        w = row.weight_at(l)
        if not is_restricted(w, p):
            continue
        value = row.dim_at(l, p)
        if value > cap:
            continue
        rep = _fold_pair(w)
        if rep in found and found[rep] == value:
            matched.append((row.row_id, rep, value))
            claimed.add(rep)
        else:
            missing.append((row.row_id, rep, value))
    extra = [(w, d) for w, d in sorted(found.items()) if w not in claimed]
    return TableCheck(tuple(matched), tuple(missing), tuple(extra), report)
