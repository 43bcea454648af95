"""Seeded inputs of the three workloads.

Each build_* function returns the op list of one pass as plain JSON-able values;
the same seed gives the same list.  Nothing here imports typea_irreps:
the inputs never depend on the code under test.
"""

import json
import os
import random

from common import BENCH_DIR

WORKLOADS = ("classify", "gram-rank", "query-mix")
CHARS = (2, 3, 5, 7)

# classify: verify_tables cells inside the paper's theorem, plus the two
# exponent-4 cells at ranks 21 and 22 that the remark rows cover
CLASSIFY_GRID = (
    [(l, p, 3) for l in range(19, 27) for p in CHARS]
    + [(l, p, 4) for l in (36, 37) for p in CHARS]
    + [(21, 2, 4), (22, 2, 4)]
)

# gram-rank: a cell's cost barely depends on p, so every pass runs each
# (lam, mu) shape of the pool at seeded characteristics: streamed twice
# (two different p) below GRAM_TWICE_BELOW monomials, where the op
# latencies near the median lie, so that the median rests on many ops;
# streamed once up to GRAM_ANCHOR_MONOMIALS; above that one anchor shape
# per spanning-set size; and a dense op for each shape up to
# GRAM_DENSE_MAX_MONOMIALS
GRAM_TWICE_BELOW = 300
GRAM_ANCHOR_MONOMIALS = 3000
GRAM_DENSE_MAX_MONOMIALS = 120

# query-mix: distinct commands per class, and repeats of earlier commands
# per class (45% of the stream), drawn by popularity within the class.
# The rank-4 symmetrizer (about 130 ms, whatever p) is 15% of the stream,
# so the 90th percentile falls inside a class of equal-cost commands; with
# the tail on 5-15 ms commands instead, host preemption moved op_p90_ms by
# a third to a half between runs
QUERY_KINDS = (("orbit", 60, 36), ("dim", 60, 36), ("mult-gram", 10, 5),
               ("mult-closed", 20, 12), ("construct", 10, 6), ("symmetrizer", 4, 41))
QUERY_MAX_RANK = 40
MULT_GRAM_MAX_MONOMIALS = 30

# registered rows whose weight and dimension the query-mix `dim` commands
# use: (row id, weight as (node, coefficient) pairs with l standing for
# the rank, lowest rank); dimensions come from dim_classifier at check time
DIM_ROWS = (
    ("t1:l1+l2", ((1, 1), (2, 1)), 4),
    ("t1:l1+llm1", ((1, 1), ("l-1", 1)), 4),
    ("t1:2l1+ll", ((1, 2), ("l", 1)), 4),
    ("t1:l1+ll", ((1, 1), ("l", 1)), 4),
    ("t1:3l1", ((1, 3),), 4),
    ("t1:l3", ((3, 1),), 4),
    ("t2:2l2", ((2, 2),), 4),
    ("t2:l1+l3", ((1, 1), (3, 1)), 4),
    ("t2:2l1+l2", ((1, 2), (2, 1)), 4),
    ("t2:l1+llm2", ((1, 1), ("l-2", 1)), 5),
    ("t2:3l1+ll", ((1, 3), ("l", 1)), 4),
    ("t2:2l1+llm1", ((1, 2), ("l-1", 1)), 4),
    ("t2:l2+llm1", ((2, 1), ("l-1", 1)), 5),
    ("t2:2l1+2ll", ((1, 2), ("l", 2)), 4),
    ("t2:l1+l2+ll", ((1, 1), (2, 1), ("l", 1)), 4),
)

# construct commands of one pass: each name at each of its ranks, all
# within the default caps, with a seeded characteristic; fixed ranks
# because the symmetrizer's cost grows thirtyfold from rank 2 to rank 4
CONSTRUCTS = (("l1l2", (2, 4, 6, 8)), ("l1llm1", (3, 5, 7, 8)), ("2l1ll", (2, 3)))
SYMMETRIZER_RANK = 4


def load_cells():
    with open(os.path.join(BENCH_DIR, "cells.json")) as fh:
        return json.load(fh)


def _node(spec, l):
    """Node index from an int or from "l", "l-1", "l-2"."""
    if isinstance(spec, int):
        return spec
    return l if spec == "l" else l - int(spec.split("-")[1])


def row_weight(pairs, l):
    out = [0] * l
    for node, a in pairs:
        out[_node(node, l) - 1] += a
    return tuple(out)


def sparse(weight):
    parts = ["%d:%d" % (i + 1, a) for i, a in enumerate(weight) if a]
    return ",".join(parts) if parts else "0"


def build_classify(seed):
    """Every grid cell once, in a seeded order."""
    cells = [list(c) for c in CLASSIFY_GRID]
    random.Random(seed).shuffle(cells)
    return [{"kind": "verify", "l": l, "p": p, "s": s} for l, p, s in cells]


def build_gram(seed, cells=None):
    """Streamed rank ops per pool shape at seeded characteristics, one
    per anchor size, and one dense Gram + Smith form op per small shape,
    shuffled together."""
    cells = (cells or load_cells())["gram"]
    rng = random.Random(seed)
    shapes = {}
    for c in cells:
        shapes.setdefault((tuple(c["lam"]), tuple(c["mu"])), []).append(c)
    ops = []
    anchor_sizes = set()
    for shape in sorted(shapes):
        group = shapes[shape]
        size = group[0]["monomials"]
        if size >= GRAM_ANCHOR_MONOMIALS:
            if size in anchor_sizes:
                continue
            anchor_sizes.add(size)
        for cell in rng.sample(group, 2 if size < GRAM_TWICE_BELOW else 1):
            ops.append(dict(cell, kind="stream"))
        if size <= GRAM_DENSE_MAX_MONOMIALS:
            ops.append(dict(rng.choice(group), kind="dense"))
    rng.shuffle(ops)
    return ops


def _orbit_command(rng):
    l = rng.randint(4, QUERY_MAX_RANK)
    w = [0] * l
    for node in rng.sample(range(l), rng.randint(1, 3)):
        w[node] = rng.randint(1, 5)
    return {"kind": "orbit", "argv": ["orbit", "--rank", str(l), "--weight", sparse(w)],
            "l": l, "weight": w}


def _dim_command(rng):
    while True:
        row_id, pairs, lowest = rng.choice(DIM_ROWS)
        l = rng.randint(lowest, QUERY_MAX_RANK)
        p = rng.choice(CHARS)
        w = row_weight(pairs, l)
        if max(w) < p:
            break
    return {"kind": "dim", "row": row_id, "l": l, "p": p, "weight": list(w),
            "argv": ["dim", "--rank", str(l), "--char", str(p), "--weight", sparse(w)]}


def _mult_command(cell, kind):
    return {"kind": kind, "l": len(cell["lam"]), "p": cell["p"], "lam": cell["lam"],
            "mu": cell["mu"], "weyl": cell["weyl"], "monomials": cell["monomials"],
            "argv": ["mult", "--rank", str(len(cell["lam"])), "--char", str(cell["p"]),
                     "--weight", sparse(cell["lam"]), "--sub", sparse(cell["mu"])]}


def _construct_command(name, l, p):
    return {"kind": "construct", "name": name, "l": l, "p": p,
            "argv": ["construct", name, "--rank", str(l), "--char", str(p)]}


def _cost_order(op):
    """Rough cost rank of a command within its class: the spanning-set
    size for Gram cells, the symmetrizer after the contraction maps, then
    the rank."""
    return (op.get("name") == "2l1ll", op.get("monomials", 0), op["l"], op["argv"])


def build_query(seed, cells=None):
    """A closed-loop command stream of one pass.  Each class contributes
    a fixed number of distinct commands, sent cheapest first, and a
    fixed number of repeats; a repeat picks one of the class's commands
    already sent, with Zipf weights 1/(r+1) on its order r of first
    appearance.  Slots are shuffled by the seed; 45% of the stream repeats
    an earlier command."""
    pool = cells or load_cells()
    rng = random.Random(seed)
    gram = [c for c in pool["gram"] if c["monomials"] <= MULT_GRAM_MAX_MONOMIALS]
    distinct = {
        "orbit": [_orbit_command(rng) for _ in range(QUERY_KINDS[0][1])],
        "dim": [_dim_command(rng) for _ in range(QUERY_KINDS[1][1])],
        "mult-gram": [_mult_command(c, "mult-gram")
                      for c in rng.sample(gram, QUERY_KINDS[2][1])],
        "mult-closed": [_mult_command(c, "mult-closed")
                        for c in rng.sample(pool["closed"], QUERY_KINDS[3][1])],
        "construct": [_construct_command(name, l, rng.choice(CHARS))
                      for name, ranks in CONSTRUCTS for l in ranks],
        "symmetrizer": [_construct_command("2l1ll", SYMMETRIZER_RANK, p) for p in CHARS],
    }
    slots = []
    for kind, count, repeats in QUERY_KINDS:
        assert len(distinct[kind]) == count
        # the cheapest commands of a class are its most popular: with the
        # skew falling on random commands, whether a Gram cell of 100 ms
        # came first moved ops_per_s by a fifth between seeds
        distinct[kind].sort(key=_cost_order)
        slots += [(kind, False)] * count + [(kind, True)] * repeats
    rng.shuffle(slots)
    for kind in distinct:
        # each class's first slot sends a new command
        first = slots.index((kind, False))
        head = min(first, slots.index((kind, True)))
        slots[head], slots[first] = slots[first], slots[head]
    sent = {kind: 0 for kind in distinct}
    stream = []
    for kind, repeat in slots:
        if repeat:
            n = sent[kind]
            r = rng.choices(range(n), weights=[1.0 / (r + 1) for r in range(n)])[0]
            stream.append(dict(distinct[kind][r], repeat=True))
        else:
            stream.append(dict(distinct[kind][sent[kind]], repeat=False))
            sent[kind] += 1
    return stream


def build(workload, seed):
    if workload == "classify":
        return build_classify(seed)
    if workload == "gram-rank":
        return build_gram(seed)
    if workload == "query-mix":
        return build_query(seed)
    raise ValueError("unknown workload %r" % (workload,))
