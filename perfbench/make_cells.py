#!/usr/bin/env python3
"""Regenerate perfbench/cells.json, the frozen pool of multiplicity cells
that the gram-rank and query-mix workloads sample from.

A cell is (lam, mu, p) with lam p-restricted at rank 4..9, supported on
two or three of the end nodes 1, 2, l-1, l with at most 1 on nodes 2
and l-1 and coefficient sum at most 4, and mu a dominant weight below lam with
Weyl multiplicity at least 2 and at most 12000 spanning monomials.  Cells
with no closed form (oracle_multiplicity gives NO_PATTERN) go to "gram";
the others, up to 40 monomials, go to "closed".  Heavier highest weights
(a coefficient of 2 or more on a middle node, or on nodes 2 and l-1) put
single cells past a minute on the streamed rank path, which no run length
here can absorb; support on all four end nodes costs up to 6 s a cell.

The pool is frozen so that the inputs do not move when a later change
widens the closed-form catalogue.  Run from the repository root:

    python3 perfbench/make_cells.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, kostant_size, root_content, use_checkout_package  # noqa: E402

CHARS = (2, 3, 5, 7)
RANKS = range(4, 10)
MAX_MONOMIALS = 12000
MAX_CLOSED_MONOMIALS = 40


def family(l, p):
    for a1 in range(p):
        for al in range(p):
            for a2 in range(2):
                for alm1 in range(2):
                    lam = [0] * l
                    lam[0] += a1
                    lam[l - 1] += al
                    lam[1] += a2
                    lam[l - 2] += alm1
                    if max(lam) >= p or sum(lam) > 4:
                        continue
                    if sum(1 for a in lam if a) not in (2, 3):
                        continue
                    yield tuple(lam)


def main():
    use_checkout_package()
    from typea_irreps.freudenthal import weyl_multiplicity_table
    from typea_irreps.multiplicity_oracles import NO_PATTERN, oracle_multiplicity

    pool = {"gram": [], "closed": []}
    for l in RANKS:
        for p in CHARS:
            for lam in sorted(set(family(l, p))):
                for mu, weyl in sorted(weyl_multiplicity_table(lam).items()):
                    if weyl < 2:
                        continue
                    size = kostant_size(root_content(lam, mu))
                    if size > MAX_MONOMIALS:
                        continue
                    kind = "gram" if oracle_multiplicity(lam, mu, p) is NO_PATTERN else "closed"
                    if kind == "closed" and size > MAX_CLOSED_MONOMIALS:
                        continue
                    pool[kind].append({"lam": list(lam), "mu": list(mu), "p": p,
                                       "monomials": size, "weyl": weyl})
    path = os.path.join(BENCH_DIR, "cells.json")
    with open(path, "w") as fh:
        # one cell per line keeps the file diffable
        fh.write("{\n")
        for n, kind in enumerate(sorted(pool)):
            fh.write('"%s": [\n' % kind)
            fh.write(",\n".join(json.dumps(c, sort_keys=True) for c in pool[kind]))
            fh.write("\n]%s\n" % ("," if n + 1 < len(pool) else ""))
        fh.write("}\n")
    print("wrote %s: %d gram cells, %d closed-form cells"
          % (path, len(pool["gram"]), len(pool["closed"])))


if __name__ == "__main__":
    main()
