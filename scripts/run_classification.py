#!/usr/bin/env python3
"""Sweep the small-dimension classification over a range of ranks.

For every (rank, characteristic) cell this runs the pruned enumeration of
p-restricted highest weights with dim L(w) <= (l+1)^s, checks it against
the registered table rows, and prints one line per cell.  Discrepancies,
if any, are listed in full after the sweep.

Typical runs:

    python scripts/run_classification.py --exp 3 --ranks 19,20
    python scripts/run_classification.py --exp 4 --ranks 21,22,36 --chars 2,3,5
    python scripts/run_classification.py --exp 3 --ranks 8-12 --json out.json
"""

import argparse
import json
import sys
import time

from typea_irreps.dim_classifier import verify_tables


def parse_int_list(text):
    """Comma-separated integers, with a-b ranges allowed."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_cell(l, p, s):
    t0 = time.time()
    check = verify_tables(l, p, s)
    report = check.report
    elapsed = time.time() - t0
    return {
        "rank": l,
        "char": p,
        "exp": s,
        "entries": [{"weight": list(e.weight), "dim": str(e.dim)}
                    for e in report.entries],
        "matched": [row_id for row_id, _, _ in check.matched],
        "missing": [[row_id, list(w), str(d)] for row_id, w, d in check.missing],
        "extra": [[list(w), str(d)] for w, d in check.extra],
        "visited": report.visited_count,
        "pruned": report.pruned_count,
        "seconds": round(elapsed, 2),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exp", type=int, default=3,
                    help="dimension bound exponent s in (l+1)^s (default 3)")
    ap.add_argument("--ranks", type=parse_int_list, default=[19, 20],
                    help="ranks to sweep, e.g. 19,20 or 8-12")
    ap.add_argument("--chars", type=parse_int_list, default=[2, 3, 5, 7],
                    help="characteristics to sweep (default 2,3,5,7)")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the full reports to this JSON file")
    args = ap.parse_args(argv)

    cells = []
    bad = []
    for l in args.ranks:
        for p in args.chars:
            cell = run_cell(l, p, args.exp)
            cells.append(cell)
            status = "ok"
            if cell["missing"] or cell["extra"]:
                status = "MISMATCH"
                bad.append(cell)
            print("l=%-3d p=%d s=%d  weights=%-3d matched=%-3d "
                  "visited=%-6d pruned=%-6d %6.2fs  %s"
                  % (l, p, args.exp, len(cell["entries"]),
                     len(cell["matched"]), cell["visited"], cell["pruned"],
                     cell["seconds"], status))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(cells, fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json)

    if bad:
        print()
        for cell in bad:
            print("MISMATCH at l=%d p=%d:" % (cell["rank"], cell["char"]))
            for row_id, w, d in cell["missing"]:
                print("  missing %s  weight=%s dim=%s" % (row_id, w, d))
            for w, d in cell["extra"]:
                print("  extra   weight=%s dim=%s" % (w, d))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
