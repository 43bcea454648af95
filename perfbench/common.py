"""Shared helpers: locating the package under test, and the independent
formulas the correctness checks compare it against.

Nothing here imports typea_irreps; the formulas are written from their
definitions so that a check never asks the code under test to grade
itself.
"""

import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class MissingPackage(Exception):
    pass


def use_checkout_package():
    """Put the checkout's src/ first on sys.path; refuse to run against
    any other installed copy of the package."""
    pkg = os.path.join(SRC, "typea_irreps", "__init__.py")
    if not os.path.isfile(pkg):
        raise MissingPackage("no package source at %s" % pkg)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import typea_irreps

    got = os.path.realpath(os.path.dirname(typea_irreps.__file__))
    if got != os.path.realpath(os.path.dirname(pkg)):
        raise MissingPackage("typea_irreps imported from %s, not the checkout" % got)


def multinomial_orbit_size(mu):
    """|W.mu| for dominant mu: (l+1)! over the factorials of the runs of
    equal epsilon coordinates."""
    l = len(mu)
    eps = [sum(mu[m:]) for m in range(l)] + [0]
    out = math.factorial(l + 1)
    run = 1
    for a, b in zip(eps, eps[1:]):
        if a == b:
            run += 1
        else:
            out //= math.factorial(run)
            run = 1
    return out // math.factorial(run)


def weyl_dimension_product(lam):
    """Weyl's dimension formula, prod over positive roots of
    <lam + rho, alpha> / <rho, alpha>, in epsilon coordinates."""
    l = len(lam)
    shifted = [sum(lam[m:]) + (l - m) for m in range(l)] + [0]
    num = Fraction(1)
    for i in range(l + 1):
        for j in range(i + 1, l + 1):
            num *= Fraction(shifted[i] - shifted[j], j - i)
    assert num.denominator == 1
    return int(num)


@lru_cache(maxsize=None)
def kostant_size(c):
    """Number of multisets of positive roots (intervals) of A_l summing to
    the root-lattice vector c: the size of the spanning set of lowering
    monomials.  Intervals starting at the first node have tail counts
    t_2 >= t_3 >= ... bounded by c_1 and by each c_k."""
    if len(c) <= 1:
        return 1
    first, rest = c[0], c[1:]
    total = 0
    acc = []

    def rec(k, bound):
        nonlocal total
        if k == len(rest):
            total += kostant_size(tuple(acc))
            return
        for t in range(min(bound, rest[k]) + 1):
            acc.append(rest[k] - t)
            rec(k + 1, t)
            acc.pop()

    rec(0, first)
    return total


def contraction_kernel(l, k):
    """Kernel of V (x) wedge^k V -> wedge^(k+1) V, a surjection:
    (l+1) C(l+1, k) - C(l+1, k+1)."""
    return (l + 1) * math.comb(l + 1, k) - math.comb(l + 1, k + 1)


def root_content(lam, mu):
    """lam - mu in simple-root coordinates (assumed in the root lattice)."""
    l = len(lam)
    diff = [a - b for a, b in zip(lam, mu)]
    eps = [sum(diff[m:]) for m in range(l)] + [0]
    t = sum(eps) // (l + 1)
    out = []
    partial = 0
    for i in range(l):
        partial += eps[i]
        out.append(partial - (i + 1) * t)
    return tuple(out)
