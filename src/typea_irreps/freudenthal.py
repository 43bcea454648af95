"""Characteristic-zero weight multiplicities via Freudenthal's recursion,
plus the Weyl dimension formula as an independent cross-check.

All arithmetic is on integer epsilon rows normalized to a common
coordinate total, so the recursion never touches rationals until the
final exact division, which raises ArithmeticError if it leaves a remainder.
"""

from __future__ import annotations

from fractions import Fraction

from .root_system import epsilon_coordinates, is_dominant, root_coordinates
from .weyl_orbits import _eps_row_to_weight, _subdominant_eps_rows

_TABLES = {}


def _freudenthal_table(lam):
    """Map from canonical epsilon row of each dominant mu <= lam to the
    Weyl-module multiplicity m_{V(lam)}(mu).  Memoized per lam.

    Freudenthal's sum runs over the positive roots e_i - e_j (i < j), and
    the term of a root depends only on the values row[i] >= row[j], since
    m(mu + k alpha) is W-invariant.  So the row is grouped into runs of
    equal values (v_a, c_a), each pair of runs a <= b is visited once, and
    its term is weighted by the c_a * c_b roots it stands for, or by
    C(c_a, 2) when a = b: O(d^2) pairs for d distinct values instead of
    l(l+1)/2 roots.
    """
    lam = tuple(lam)
    got = _TABLES.get(lam)
    if got is not None:
        return got
    l = len(lam)
    m = l + 1
    rows = list(_subdominant_eps_rows(lam))
    vrow = epsilon_coordinates(lam)
    rho_eps = tuple(range(l, -1, -1))

    def hgt(row):
        # sum of simple-root coordinates of lam - mu, via partial sums
        acc = 0
        partial = 0
        for a, b in zip(vrow[:-1], row[:-1]):
            partial += a - b
            acc += partial
        return acc

    # ascending height of lam - mu: every m_{mu + k alpha} is ready in time
    order = sorted(rows, key=lambda r: (hgt(r), r))
    lam_shift = [a + b for a, b in zip(vrow, rho_eps)]
    lam_norm = sum(x * x for x in lam_shift)
    table = {}
    for row in order:
        if row == vrow:
            table[row] = 1
            continue
        mu_shift = [a + b for a, b in zip(row, rho_eps)]
        denom = lam_norm - sum(x * x for x in mu_shift)
        if denom <= 0:
            raise ArithmeticError("Freudenthal denominator %d at %r, %r"
                                  % (denom, lam, row))
        runs = []  # (value, first position, length), values descending
        start = 0
        for i in range(1, m + 1):
            if i == m or row[i] != row[start]:
                runs.append((row[start], start, i - start))
                start = i
        total = 0
        for a, (va, i, ca) in enumerate(runs):
            for vb, jstart, cb in runs[a:]:
                roots = ca * (ca - 1) // 2 if jstart == i else ca * cb
                if not roots:
                    continue
                # raise the first entry of run a, lower the last of run b
                j = jstart + cb - 1
                shifted = list(row)
                part = 0
                k = 1
                while True:
                    shifted[i] = va + k
                    shifted[j] = vb - k
                    mult = table.get(tuple(sorted(shifted, reverse=True)))
                    if mult is None:
                        break
                    part += mult * (va - vb + 2 * k)
                    k += 1
                total += roots * part
        if (2 * total) % denom:
            raise ArithmeticError("Freudenthal multiplicity not integral at %r, %r"
                                  % (lam, row))
        table[row] = (2 * total) // denom
    _TABLES[lam] = table
    return table


def weyl_multiplicity_table(lam):
    """Weight-coefficient tuple -> multiplicity in V(lam), over all
    dominant mu <= lam."""
    return {_eps_row_to_weight(r): v for r, v in _freudenthal_table(lam).items()}


def weyl_multiplicity(lam, mu):
    """Multiplicity of mu in the Weyl module V(lam); characteristic-free.

    Raises ValueError unless mu is dominant and subdominant to lam.
    """
    if not is_dominant(mu):
        raise ValueError("weyl_multiplicity needs dominant mu, got %r" % (mu,))
    if root_coordinates(lam, mu) is None:
        raise ValueError("%r is not subdominant to %r" % (mu, lam))
    diff = [a - b for a, b in zip(epsilon_coordinates(lam), epsilon_coordinates(mu))]
    t = sum(diff) // len(diff)
    key = tuple(x + t for x in epsilon_coordinates(mu))
    return _freudenthal_table(lam)[key]


def weyl_dimension(lam):
    """Product formula: prod over intervals [i,j] of (a_i+...+a_j + j-i+1)/(j-i+1)."""
    if not is_dominant(lam):
        raise ValueError("weyl_dimension needs a dominant weight")
    l = len(lam)
    out = Fraction(1)
    for i in range(l):
        acc = 0
        for j in range(i, l):
            acc += lam[j]
            out *= Fraction(acc + j - i + 1, j - i + 1)
    if out.denominator != 1:
        raise ArithmeticError("Weyl dimension of %r not integral: %s" % (lam, out))
    return int(out)


def dominant_conjugate(weight):
    """The dominant W-conjugate of an arbitrary integer weight."""
    eps = epsilon_coordinates(weight)
    srt = sorted(eps, reverse=True)
    return tuple(srt[i] - srt[i + 1] for i in range(len(weight)))
