"""Weyl orbit sizes, subdominant weights, and the Premet lower bound."""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from .root_system import epsilon_coordinates, is_dominant


def orbit_size(mu):
    """|W.mu| = (l+1)! / (i_1! (i_2-i_1)! ... (l+1-i_N)!) over the support
    gaps of mu.  Raises ValueError unless mu is dominant."""
    if not is_dominant(mu):
        raise ValueError("orbit_size needs a dominant weight, got %r" % (mu,))
    l = len(mu)
    idx = [0] + [i + 1 for i, a in enumerate(mu) if a != 0] + [l + 1]
    out = math.factorial(l + 1)
    for a, b in zip(idx, idx[1:]):
        out //= math.factorial(b - a)
    return out


def _subdominant_eps_rows(lam):
    """Yield the canonical epsilon rows of every dominant mu <= lam.

    Canonical form: weakly decreasing non-negative integers of length l+1
    whose partial sums stay below those of epsilon_coordinates(lam), with
    equal totals.  mu <= lam in dominance order is exactly majorization of
    these rows.
    """
    v = epsilon_coordinates(lam)
    n = sum(v)
    m = len(v)
    vpartial = [0] * (m + 1)
    for i, x in enumerate(v):
        vpartial[i + 1] = vpartial[i] + x
    row = [0] * m

    def fill(pos, used):
        if pos == m:
            if used == n:
                yield tuple(row)
            return
        prev = row[pos - 1] if pos else n
        hi = min(prev, vpartial[pos + 1] - used)
        remaining_slots = m - pos - 1
        for w in range(hi, -1, -1):
            # the tail must be fillable: weakly decreasing, total exact
            rest = n - used - w
            if rest < 0 or rest > w * remaining_slots:
                continue
            row[pos] = w
            yield from fill(pos + 1, used + w)

    yield from fill(0, 0)


def _eps_row_to_weight(row):
    return tuple(row[i] - row[i + 1] for i in range(len(row) - 1))


def subdominant_weights(lam, proper=False):
    """All dominant mu with mu <= lam, lam itself included unless
    proper=True.  Sorted lexicographically on coefficient tuples."""
    if not is_dominant(lam):
        raise ValueError("subdominant_weights needs a dominant weight")
    out = [_eps_row_to_weight(r) for r in _subdominant_eps_rows(lam)]
    if proper:
        out = [w for w in out if w != lam]
    out.sort()
    return out


def premet_lower_bound(lam):
    """Sum of orbit sizes over all subdominant weights of lam, lam included."""
    return sum(orbit_size(mu) for mu in subdominant_weights(lam))


def premet_bound_exceeds(lam, cap):
    """True iff premet_lower_bound(lam) > cap, stopping as soon as the
    partial sum passes cap.

    Walks the canonical epsilon rows of _subdominant_eps_rows (same
    majorization bounds) in one recursion that carries the length of the
    current run of equal entries and the product of the factorials of the
    runs already closed, so each row adds its orbit size (l+1)!/prod(run!)
    without building a weight.  A tail with one completion closes in one
    step: all zero, all equal to the entry before it, or ones then zeros
    after an entry 1 (these tails keep the partial sums below lam's, as
    the entries of lam's row fall weakly).  The loop over the next entry w
    breaks once the rest no longer fits below w, as it only gets worse as
    w falls.
    """
    m = len(lam) + 1
    # below[k] = sum of the epsilon row of lam from entry k on; that row is
    # the suffix sums of lam, so below is their suffix sums (and a final 0)
    below = list(accumulate(accumulate(reversed(lam)), initial=0))[::-1] + [0]
    fact = list(accumulate(range(1, m + 1), mul, initial=1))
    full = fact[m]
    acc = 0

    def fill(pos, rest, prev, run, closed):
        # the row so far leaves rest to place and ends in a run of `run`
        # entries equal to prev; closed is the product of the factorials of
        # the earlier runs
        nonlocal acc
        slots = m - pos - 1
        hi = rest - below[pos + 1]  # majorization: partial sums stay below lam's
        if hi > prev:
            hi = prev
        for w in range(hi, 0, -1):
            tail = rest - w
            if tail > w * slots:
                break
            if w == prev:
                r, c = run + 1, closed
            else:
                r, c = 1, closed * fact[run]
            if tail == w * slots:  # the tail repeats w
                acc += full // (c * fact[r + slots])
            elif tail == 0 or w == 1:  # the tail is `tail` ones, then zeros
                acc += full // (c * fact[r + tail] * fact[slots - tail])
            elif fill(pos + 1, tail, w, r, c):
                return True
            if acc > cap:
                return True
        return False

    if not below[0]:
        return 1 > cap  # the zero weight: one row, orbit 1
    return fill(0, below[0], below[0], 0, 1)
