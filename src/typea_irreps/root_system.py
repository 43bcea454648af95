"""Combinatorics of the A_l root datum.

Weights are plain integer tuples (a_1, ..., a_l) of coefficients on the
fundamental weights.  Root-lattice elements are integer tuples
(c_1, ..., c_l) of coefficients on, and positive roots are intervals
(i, j) standing for, alpha_i + ... + alpha_j.

Epsilon coordinates use the (l+1)-dimensional realization without
projecting out the trace: lambda_k maps to e_1 + ... + e_k.  For pairings
where at least one argument lies in the root lattice the trace component
cancels, so inner products of roots with anything are exact as plain dot
products.
"""

from __future__ import annotations


def rank_of(weight):
    return len(weight)


def is_dominant(weight):
    return all(a >= 0 for a in weight)


def is_restricted(weight, p):
    """True iff 0 <= a_i < p for every coefficient."""
    return all(0 <= a < p for a in weight)


def support(weight):
    """1-based indices of the nonzero coefficients, ascending."""
    return [i + 1 for i, a in enumerate(weight) if a != 0]


def dual_weight(weight):
    return tuple(reversed(weight))


def rho(l):
    return (1,) * l


def positive_roots(l):
    """All intervals (i, j), 1 <= i <= j <= l, in lexicographic order."""
    return [(i, j) for i in range(1, l + 1) for j in range(i, l + 1)]


def epsilon_coordinates(weight):
    """Length l+1 vector v with v_m = a_m + a_{m+1} + ... + a_l (v_{l+1} = 0)."""
    l = len(weight)
    out = [0] * (l + 1)
    acc = 0
    for m in range(l - 1, -1, -1):
        acc += weight[m]
        out[m] = acc
    return tuple(out)


def root_coordinates(lam, mu):
    """lam - mu in the simple-root basis, or None when that difference is
    not a non-negative integral combination of simple roots.

    Raises ValueError on rank mismatch.
    """
    if len(lam) != len(mu):
        raise ValueError("rank mismatch: %d vs %d" % (len(lam), len(mu)))
    l = len(lam)
    diff = [a - b for a, b in zip(lam, mu)]
    # eps_m(diff) = sum_{k >= m} diff_k; c_i = partial_sum_i - i*t with
    # t = (sum of eps)/(l+1); integrality of t is the root-lattice test
    eps = epsilon_coordinates(tuple(diff))
    total = sum(eps)
    if total % (l + 1) != 0:
        return None
    t = total // (l + 1)
    c = []
    partial = 0
    for i in range(l):
        partial += eps[i]
        ci = partial - (i + 1) * t
        if ci < 0:
            return None
        c.append(ci)
    return tuple(c)


def dominance_leq(mu, lam):
    """True iff lam - mu is a non-negative sum of simple roots."""
    return root_coordinates(lam, mu) is not None


def format_weight(weight):
    """Sparse text form "i1:a1,i2:a2,..." with "0" for the zero weight."""
    parts = ["%d:%d" % (i, weight[i - 1]) for i in support(weight)]
    return ",".join(parts) if parts else "0"


def parse_weight(text, l):
    """Parse the sparse form "i1:a1,..." (1-based), the dense form
    "[a1,...,al]", or "0" for the zero weight.  Raises ValueError on
    malformed input, out-of-range indices, or wrong dense length.
    """
    text = text.strip()
    if text == "0":
        return (0,) * l
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError("unterminated dense weight: %r" % text)
        body = text[1:-1].strip()
        entries = [s.strip() for s in body.split(",")] if body else []
        if len(entries) != l:
            raise ValueError("dense weight has %d entries, expected %d" % (len(entries), l))
        try:
            return tuple(int(s) for s in entries)
        except ValueError:
            raise ValueError("non-integer entry in dense weight: %r" % text)
    coeffs = [0] * l
    for part in text.split(","):
        piece = part.strip()
        if ":" not in piece:
            raise ValueError("bad sparse weight component: %r" % piece)
        istr, astr = piece.split(":", 1)
        try:
            i, a = int(istr), int(astr)
        except ValueError:
            raise ValueError("bad sparse weight component: %r" % piece)
        if not 1 <= i <= l:
            raise ValueError("index %d out of range 1..%d" % (i, l))
        coeffs[i - 1] = a
    return tuple(coeffs)
