"""Spanning monomials, tableau bases, the contravariant form, and
modular weight multiplicities.

Monomials are divided-power products of lowering operators over the
positive roots in lexicographic interval order.  Applied to the highest
weight vector, the monomials of content lam - mu (one per Kostant
partition) span the mu weight space of the Weyl module's Z-form.  The
bilinear form is evaluated two ways: by explicit straightening against
the Chevalley commutation relations, or inside a tensor realization
built from exterior powers of the natural module, whose standard basis
is orthonormal for the contravariant pairing.  Both give the same
integer Gram matrix; the test suite cross-checks them.

The multiplicity of mu in the irreducible head of the Weyl module is
the rank mod p of the form on that Z-lattice.  Carter and Lusztig (Math.
Z. 136, 1974) give a Z-basis of the Weyl module indexed by the
semistandard tableaux of shape lam: the mu weight space has one vector
f_T per tableau of content mu, as many as the Weyl multiplicity.  A
Gram matrix on a Z-basis of the lattice has the same nonzero elementary
divisors as the Gram matrix on any spanning set of it, so its rank mod
p is the multiplicity for every p, and the work follows the Weyl
multiplicity instead of the Kostant count.  The test suite checks the
basis against the full spanning set's Smith form.

Chevalley basis: e_(i,j) is the elementary matrix E_{i,j+1}, f_(i,j) is
E_{j+1,i}, and coroots are the commutators; every sign below comes from
those matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .root_system import epsilon_coordinates, positive_roots, root_coordinates

DEFAULT_MONOMIAL_CAP = 20000
_DENSE_CAP = 4000

# Miller-Rabin with the first thirteen primes as bases is deterministic
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


class ResourceExceeded(Exception):
    """A spanning set, tableau basis or matrix passed its configured cap."""

    def __init__(self, message, blocking=None):
        super().__init__(message)
        self.blocking = blocking


def require_prime(p):
    """Raise ValueError unless p is a prime below PRIME_BOUND."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("characteristic %r is not prime" % (p,))
    if p >= PRIME_BOUND:
        raise ValueError("cannot tell whether characteristic %d is prime: the "
                         "test is deterministic only below %d" % (p, PRIME_BOUND))
    if p in _PRIME_BASES:
        return
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("characteristic %r is not prime" % (p,))


# ---------------------------------------------------------------------------
# Kostant partitions


def kostant_count(c, cap=None):
    """Number of multisets of interval roots summing to c; saturates at
    cap+1 when cap is given."""
    l = len(c)
    roots = positive_roots(l)
    nroots = len(roots)
    rem = list(c)
    count = 0

    def rec(idx, total):
        nonlocal count
        if cap is not None and count > cap:
            return
        if total == 0:
            count += 1
            return
        if idx == nroots:
            return
        i, j = roots[idx]
        # roots run in lexicographic order: once those starting at i-1
        # are spent nothing clears rem[i-2], and the coordinates before it
        # were checked at the first root of their own start
        if i == j and i > 1 and rem[i - 2]:
            return
        smax = min(rem[i - 1:j])
        if not smax:
            # every later root (i, j') covers the same spent coordinate:
            # go straight to the first root starting at i+1
            rec(idx + l - j + 1, total)
            return
        rec(idx + 1, total)
        for s in range(1, smax + 1):
            for k in range(i - 1, j):
                rem[k] -= 1
            rec(idx + 1, total - s * (j - i + 1))
        for k in range(i - 1, j):
            rem[k] += smax

    if any(x < 0 for x in c):
        raise ValueError("negative root coordinates: %r" % (c,))
    rec(0, sum(c))
    return count if cap is None else min(count, cap + 1)


def monomials_for_vector(c, cap=None):
    """All divided-power monomials with root content c.

    A monomial is a tuple of ((i, j), exponent) factors with roots in
    ascending lexicographic order.  Output order is deterministic:
    depth-first over roots with ascending exponents.  Raises
    ResourceExceeded past cap.
    """
    l = len(c)
    if any(x < 0 for x in c):
        raise ValueError("negative root coordinates: %r" % (c,))
    roots = positive_roots(l)
    nroots = len(roots)
    rem = list(c)
    out = []
    factors = []

    def rec(idx, total):
        if cap is not None and len(out) > cap:
            return
        if total == 0:
            out.append(tuple(factors))
            return
        if idx == nroots:
            return
        i, j = roots[idx]
        if i == j and i > 1 and rem[i - 2]:  # as in kostant_count
            return
        smax = min(rem[i - 1:j])
        if not smax:  # as in kostant_count
            rec(idx + l - j + 1, total)
            return
        rec(idx + 1, total)
        for s in range(1, smax + 1):
            for k in range(i - 1, j):
                rem[k] -= 1
            factors.append((roots[idx], s))
            rec(idx + 1, total - s * (j - i + 1))
            factors.pop()
        for k in range(i - 1, j):
            rem[k] += smax

    rec(0, sum(c))
    if cap is not None and len(out) > cap:
        raise ResourceExceeded(
            "spanning set larger than cap %d for content %r" % (cap, tuple(c)))
    return out


def tableau_monomials(lam, mu, cap=None):
    """One divided-power monomial f_T per semistandard tableau T of shape
    lam and content mu: f_T is the product of f_(i,j)^(t_ij) over roots in
    ascending lexicographic order, where t_ij counts the entries j+1 in
    row i of T.

    Tableaux are built from the outer shape inward, stripping off the
    largest remaining entry as a horizontal strip (a Gelfand-Tsetlin
    pattern).  A shape of k rows is kept only when it dominates the sorted
    content of the entries 1..k, the condition for a tableau of that shape
    and content to exist, so every partial pattern completes.  Raises
    ValueError when mu is not subdominant to lam, ResourceExceeded past
    cap.
    """
    c = root_coordinates(lam, mu)
    if c is None:
        raise ValueError("%r is not subdominant to %r" % (mu, lam))
    shape = epsilon_coordinates(lam)
    c = (0,) + c + (0,)
    content = [shape[k] - c[k + 1] + c[k] for k in range(len(shape))]
    if min(content) < 0:
        return []
    # floors[k][i]: the i+1 largest of content[:k] summed, the least that
    # rows 1..i+1 of a k-row shape holding entries 1..k can contain
    floors = []
    for k in range(len(shape)):
        acc, sums = 0, []
        for x in sorted(content[:k], reverse=True):
            acc += x
            sums.append(acc)
        floors.append(sums)
    out = []
    factors = []

    def inner_shapes(k, nu):
        # the shapes x of the entries < k inside nu, the shape of the
        # entries <= k: x interlaces nu and holds content[:k-1]
        total, floor = sum(content[:k - 1]), floors[k - 1]
        suffix = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] + nu[i]
        shapes = []
        x = [0] * (k - 1)

        def row(i, acc):
            if i == k - 1:
                shapes.append(tuple(x))
                return
            # the rows after i hold between suffix[i+2] and
            # suffix[i+1] - nu[k-1] cells
            lo = max(nu[i + 1], floor[i] - acc, total - acc - suffix[i + 1] + nu[k - 1])
            hi = min(nu[i], total - acc - suffix[i + 2])
            for xi in range(lo, hi + 1):
                x[i] = xi
                row(i + 1, acc + xi)

        row(0, 0)
        return shapes

    def strip(k, nu):
        if k == 1:
            if cap is not None and len(out) >= cap:
                raise ResourceExceeded(
                    "tableau basis for mu=%r larger than cap %d" % (tuple(mu), cap),
                    blocking=tuple(mu))
            out.append(tuple(sorted(factors)))
            return
        for x in inner_shapes(k, nu):
            # row i+1 keeps nu[i] - x[i] entries k: the root (i+1, k-1)
            added = [((i + 1, k - 1), nu[i] - xi) for i, xi in enumerate(x) if nu[i] > xi]
            factors.extend(added)
            strip(k - 1, x)
            del factors[len(factors) - len(added):]

    strip(len(shape), shape)
    return out


def spanning_monomials(lam, mu, cap=None):
    """Spanning monomials of the mu weight space under lam; content is
    lam - mu in root coordinates.  Raises ValueError when mu is not
    subdominant to lam."""
    c = root_coordinates(lam, mu)
    if c is None:
        raise ValueError("%r is not subdominant to %r" % (mu, lam))
    return monomials_for_vector(c, cap)


# ---------------------------------------------------------------------------
# Structure constants


def _bracket_ef(alpha, beta):
    """[e_alpha, f_beta] as a tagged value: ('h', alpha), ('e', gamma, sign),
    ('f', gamma, sign), or None."""
    a, b = alpha
    c, d = beta
    if alpha == beta:
        return ("h", alpha, 1)
    if b == d:
        if a < c:
            return ("e", (a, c - 1), 1)
        return ("f", (c, a - 1), 1)
    if a == c:
        if d < b:
            return ("e", (d + 1, b), -1)
        return ("f", (b + 1, d), -1)
    return None


def _coroot_pairing(weight, alpha):
    """<weight, alpha-check> for an interval coroot: sum of coefficients."""
    a, b = alpha
    return sum(weight[a - 1:b])


def _root_coroot_pairing(beta, alpha):
    """<beta, alpha-check> for two interval roots."""
    a, b = alpha
    c, d = beta
    out = 0
    if a == c:
        out += 1
    if a == d + 1:
        out -= 1
    if b == c - 1:
        out -= 1
    if b == d:
        out += 1
    return out


# ---------------------------------------------------------------------------
# Straightening evaluator


def _monomial_to_word(mon):
    out = []
    for beta, s in mon:
        out.extend([beta] * s)
    return tuple(out)


def _monomial_factorial(mon):
    out = 1
    for _, s in mon:
        out *= math.factorial(s)
    return out


class GramEngine:
    """Contravariant-form evaluator for one highest weight, by explicit
    commutation of raising operators through lowering words."""

    def __init__(self, lam):
        self.lam = tuple(lam)
        self.l = len(lam)
        self._e_memo = {}

    def apply_e(self, alpha, word):
        """e_alpha applied to the plain word acting on the highest vector:
        dict word -> integer coefficient."""
        key = (alpha, word)
        got = self._e_memo.get(key)
        if got is not None:
            return got
        out = {}
        if word:
            beta, rest = word[0], word[1:]
            for w, cf in self.apply_e(alpha, rest).items():
                w2 = (beta,) + w
                out[w2] = out.get(w2, 0) + cf
            br = _bracket_ef(alpha, beta)
            if br is not None:
                kind, gamma, sign = br
                if kind == "h":
                    scal = _coroot_pairing(self.lam, alpha)
                    for b2 in rest:
                        scal -= _root_coroot_pairing(b2, alpha)
                    if scal:
                        out[rest] = out.get(rest, 0) + scal
                elif kind == "f":
                    w2 = (gamma,) + rest
                    out[w2] = out.get(w2, 0) + sign
                else:
                    for w, cf in self.apply_e(gamma, rest).items():
                        out[w] = out.get(w, 0) + sign * cf
        out = {w: cf for w, cf in out.items() if cf}
        self._e_memo[key] = out
        return out

    def form_entry(self, vmon, wmon):
        """a_{v,w}: coefficient of the highest vector after the reversed
        divided raising word of v hits w applied to the highest vector."""
        state = {_monomial_to_word(wmon): 1}
        for beta, s in vmon:
            for _ in range(s):
                nxt = {}
                for w, cf in state.items():
                    for w2, cf2 in self.apply_e(beta, w).items():
                        nxt[w2] = nxt.get(w2, 0) + cf * cf2
                state = {w: cf for w, cf in nxt.items() if cf}
                if not state:
                    break
        num = state.get((), 0)
        den = _monomial_factorial(vmon) * _monomial_factorial(wmon)
        if num % den:
            raise ArithmeticError("form entry %d not divisible by %d at %r, %r, %r"
                                  % (num, den, self.lam, vmon, wmon))
        return num // den


# ---------------------------------------------------------------------------
# Tensor realization

_WEDGE_CACHE = {}


def _wedge_move(subset, i, t):
    """Replace index i by t in a sorted tuple, with the sign of re-sorting;
    None when impossible (i absent or t present)."""
    key = (subset, i, t)
    got = _WEDGE_CACHE.get(key)
    if got is None:
        if i not in subset or t in subset:
            got = (None, 0)
        else:
            lo, hi = (i, t) if i < t else (t, i)
            sign = -1 if sum(1 for x in subset if lo < x < hi) % 2 else 1
            newset = tuple(sorted([x for x in subset if x != i] + [t]))
            got = (newset, sign)
        _WEDGE_CACHE[key] = got
    return got


class TensorRealization:
    """Model of the cyclic highest-weight span inside a tensor product of
    exterior powers: one wedge-power factor per unit of each fundamental
    coefficient.  An element is a tuple of factor groups, one per nonzero
    coefficient a_k, each an ordered tuple of a_k sorted k-subsets."""

    def __init__(self, lam):
        self.lam = tuple(lam)

    def top_row(self):
        return epsilon_coordinates(self.lam)

    def top_element(self):
        return tuple((tuple(range(1, k + 1)),) * a for k, a in enumerate(self.lam, 1) if a)

    def moves(self, root, element):
        """One lowering step: list of (element', coeff)."""
        i, j = root
        t = j + 1
        out = []
        for g, part in enumerate(element):
            for pos, sub in enumerate(part):
                newset, sign = _wedge_move(sub, i, t)
                if newset is None:
                    continue
                el2 = element[:g] + (part[:pos] + (newset,) + part[pos + 1:],) + element[g + 1:]
                out.append((el2, sign))
        return out

    def lower_row(self, root, row):
        i, j = root
        out = list(row)
        out[i - 1] -= 1
        out[j] += 1
        return tuple(out)

    def apply_f_sparse(self, root, src_row, vec):
        """One lowering step on an exact vector, a dict element -> int."""
        dst_row = self.lower_row(root, src_row)
        out = {}
        for el, coeff in vec.items():
            for el2, cf in self.moves(root, el):
                out[el2] = out.get(el2, 0) + coeff * cf
        return dst_row, {el: c for el, c in out.items() if c}


def _divide_exact(vec, t):
    """Divide the coefficients of vec by t in place: step t of a divided
    power f^(s) = f^s / s!.  The quotient is integral on the Z-form, so a
    remainder means the model is wrong, and raises."""
    for el, cf in vec.items():
        q, r = divmod(cf, t)
        if r:
            raise ArithmeticError("divided power: coefficient %d of %r is not "
                                  "divisible by %d" % (cf, el, t))
        vec[el] = q


class _ImageCalculator:
    """Exact realization images of divided monomials, sharing work across
    common applied-first tails.  Vectors are dicts element -> int."""

    def __init__(self, realization):
        self.real = realization
        self.memo = {(): (realization.top_row(), {realization.top_element(): 1})}

    def image(self, mon):
        got = self.memo.get(mon)
        if got is not None:
            return got
        (root, s), tail = mon[0], mon[1:]
        row, vec = self.image(tail)
        for t in range(1, s + 1):
            row, vec = self.real.apply_f_sparse(root, row, vec)
            if t > 1:
                _divide_exact(vec, t)
        got = (row, vec)
        self.memo[mon] = got
        return got


# ---------------------------------------------------------------------------
# Gram matrices


@dataclass
class GramMatrix:
    """Integer contravariant-form matrix on the spanning monomials of one
    weight space, with its row/column labels."""

    lam: tuple
    mu: tuple
    monomials: list
    rows: list = field(repr=False)

    def __len__(self):
        return len(self.monomials)


def _entries_of(A):
    if isinstance(A, GramMatrix):
        return A.rows
    return [list(r) for r in A]


def _form_on(vecs):
    """Gram matrix of exact realization vectors: the standard basis is
    orthonormal, so each entry is a dot product."""
    rows = [[0] * len(vecs) for _ in vecs]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs[:a + 1]):
            small, big = (va, vb) if len(va) <= len(vb) else (vb, va)
            rows[a][b] = rows[b][a] = sum(cf * big.get(el, 0) for el, cf in small.items())
    return rows


def gram_matrix(lam, mu, cap=DEFAULT_MONOMIAL_CAP, method="auto"):
    """Contravariant Gram matrix on spanning_monomials(lam, mu).

    method: "auto" (tensor realization dot products) or "straighten"
    (commutation of raising words; slower, kept as an independent
    evaluator).  Raises ResourceExceeded when the spanning set passes
    `cap` or is too large to materialize densely.
    """
    mons = spanning_monomials(lam, mu, cap)
    n = len(mons)
    if n > _DENSE_CAP:
        raise ResourceExceeded(
            "dense Gram matrix with %d monomials; use the rank path" % n,
            blocking=tuple(mu))
    if method == "straighten":
        eng = GramEngine(lam)
        rows = [[eng.form_entry(mons[a], mons[b]) for b in range(n)]
                for a in range(n)]
        for a in range(n):
            for b in range(a):
                if rows[a][b] != rows[b][a]:
                    raise ArithmeticError("straightened Gram not symmetric at "
                                          "%r, %r: (%d, %d)" % (lam, mu, a, b))
    elif method == "auto":
        calc = _ImageCalculator(TensorRealization(lam))
        rows = _form_on([calc.image(mon)[1] for mon in mons])
    else:
        raise ValueError("unknown gram method %r" % (method,))
    return GramMatrix(tuple(lam), tuple(mu), mons, rows)


def gram_on_combinations(lam, mu, combinations, cap=DEFAULT_MONOMIAL_CAP):
    """Form matrix on explicit integer combinations of spanning monomials;
    each combination is a dict monomial -> coefficient."""
    calc = _ImageCalculator(TensorRealization(lam))
    vecs = []
    for combo in combinations:
        acc = {}
        for mon, coeff in combo.items():
            _, vec = calc.image(tuple(mon))
            for el, cf in vec.items():
                acc[el] = acc.get(el, 0) + coeff * cf
        vecs.append({el: cf for el, cf in acc.items() if cf})
    return _form_on(vecs)


# ---------------------------------------------------------------------------
# Ranks and Smith form


def rank_mod_p(A, p):
    """Rank of an integer matrix over the prime field F_p.  Entries stay
    int64 while (p-1)^2 fits; past that they are Python integers."""
    require_prime(p)
    rows = _entries_of(A)
    if not rows:
        return 0
    dtype = np.int64 if (p - 1) ** 2 <= np.iinfo(np.int64).max else object
    M = np.array([[x % p for x in row] for row in rows], dtype=dtype)
    n, m = M.shape
    rank = 0
    for col in range(m):
        piv = None
        for r in range(rank, n):
            if M[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            M[[rank, piv]] = M[[piv, rank]]
        inv = pow(int(M[rank, col]), p - 2, p)
        M[rank] = (M[rank] * inv) % p
        mask = M[:, col] != 0
        mask[rank] = False
        if mask.any():
            M[mask] = (M[mask] - np.outer(M[mask, col], M[rank])) % p
        rank += 1
        if rank == n:
            break
    return rank


def rational_rank(A):
    """Exact rank over the rationals, by fraction-free elimination."""
    rows = [list(map(int, r)) for r in _entries_of(A)]
    if not rows:
        return 0
    n, m = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(m):
        piv = None
        for r in range(rank, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivval = rows[rank][col]
        for r in range(rank + 1, n):
            factor = rows[r][col]
            for cidx in range(m):
                rows[r][cidx] = (pivval * rows[r][cidx] - factor * rows[rank][cidx]) // prev
        prev = pivval
        rank += 1
        if rank == n:
            break
    return rank


def smith_normal_form(A):
    """Elementary divisor chain d_1 | d_2 | ... of an integer matrix,
    non-negative, zeros last, length min(n, m)."""
    M = [list(map(int, r)) for r in _entries_of(A)]
    if not M:
        return []
    n, m = len(M), len(M[0])
    size = min(n, m)
    divisors = []
    t = 0
    while t < size:
        piv = None
        best = None
        for r in range(t, n):
            for c in range(t, m):
                v = abs(M[r][c])
                if v and (best is None or v < best):
                    best = v
                    piv = (r, c)
        if piv is None:
            break
        while True:
            r0, c0 = piv
            M[t], M[r0] = M[r0], M[t]
            for row in M:
                row[t], row[c0] = row[c0], row[t]
            dirty = False
            for r in range(t + 1, n):
                if M[r][t]:
                    q = M[r][t] // M[t][t]
                    for c in range(t, m):
                        M[r][c] -= q * M[t][c]
                    if M[r][t]:
                        dirty = True
            for c in range(t + 1, m):
                if M[t][c]:
                    q = M[t][c] // M[t][t]
                    for r in range(t, n):
                        M[r][c] -= q * M[r][t]
                    if M[t][c]:
                        dirty = True
            if not dirty and all(M[r][t] == 0 for r in range(t + 1, n)) \
                    and all(M[t][c] == 0 for c in range(t + 1, m)):
                stray = None
                d = M[t][t]
                for r in range(t + 1, n):
                    for c in range(t + 1, m):
                        if M[r][c] % d:
                            stray = r
                            break
                    if stray is not None:
                        break
                if stray is None:
                    break
                for c in range(t, m):
                    M[t][c] += M[stray][c]
            piv = None
            best = None
            for r in range(t, n):
                for c in range(t, m):
                    v = abs(M[r][c])
                    if v and (best is None or v < best):
                        best = v
                        piv = (r, c)
        divisors.append(abs(M[t][t]))
        t += 1
    while len(divisors) < size:
        divisors.append(0)
    return divisors


# ---------------------------------------------------------------------------
# Modular multiplicities


def irreducible_multiplicity(lam, mu, p, cap=DEFAULT_MONOMIAL_CAP, method="auto"):
    """Multiplicity of mu in the irreducible head of the Weyl module of
    highest weight lam in characteristic p: the rank mod p of the
    contravariant form on the mu weight space of the Weyl module's
    Z-form.

    method "auto" ranks the form on the Carter-Lusztig basis, one
    monomial per semistandard tableau (tableau_monomials), with cap
    bounding the number of tableaux; the Gram matrix of a Z-basis has the
    nonzero elementary divisors of the Gram matrix of any spanning set,
    so its rank mod p is the same.  "dense" and "straighten" rank the
    Gram matrix of the full spanning set, with cap bounding the number of
    monomials.  Raises ResourceExceeded past cap, ValueError unless p is
    a prime below PRIME_BOUND.
    """
    require_prime(p)
    if method in ("dense", "straighten"):
        gm = gram_matrix(lam, mu, cap=cap,
                         method="auto" if method == "dense" else method)
        return rank_mod_p(gm, p)
    mons = tableau_monomials(lam, mu, cap)
    calc = _ImageCalculator(TensorRealization(lam))
    target = list(calc.real.top_row())
    for i, ci in enumerate(root_coordinates(lam, mu)):
        target[i] -= ci
        target[i + 1] += ci
    target = tuple(target)
    vecs = []
    for mon in mons:
        row, vec = calc.image(mon)
        if row != target:
            raise ArithmeticError("monomial %r lands on weight row %r, expected %r "
                                  "at %r, %r" % (mon, row, target, lam, mu))
        vecs.append(vec)
    return rank_mod_p(_form_on(vecs), p)


# ---------------------------------------------------------------------------
# Plain-text dump format


def format_gram(A):
    """First line n, then n rows of n integers."""
    rows = _entries_of(A)
    lines = [str(len(rows))]
    for row in rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_gram(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty gram dump")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError("gram dump claims %d rows, has %d" % (n, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != n:
            raise ValueError("gram dump row of length %d, expected %d" % (len(row), n))
        rows.append(row)
    return rows
