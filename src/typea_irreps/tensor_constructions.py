"""Tensor-space realizations: wedge-map kernels, the Young symmetrizer
for the hook-with-three shape, and singular vectors below two-term
highest weights.

Everything here works on plain sparse tensors, so the dimensions it
produces share no code with the Verma-side Gram machinery; agreement
between the two pipelines is a test, not a construction.
"""

from dataclasses import dataclass
from itertools import combinations, count, permutations
from math import comb, factorial

from .root_system import epsilon_coordinates
from .verma_gram import ResourceExceeded

CONTRACTION_RANK_CAP = 8
YOUNG_RANK_CAP = 4
_EXPANSION_CAP = 100000


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


class SparseTensor:
    """Sparse element of V^(tensor k), V spanned by e_1..e_{l+1}; keys are
    index tuples, values exact integers or residues mod p, zeros dropped."""

    __slots__ = ("degree", "modulus", "data")

    def __init__(self, degree, data=None, modulus=None):
        self.degree = degree
        self.modulus = modulus
        clean = {}
        for key, val in (data or {}).items():
            if len(key) != degree:
                raise ValueError("index tuple %r has length != %d" % (key, degree))
            if modulus:
                val %= modulus
            if val:
                clean[key] = val
        self.data = clean

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return (isinstance(other, SparseTensor) and self.degree == other.degree
                and self.modulus == other.modulus and self.data == other.data)

    def __repr__(self):
        return "SparseTensor(degree=%d, terms=%d)" % (self.degree, len(self.data))

    def items(self):
        return self.data.items()

    def scale(self, c):
        return SparseTensor(self.degree,
                            {k: c * v for k, v in self.data.items()}, self.modulus)

    def add(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return SparseTensor(self.degree, out, self.modulus)

    def reduce(self, p):
        return SparseTensor(self.degree, self.data, p)

    def substitute(self, old, new):
        """Leibniz action of the elementary matrix sending e_old to e_new."""
        out = {}
        for key, val in self.data.items():
            for s, b in enumerate(key):
                if b == old:
                    k2 = key[:s] + (new,) + key[s + 1:]
                    out[k2] = out.get(k2, 0) + val
        return SparseTensor(self.degree, out, self.modulus)


def lower_root(tensor, i, j):
    """f for the interval (i, j): e_i goes to e_{j+1} in every slot."""
    return tensor.substitute(i, j + 1)


def raise_simple(tensor, k):
    """e for the simple root at k: e_{k+1} goes to e_k in every slot."""
    return tensor.substitute(k + 1, k)


def wedge_tensor(indices, modulus=None):
    """Full antisymmetrization of e_{i_1} x ... x e_{i_k}."""
    base = tuple(indices)
    data = {}
    for perm in permutations(range(len(base))):
        key = tuple(base[s] for s in perm)
        data[key] = data.get(key, 0) + _perm_sign(perm)
    return SparseTensor(len(base), data, modulus)


def highest_weight_tensor(lam):
    """v^lambda as a product of top wedges, one exterior-power factor per
    unit of each coefficient, exact over the integers."""
    size = 1
    for k, a in enumerate(lam, 1):
        size *= factorial(k) ** a
    if size > _EXPANSION_CAP:
        raise ResourceExceeded(
            "highest weight tensor for %r has %d terms" % (tuple(lam), size))
    terms = {(): 1}
    degree = 0
    for k, a in enumerate(lam, 1):
        for _ in range(a):
            new = {}
            for key, val in terms.items():
                for perm in permutations(range(1, k + 1)):
                    k2 = key + perm
                    new[k2] = new.get(k2, 0) + val * _perm_sign(perm)
            terms = new
            degree += k
    return SparseTensor(degree, terms)


class _Elimination:
    """Incremental row reduction over F_p on dict rows with sortable keys."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def _reduce(self, row):
        p = self.p
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row, lead
            c = row[lead]
            for k2, v2 in piv.items():
                nv = (row.get(k2, 0) - c * v2) % p
                if nv:
                    row[k2] = nv
                elif k2 in row:
                    del row[k2]
        return row, None

    def add(self, row):
        red, lead = self._reduce(dict(row))
        if lead is None:
            return False
        inv = pow(red[lead], -1, self.p)
        self.pivots[lead] = {k: (v * inv) % self.p for k, v in red.items()}
        return True

    def contains(self, row):
        _, lead = self._reduce(dict(row))
        return lead is None

    @property
    def rank(self):
        return len(self.pivots)


# ---------------------------------------------------------------------------
# Wedge-multiplication kernels


def _wedge_insert(x, subset):
    """e_x wedge e_subset: (sorted tuple, sign), or None when x repeats."""
    if x in subset:
        return None
    before = sum(1 for y in subset if y < x)
    sign = -1 if before % 2 else 1
    return tuple(sorted(subset + (x,))), sign


def contraction_kernel_dim(k, l, p, cap=CONTRACTION_RANK_CAP):
    """Kernel of the canonical map from V tensor the k-th wedge power onto
    the (k+1)-st, over F_p, as (kernel dim, quotient dim).

    The quotient is by the comultiplied copy of the (k+1)-st wedge power
    and is reported only when that copy actually lands inside the kernel,
    which the function checks by applying the map rather than by testing
    p against k+1.
    """
    if not 2 <= k + 1 <= l + 1:
        raise ValueError("need 2 <= k+1 <= l+1, got k=%d l=%d" % (k, l))
    if l > cap:
        raise ResourceExceeded("contraction rank %d over cap %d" % (l, cap))
    m = l + 1
    domain = m * comb(m, k)
    elim = _Elimination(p)
    for x in range(1, m + 1):
        for sub in combinations(range(1, m + 1), k):
            got = _wedge_insert(x, sub)
            if got is not None:
                elim.add({got[0]: got[1]})
    kernel = domain - elim.rank

    in_kernel = True
    embedded = []
    for sub in combinations(range(1, m + 1), k + 1):
        vec = {}
        image = {}
        for t in range(k + 1):
            x = sub[t]
            rest = sub[:t] + sub[t + 1:]
            sign = -1 if t % 2 else 1
            vec[(x,) + rest] = sign
            got = _wedge_insert(x, rest)
            image[got[0]] = (image.get(got[0], 0) + sign * got[1]) % p
        if any(image.values()):
            in_kernel = False
            break
        embedded.append(vec)

    quotient = None
    if in_kernel:
        sub_elim = _Elimination(p)
        for vec in embedded:
            sub_elim.add(vec)
        quotient = kernel - sub_elim.rank
    return kernel, quotient


# ---------------------------------------------------------------------------
# Young symmetrizer for the shape (3, 1, ..., 1)


def _permute_slots(key, slots, perm):
    out = list(key)
    vals = [key[s] for s in slots]
    for pos, s in enumerate(slots):
        out[s] = vals[perm[pos]]
    return tuple(out)


def apply_young_symmetrizer(l, tensor):
    """c_T v for the hook shape with three boxes in the first row: slots 0
    and 1 are the two extra first-row boxes, slots 2..l+1 the first
    column.  Rows are symmetrized first, then the column alternated; that
    order fixes e_1.e_1 x (e_1 wedge ... wedge e_l) up to scalar."""
    n = l + 2
    row_slots = (0, 1, 2)
    col_slots = tuple(range(2, n))
    out = {}
    for key, val in tensor.data.items():
        mids = {}
        for sigma in permutations(range(3)):
            k2 = _permute_slots(key, row_slots, sigma)
            mids[k2] = mids.get(k2, 0) + val
        for k2, v2 in mids.items():
            if len(set(k2[2:])) < l:
                continue
            for tau in permutations(range(l)):
                k3 = _permute_slots(k2, col_slots, tau)
                out[k3] = out.get(k3, 0) + _perm_sign(tau) * v2
    return SparseTensor(n, out, tensor.modulus)


def young_highest_weight_vector(l, modulus=None):
    """e_1.e_1 x (e_1 wedge ... wedge e_l) in the slot layout above."""
    data = {}
    for perm in permutations(range(1, l + 1)):
        key = (1, 1) + perm
        data[key] = data.get(key, 0) + _perm_sign(perm)
    return SparseTensor(l + 2, data, modulus)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _combine(r1, r2, c1, c2):
    out = {}
    for k in set(r1) | set(r2):
        v = c1 * r1.get(k, 0) + c2 * r2.get(k, 0)
        if v:
            out[k] = v
    return out


class _IntegerEchelon:
    """Triangular basis of the lattice spanned by integer dict rows.

    Reduction mod p of a sublattice of the ambient lattice is not the
    same as the span of the rows reduced mod p (elementary divisors
    divisible by p collapse); tracking an exact basis keeps the quotient
    honest for every p at once.
    """

    def __init__(self):
        self.pivots = {}

    def add(self, row):
        row = {k: v for k, v in row.items() if v}
        changed = False
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                if row[lead] < 0:
                    row = {k: -v for k, v in row.items()}
                self.pivots[lead] = row
                return True
            a, b = piv[lead], row[lead]
            if b % a == 0:
                row = _combine(row, piv, 1, -(b // a))
            else:
                g, x, y = _xgcd(a, b)
                self.pivots[lead] = _combine(piv, row, x, y)
                row = _combine(piv, row, -(b // g), a // g)
                changed = True
        return changed

    def coordinates(self, row):
        """Integer coordinates of row against the pivot basis, or None
        when the vector falls outside the lattice."""
        row = {k: v for k, v in row.items() if v}
        coords = {}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return None
            q, r = divmod(row[lead], piv[lead])
            if r:
                return None
            coords[lead] = q
            row = _combine(row, piv, 1, -q)
        return coords

    @property
    def rank(self):
        return len(self.pivots)


def _pair_swap_span(l):
    """Hook coordinates of the generators (id + phi)(e_i x e_1 wedge ...
    wedge e_{l+1}), phi swapping the first two slots: the tail misses one
    m, which joins i in the pair with the sign (-1)^(m-1) of moving e_m
    to the front, doubled when m = i."""
    full = tuple(range(1, l + 2))
    return [{(min(i, m), max(i, m)) + full[:m - 1] + full[m:]:
             (-1) ** (m - 1) * (2 if m == i else 1) for m in full}
            for i in full]


def young_image_lattice_rank(l, cap=YOUNG_RANK_CAP):
    """Rank of the integral lattice spanned by symmetrizer images of
    basis tensors: the characteristic-zero dimension of the module."""
    if l > cap:
        raise ResourceExceeded("symmetrizer rank %d over cap %d" % (l, cap))
    n = l + 2
    m = l + 1
    lattice = _IntegerEchelon()
    # basis tensors up to the row group and the column stabilizer of the
    # shared slot: sorted values on slots 0..2, strictly increasing after
    heads = [(a, b, c) for a in range(1, m + 1)
             for b in range(a, m + 1) for c in range(b, m + 1)]
    for head in heads:
        for tail in combinations(range(1, m + 1), l - 1):
            key = head + tail
            img = apply_young_symmetrizer(l, SparseTensor(n, {key: 1}))
            if img.data:
                lattice.add(img.data)
    return lattice.rank


def _hook_lower(vec, old, new):
    """f sending e_old to e_new (old < new) on hook coordinates: a key
    (a, b, c_1 < ... < c_l) with a <= b stands for (e_a e_b) x (e_c1
    wedge ... wedge e_cl), e_a e_b being e_a x e_b + e_b x e_a, or e_a x e_a
    when a = b.  The pair gains a factor 2 when it becomes (new, new); the
    wedge moves old to new with the sign of the indices it passes."""
    out = {}
    for key, val in vec.items():
        a, b, tail = key[0], key[1], key[2:]
        if old in (a, b):
            c = b if a == old else a
            k2 = (min(c, new), max(c, new)) + tail
            out[k2] = out.get(k2, 0) + (2 * val if c == new else val)
        if old in tail and new not in tail:
            sign = (-1) ** sum(1 for c in tail if old < c < new)
            k2 = (a, b) + tuple(sorted(new if c == old else c for c in tail))
            out[k2] = out.get(k2, 0) + sign * val
    return {k: v for k, v in out.items() if v}


def _hook_divided_lowerings(vec, old, new):
    """Exact images of vec under f^(s) = f^s / s!, s = 1, 2, ..., until
    they vanish (f as in `_hook_lower`); the divisions are exact on the
    lattice generated from a highest weight vector, and a remainder raises."""
    out = []
    for s in count(1):
        vec = _hook_lower(vec, old, new)
        for key, val in vec.items():
            if val % s:
                raise ArithmeticError("divided power: coefficient %d at %r "
                                      "is not divisible by %d" % (val, key, s))
        vec = {k: v // s for k, v in vec.items()}
        if not vec:
            return out
        out.append(vec)


def young_symmetrizer_module(l, p, cap=YOUNG_RANK_CAP):
    """(weyl dimension, irreducible dimension) of the module the
    symmetrizer cuts out of the full tensor power, over F_p.

    The module is generated from the symmetrizer's highest weight tensor
    by exact divided lowerings reduced mod p; the naive mod-p matrix
    image of the symmetrizer is smaller whenever p divides an elementary
    divisor of the integral image (it does at p = 2), so it is not the
    right object.  The simple f_i^(n) suffice: they generate the Kostant
    Z-form U_Z^- as a ring.  Every vector reached is symmetric in slots
    0, 1 and alternating in slots 2..l+1, so it is carried on its hook
    coordinates (`_hook_lower`); each full coefficient is +-1 times one of
    them, so ranks and containment mod p are unchanged.  When p divides
    l+2 the second entry drops by the rank of the pair-swap span, whose
    containment is checked, not assumed.
    """
    if l > cap:
        raise ResourceExceeded("symmetrizer rank %d over cap %d" % (l, cap))
    span = _Elimination(p)
    # e_1.e_1 x (e_1 wedge ... wedge e_l), one hook key
    queue = [{(1, 1) + tuple(range(1, l + 1)): 1}]
    while queue:
        w = queue.pop()
        if not span.add(w):
            continue
        for i in range(1, l + 1):
            queue.extend(_hook_divided_lowerings(w, i, i + 1))
    weyl = span.rank
    irreducible = weyl
    if (l + 2) % p == 0:
        sub = _Elimination(p)
        for vec in _pair_swap_span(l):
            if not span.contains(vec):
                raise ArithmeticError("pair-swap span escapes the module")
            sub.add(vec)
        irreducible = weyl - sub.rank
    return weyl, irreducible


# ---------------------------------------------------------------------------
# Singular vectors


class NotSingular:
    """Returned when the divisibility condition fails."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "NotSingular"


NOT_SINGULAR = NotSingular()


@dataclass(frozen=True)
class SingularVector:
    weight: tuple
    mu: tuple
    modulus: int
    condition: int
    vector: SparseTensor


def _histogram(key, m):
    out = [0] * m
    for b in key:
        out[b - 1] += 1
    return tuple(out)


def singular_vector(lam, p):
    """The candidate singular vector below a two-term highest weight.

    For lam = a_i L_i + a_j L_j the vector
    a_j f_{i,j} v - sum over r in (i, j] of f_{i,r-1} f_{r,j} v
    has weight lam - (alpha_i + ... + alpha_j); when p divides
    a_i + a_j + j - i it is annihilated mod p by every raising operator,
    which is verified on the exact tensor realization.  Returns
    NOT_SINGULAR when the divisibility fails.
    """
    lam = tuple(lam)
    sup = [k for k, a in enumerate(lam, 1) if a]
    if len(sup) != 2:
        raise ValueError("weight must have two-term support, got %r" % (lam,))
    i, j = sup
    condition = lam[i - 1] + lam[j - 1] + (j - i)
    if condition % p:
        return NOT_SINGULAR

    v = highest_weight_tensor(lam)
    out = lower_root(v, i, j).scale(lam[j - 1])
    for r in range(i + 1, j + 1):
        term = lower_root(lower_root(v, r, j), i, r - 1)
        out = out.add(term.scale(-1))

    m = len(lam) + 1
    base = list(_histogram(next(iter(v.data)), m))
    base[i - 1] -= 1
    base[j] += 1
    target = tuple(base)
    for key in out.data:
        if _histogram(key, m) != target:
            raise ArithmeticError("tensor %r has the wrong weight below %r"
                                  % (key, lam))

    for k in range(1, len(lam) + 1):
        raised = raise_simple(out, k)
        if any(c % p for c in raised.data.values()):
            raise ArithmeticError("raising %d does not kill v_R mod %d at %r"
                                  % (k, p, lam))

    eps = list(epsilon_coordinates(lam))
    eps[i - 1] -= 1
    eps[j] += 1
    mu = tuple(eps[t] - eps[t + 1] for t in range(len(lam)))
    return SingularVector(lam, mu, p, condition, out)


def lowering_closure(vectors, l, p, cap=20000):
    """Mod-p span of the given tensors under repeated interval lowerings."""
    elim = _Elimination(p)
    queue = []
    for vec in vectors:
        queue.append(vec if isinstance(vec, SparseTensor) else
                     SparseTensor(len(next(iter(vec))), vec, p))
    while queue:
        t = queue.pop()
        reduced = t.reduce(p)
        if not reduced.data:
            continue
        if not elim.add(reduced.data):
            continue
        if elim.rank > cap:
            raise ResourceExceeded("lowering closure rank over cap %d" % cap)
        for a in range(1, l + 1):
            for b in range(a, l + 1):
                nxt = lower_root(reduced, a, b)
                if nxt.data:
                    queue.append(nxt)
    return elim
