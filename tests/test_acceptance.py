"""End-to-end acceptance checks, one test per criterion.

Every assertion is exact integer equality.  Each test is self-contained
and prints one PASSED/FAILED line under pytest -v.
"""

import json
import math
import random
import time
from itertools import product

import pytest

from typea_irreps.cli import main as cli_main
from typea_irreps.dim_classifier import (
    dim_irreducible,
    brute_force_small,
    enumerate_small_irreducibles,
    table_row_dimension,
)
from typea_irreps.freudenthal import (
    weyl_dimension,
    weyl_multiplicity,
    weyl_multiplicity_table,
)
from typea_irreps.multiplicity_oracles import (
    NO_PATTERN,
    oracle_multiplicity,
    table3_multiplicities,
)
from typea_irreps.root_system import (
    dual_weight,
    is_dominant,
    is_restricted,
    root_coordinates,
)
from typea_irreps.tensor_constructions import (
    NOT_SINGULAR,
    contraction_kernel_dim,
    raise_simple,
    singular_vector,
    young_image_lattice_rank,
    young_symmetrizer_module,
)
from typea_irreps.verma_gram import (
    ResourceExceeded,
    gram_matrix,
    gram_on_combinations,
    irreducible_multiplicity,
    kostant_count,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
)
from typea_irreps.weyl_orbits import (
    orbit_size,
    premet_lower_bound,
    subdominant_weights,
)

PRIMES = (2, 3, 5, 7)
GRID_CAP = 60000


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def _run_verify(capsys, l, p, s):
    t0 = time.time()
    doc = _cli_json(capsys, "verify", "--rank", str(l), "--char", str(p),
                    "--exp", str(s))
    return doc["result"], time.time() - t0


def test_criterion_1_small_exponent_enumeration(capsys):
    """Exponent-3 enumeration at ranks 19 and 20 matches the registered
    rows exactly for every characteristic, with empty discrepancy lists."""
    expected_rows = {2: 7, 3: 9, 5: 10, 7: 10}
    for l in (19, 20):
        for p in PRIMES:
            result, elapsed = _run_verify(capsys, l, p, 3)
            assert result["missing"] == [], (l, p, result["missing"])
            assert result["extra"] == [], (l, p, result["extra"])
            assert len(result["matched"]) == expected_rows[p], (l, p)
            matched_ids = {m["row"] for m in result["matched"]}
            assert "t1:l4" in matched_ids, (l, p)
            assert elapsed < 600, (l, p, elapsed)


def test_criterion_2_rank_36_enumeration(capsys):
    """Exponent-4 enumeration at rank 36 matches the full registry with
    empty discrepancy lists in characteristics 2, 3, 5."""
    expected_rows = {2: 12, 3: 19, 5: 23}
    for p in (2, 3, 5):
        result, elapsed = _run_verify(capsys, 36, p, 4)
        assert result["missing"] == [], (p, result["missing"])
        assert result["extra"] == [], (p, result["extra"])
        assert len(result["matched"]) == expected_rows[p], p
        assert elapsed < 1800, (p, elapsed)


def test_criterion_3_boundary_ranks_with_remark_rows(capsys):
    """Exponent-4 enumeration at ranks 21 and 22 in characteristic 2
    includes exactly the remark rows whose side conditions hold."""
    for l in (21, 22):
        result, _ = _run_verify(capsys, l, 2, 4)
        assert result["missing"] == [], (l, result["missing"])
        assert result["extra"] == [], (l, result["extra"])
        matched_ids = {m["row"] for m in result["matched"]}
        assert "remark:l6" in matched_ids, l
        assert "remark:l7" in matched_ids, l
        assert "remark:l1+llm3" in matched_ids, l
        # 2l1+l3 carries a coefficient 2, excluded in characteristic 2
        assert "remark:2l1+l3" not in matched_ids, l
        assert len(result["matched"]) == 18, l


def _mu_from(lam, c):
    l = len(lam)
    mu = []
    for j in range(l):
        left = c[j - 1] if j else 0
        right = c[j + 1] if j + 1 < l else 0
        mu.append(lam[j] - (2 * c[j] - left - right))
    if any(x < 0 for x in mu):
        return None
    return tuple(mu)


def _embedded(l, s, block_lam, block_c):
    lam = [0] * l
    for pos, a in block_lam.items():
        lam[s + pos] = a
    c = [0] * l
    for pos, v in enumerate(block_c):
        c[s + pos] = v
    return tuple(lam), c


def _pattern_cells(l, p):
    """Every pattern instance of each closed-form family inside rank l,
    all admissible coefficients below p, embedded at every offset."""
    units = range(1, p)
    for m in range(1, l + 1):
        if m == 1:
            for a in units:
                yield {0: a}, [1], False
            continue
        for a in units:
            for b in units:
                yield {0: a, m - 1: b}, [1] * m, False
        if m == 3:
            for a in range(2, p):
                yield {1: a}, [1, 2, 1], False
        for c0 in range(2, p):
            for a in range(2 * c0 - 1, p):
                for b in units:
                    yield {0: a, m - 1: b}, [c0] + [1] * (m - 1), True
        if m >= 3:
            for a in range(2, p):
                yield {0: a, m - 2: 1}, [2] * (m - 1) + [1], True
        if m >= 4:
            for a1 in units:
                for a2 in units:
                    for am in units:
                        yield {0: a1, 1: a2, m - 1: am}, [1] * m, True
            for a in range(3, p):
                yield {0: a, m - 3: 1}, [3] * (m - 2) + [2, 1], True
        if m == 4:
            yield {1: 1, 2: 1}, [1, 2, 2, 1], False
        if m >= 5:
            yield {1: 1, m - 2: 1}, [1] + [2] * (m - 2) + [1], False
        yield {0: 2, m - 1: 2}, [2] * m, False


def _iter_grid_cells(l, p):
    # Symmetric families are embedded at both edges; asymmetric families
    # at the left edge only, since their dual mirror lands on the right.
    for block_lam, block_c, asym in _pattern_cells(l, p):
        m = len(block_c)
        for s in ((0,) if asym else sorted({0, l - m})):
            lam, c = _embedded(l, s, block_lam, block_c)
            if not is_restricted(lam, p):
                continue
            mu = _mu_from(lam, c)
            if mu is None or not is_dominant(mu):
                continue
            yield lam, mu
            if asym:
                yield dual_weight(lam), dual_weight(mu)


def _table3_shapes(l):
    def w(*pairs):
        out = [0] * l
        for pos, a in pairs:
            if pos < 1 or pos > l:
                return None
            out[pos - 1] += a
        return tuple(out)

    return [
        w((2, 2)),
        w((1, 2), (2, 1)),
        w((1, 3), (l, 1)),
        w((1, 2), (l - 1, 1)),
        w((2, 1), (l - 1, 1)),
        w((1, 2), (l, 2)),
        w((1, 1), (2, 1), (l, 1)),
        w((2, 1), (3, 1)),
        w((1, 3), (2, 1)),
    ]


def test_criterion_4_oracle_engine_equivalence():
    """Every closed-form pattern and every registered multiplicity row,
    instantiated over ranks 4..8 at every admissible coefficient below p,
    agrees exactly with the Gram rank.  Zero exceptions.

    Small spanning sets share one straightened integer Gram matrix across
    the characteristics that request the cell; the large sets go through
    the rank on the tableau basis, whose cost tracks the Weyl multiplicity
    rather than the spanning set."""
    failures = []
    checked = 0
    cells = {}
    for l in range(4, 9):
        for p in PRIMES:
            for lam, mu in _iter_grid_cells(l, p):
                cells.setdefault((lam, mu), set()).add(p)
    for (lam, mu), chars in sorted(cells.items()):
        c = root_coordinates(lam, mu)
        assert c is not None, (lam, mu)
        shared = None
        if kostant_count(c, GRID_CAP) <= 400:
            shared = gram_matrix(lam, mu, cap=GRID_CAP, method="straighten")
        for p in sorted(chars):
            hit = oracle_multiplicity(lam, mu, p)
            if hit is NO_PATTERN:
                failures.append(("no-pattern", lam, mu, p))
                continue
            if shared is not None:
                engine = rank_mod_p(shared, p)
            else:
                engine = irreducible_multiplicity(lam, mu, p, cap=GRID_CAP)
            checked += 1
            if hit.value != engine:
                failures.append((hit.source, lam, mu, p, hit.value, engine))
    for l in range(4, 9):
        for lam in _table3_shapes(l):
            if lam is None:
                continue
            for p in PRIMES:
                if not is_restricted(lam, p):
                    continue
                rows = table3_multiplicities(lam, p)
                assert rows is not NO_PATTERN, (lam, p)
                assert set(rows) == set(subdominant_weights(lam, proper=True))
                for mu, want in rows.items():
                    engine = irreducible_multiplicity(lam, mu, p, cap=GRID_CAP)
                    checked += 1
                    if want != engine:
                        failures.append(("table3", lam, mu, p, want, engine))
    assert failures == [], failures[:20]
    assert checked > 10000, checked


def _quadratic_basis(l):
    """The explicit degree-two basis of the zero weight space of the
    doubled end-node module, one divided monomial per vector."""
    combos = []
    for i in range(1, l):
        for j in range(1, i + 1):
            if i == j:
                combos.append({(((1, i), 2), ((i + 1, l), 2)): 2})
            else:
                lo, hi = j, i
                mon = (((1, lo), 1), ((1, hi), 1),
                       ((lo + 1, l), 1), ((hi + 1, l), 1))
                combos.append({mon: 1})
    for k in range(1, l):
        combos.append({(((1, k), 1), ((1, l), 1), ((k + 1, l), 1)): 1})
    combos.append({(((1, l), 2),): 1})
    return combos


def test_criterion_5_zero_weight_divisors_and_rank():
    """The Gram form on the explicit quadratic basis has the registered
    elementary-divisor profile (same rank mod p for every p), and the
    zero-weight multiplicity of the doubled end-node module follows the
    closed form in characteristics 3, 5, 7.  At p = 2 the weight
    2l1+2ll is not restricted and Steinberg's tensor product theorem
    gives L(2l1+2ll) = L(l1+ll)^[1], whose zero weight space has
    dimension l - [p | l+1]."""
    bad = []
    for l in (4, 5, 6):
        lam = tuple(2 if i in (1, l) else 0 for i in range(1, l + 1))
        mu = (0,) * l
        combos = _quadratic_basis(l)
        assert len(combos) == math.comb(l + 1, 2)
        G = gram_on_combinations(lam, mu, combos)
        divisors = smith_normal_form(G)
        target = [4] * math.comb(l, 2) + [4 * (l + 3)] * (l - 1) \
            + [(l + 2) * (l + 3)]
        assert len(divisors) == len(target), l
        relevant = set(PRIMES)
        for d in divisors + target:
            for q in range(2, d + 1):
                if d % q == 0:
                    relevant.add(q)
                    while d % q == 0:
                        d //= q
        for q in sorted(relevant):
            got = sum(1 for d in divisors if d % q)
            want = sum(1 for d in target if d % q)
            if got != want:
                bad.append(("rank mod %d" % q, l, got, want))
        for p in PRIMES:
            m0 = irreducible_multiplicity(lam, mu, p)
            if is_restricted(lam, p):
                want = math.comb(l + 1, 2) \
                    - (l if (l + 3) % p == 0 else 0) \
                    - (1 if (l + 2) % p == 0 else 0)
            else:  # p = 2, lam = 2(l1+ll)
                want = l - (1 if (l + 1) % p == 0 else 0)
            if m0 != want:
                bad.append(("m(0) at p=%d" % p, l, m0, want))
    assert bad == [], bad


def test_criterion_6_characteristic_zero_consistency():
    """Rational Gram rank equals the recursion multiplicity and orbit
    sums recover the product formula: exhaustively for coefficient sum
    up to 3 at ranks up to 5, then on 200 seeded larger instances."""
    for l in range(1, 6):
        for lam in product(range(4), repeat=l):
            if not 1 <= sum(lam) <= 3:
                continue
            table = weyl_multiplicity_table(lam)
            total = 0
            for mu in subdominant_weights(lam):
                gm = gram_matrix(lam, mu)
                assert rational_rank(gm) == table[mu], (lam, mu)
                total += orbit_size(mu) * table[mu]
            assert total == weyl_dimension(lam), lam
    rng = random.Random(20260822)
    done = 0
    while done < 200:
        l = rng.randint(6, 12)
        lam = [0] * l
        for _ in range(rng.randint(1, 3)):
            lam[rng.randrange(l)] += rng.randint(1, 2)
        lam = tuple(lam)
        table = weyl_multiplicity_table(lam)
        mus = subdominant_weights(lam)
        assert sum(orbit_size(m) * table[m] for m in mus) == \
            weyl_dimension(lam), lam
        small = [m for m in mus
                 if kostant_count(root_coordinates(lam, m), 400) <= 400]
        mu = small[rng.randrange(len(small))]
        gm = gram_matrix(lam, mu)
        assert rational_rank(gm) == table[mu], (lam, mu)
        done += 1


def test_criterion_7_tensor_space_constructions():
    """Contraction kernels, the Young symmetrizer module, and the
    explicit singular vectors reproduce the computed dimensions at every
    characteristic, including every quotient case."""
    for l in range(3, 7):
        for p in PRIMES:
            for k in (2, l - 1):
                kernel, quotient = contraction_kernel_dim(k, l, p)
                got = kernel if quotient is None else quotient
                lam = tuple((1 if i == 1 else 0) + (1 if i == k else 0)
                            for i in range(1, l + 1))
                want = dim_irreducible(lam, p).value
                assert got == want, (l, p, k, got, want)
                assert (quotient is not None) == ((k + 1) % p == 0), (l, p, k)
    for l in (3, 4):
        lam = tuple(2 if i == 1 else (1 if i == l else 0)
                    for i in range(1, l + 1))
        for p in PRIMES:
            weyl, irreducible = young_symmetrizer_module(l, p)
            assert weyl == young_image_lattice_rank(l), (l, p)
            row = table_row_dimension("t1:2l1+ll", l, p)
            assert irreducible == row, (l, p, irreducible, row)
            if p > 2:
                assert irreducible == dim_irreducible(lam, p).value, (l, p)
    for l in range(3, 7):
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                for ai in (1, 2):
                    for aj in (1, 2):
                        lam = tuple(
                            (ai if t == i else 0) + (aj if t == j else 0)
                            for t in range(1, l + 1))
                        cond = ai + aj + (j - i)
                        for p in PRIMES:
                            if not is_restricted(lam, p):
                                continue
                            try:
                                sv = singular_vector(lam, p)
                            except ResourceExceeded:
                                # doubled high nodes blow the wedge
                                # expansion cap; every residue class is
                                # still covered by the surviving cells
                                break
                            if cond % p:
                                assert sv is NOT_SINGULAR, (lam, p)
                                continue
                            assert sv is not NOT_SINGULAR, (lam, p)
                            assert sv.condition == cond
                            reduced = sv.vector.reduce(p)
                            assert reduced.data, (lam, p)
                            for k in range(1, l + 1):
                                assert not raise_simple(reduced, k), (lam, p, k)


def test_criterion_8_pruning_soundness_substitute():
    """The pruning bound is monotone under coefficient growth, and the
    pruned enumeration agrees with the unpruned box scan at every small
    rank, characteristic, and exponent."""
    rng = random.Random(20260822)
    for _ in range(500):
        l = rng.randint(1, 8)
        # the bound enumerates subdominants, so large ranks get small coeffs
        hi = 6 if l <= 5 else (3 if l <= 7 else 2)
        w = tuple(rng.randint(0, hi) for _ in range(l))
        k = rng.randrange(l)
        w_up = tuple(c + (1 if i == k else 0) for i, c in enumerate(w))
        assert premet_lower_bound(w_up) >= premet_lower_bound(w), (w, k)
    for l in range(1, 6):
        for w in product(range(3), repeat=l):
            for k in range(l):
                w_up = tuple(c + (1 if i == k else 0)
                             for i, c in enumerate(w))
                assert premet_lower_bound(w_up) >= premet_lower_bound(w)
    for l in range(1, 6):
        for p in (2, 3, 5):
            for s in (1, 2):
                brute = brute_force_small(l, p, s)
                folded = {}
                for w, d in brute:
                    folded[max(w, dual_weight(w))] = int(d)
                pruned = enumerate_small_irreducibles(l, p, s)
                got = {e.weight: int(e.dim) for e in pruned.entries}
                assert got == folded, (l, p, s)
