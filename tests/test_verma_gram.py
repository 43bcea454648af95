import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from typea_irreps.freudenthal import weyl_multiplicity, weyl_multiplicity_table
from typea_irreps.root_system import root_coordinates
from typea_irreps.verma_gram import (
    ResourceExceeded,
    format_gram,
    gram_matrix,
    gram_on_combinations,
    irreducible_multiplicity,
    kostant_count,
    parse_gram,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
    spanning_monomials,
    tableau_monomials,
)
from typea_irreps.weyl_orbits import subdominant_weights

weights = st.integers(2, 4).flatmap(
    lambda l: st.tuples(*[st.integers(0, 2)] * l))


@pytest.mark.parametrize("c,n", [
    ((0,), 1),
    ((1,), 1),
    ((1, 1), 2),
    ((1, 1, 1), 4),
    ((2, 1), 2),
    ((1, 2, 1), 5),
    ((2, 2), 3),
])
def test_kostant_count(c, n):
    assert kostant_count(c) == n


def test_kostant_count_saturates_at_cap():
    assert kostant_count((3, 3, 3, 3), cap=10) == 11


def _kostant_by_product(c):
    # coefficient of x^c in the product over interval roots of
    # 1/(1 - x^root), each factor truncated at c
    l = len(c)
    series = {(0,) * l: 1}
    for i in range(l):
        for j in range(i, l):
            out = {}
            for mono, n in series.items():
                cur = list(mono)
                while all(cur[k] <= c[k] for k in range(i, j + 1)):
                    key = tuple(cur)
                    out[key] = out.get(key, 0) + n
                    for k in range(i, j + 1):
                        cur[k] += 1
            series = out
    return series.get(tuple(c), 0)


@given(st.integers(1, 5).flatmap(lambda l: st.tuples(*[st.integers(0, 4)] * l)),
       st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_kostant_count_equals_generating_function(c, cap):
    n = _kostant_by_product(c)
    assert kostant_count(c) == n
    assert kostant_count(c, cap) == min(n, cap + 1)


def test_spanning_monomials_match_kostant():
    lam = (2, 1, 1)
    for mu in ((1, 1, 0), (0, 0, 1), (0, 2, 1)):
        c = root_coordinates(lam, mu)
        assert c is not None
        assert len(spanning_monomials(lam, mu)) == kostant_count(c)


def test_spanning_monomials_ascending_root_order():
    # factors inside each monomial never step backwards
    for mon in spanning_monomials((1, 1, 1), (0, 1, 0)):
        roots = [r for r, _ in mon]
        assert roots == sorted(roots)


def test_gram_matrix_small_cell():
    gm = gram_matrix((1, 1, 0), (0, 0, 1))
    assert gm.rows == [[2, -1], [-1, 2]]


def test_gram_matrix_symmetric():
    gm = gram_matrix((2, 1, 1), (0, 0, 1))
    n = len(gm.rows)
    for a in range(n):
        for b in range(n):
            assert gm.rows[a][b] == gm.rows[b][a]


def test_gram_methods_agree():
    lam, mu = (1, 1, 1), (0, 1, 0)
    auto = gram_matrix(lam, mu, method="auto")
    straight = gram_matrix(lam, mu, method="straighten")
    assert auto.rows == straight.rows


def test_gram_on_combinations_diagonal():
    lam = (1, 1, 0)
    mons = spanning_monomials(lam, (0, 0, 1))
    sub = gram_on_combinations(lam, (0, 0, 1), [{mons[0]: 1}])
    assert sub == [[2]]


def test_rank_helpers():
    A = [[2, -1], [-1, 2]]
    assert rational_rank(A) == 2
    assert rank_mod_p(A, 3) == 1
    assert rank_mod_p(A, 2) == 2
    # entries near p, whose products pass int64 at these primes
    for p in (10000000019, 2 ** 61 - 1):
        u = [p - 1, p - 2, p - 3]
        assert rank_mod_p([u, [2 * x for x in u], [3 * x for x in u]], p) == 1
        assert rank_mod_p([u, [p - 2, p - 1, p - 3]], p) == 2


def test_smith_normal_form_known():
    assert smith_normal_form([[2, -1], [-1, 2]]) == [1, 3]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]


def test_smith_normal_form_divisibility():
    divs = smith_normal_form([[6, 4, 2], [4, 6, 4], [2, 4, 6]])
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0


@given(weights)
@settings(max_examples=25, deadline=None)
def test_rational_rank_equals_weyl_multiplicity(lam):
    from typea_irreps.weyl_orbits import subdominant_weights
    for mu in subdominant_weights(lam)[:3]:
        try:
            gm = gram_matrix(lam, mu, cap=400)
        except ResourceExceeded:
            continue
        assert rational_rank(gm) == weyl_multiplicity(lam, mu)
        # p above every elementary divisor: the head keeps the whole space
        for p in (1000003, 10000000019):
            assert irreducible_multiplicity(lam, mu, p) == weyl_multiplicity(lam, mu)


@pytest.mark.parametrize("lam,mu,p,m", [
    ((1, 1, 0), (0, 0, 1), 3, 1),
    ((1, 1, 0), (0, 0, 1), 2, 2),
    ((1, 0, 1), (0, 0, 0), 2, 2),
    ((1, 0, 1), (0, 0, 0), 3, 3),
    ((0, 1, 1, 0, 0), (0, 0, 0, 0, 1), 2, 4),
    ((2, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 0, 0), 3, 27),
])
def test_irreducible_multiplicity(lam, mu, p, m):
    assert irreducible_multiplicity(lam, mu, p) == m


def test_irreducible_multiplicity_methods_agree():
    for lam, mu, primes in (
            ((1, 1, 1), (0, 1, 0), (2, 3, 5)),
            ((0, 3, 0, 0, 0, 0, 0, 3, 0), (1, 0, 0, 0, 1, 0, 2, 0, 0), (2, 3, 7))):
        for p in primes:
            stream = irreducible_multiplicity(lam, mu, p)
            dense = irreducible_multiplicity(lam, mu, p, method="dense")
            assert stream == dense, (lam, mu, p)


def test_irreducible_multiplicity_rejects_composite_char():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7, and 318665857834031151167461 to every prime
    # base up to 37; the last value is past PRIME_BOUND
    for p in (6, 561, 3215031751, (2 ** 61 - 1) * (2 ** 31 - 1),
              318665857834031151167461, 10 ** 25 + 13):
        with pytest.raises(ValueError):
            irreducible_multiplicity((1, 1, 0), (0, 0, 1), p)


def _w(l, *pairs):
    out = [0] * l
    for node, a in pairs:
        out[node - 1] += a
    return tuple(out)


@pytest.mark.parametrize("lam,mu,p", [
    (_w(19, (1, 4), (19, 1)), _w(19, (3, 1)), 5),
    (_w(19, (1, 1), (18, 2)), _w(19, (17, 1)), 3),
    (_w(20, (1, 1), (19, 2)), _w(20, (18, 1)), 3),
])
def test_multiplicity_on_large_spanning_sets(lam, mu, p):
    # 327680-655360 spanning monomials, past any spanning-set cap tried;
    # 19-37 tableaux
    assert irreducible_multiplicity(lam, mu, p) == 19


@given(st.integers(1, 5).flatmap(lambda l: st.tuples(*[st.integers(0, 2)] * l)),
       st.data())
@settings(max_examples=40, deadline=None)
def test_tableau_count_equals_weyl_multiplicity(lam, data):
    mus = subdominant_weights(lam)
    table = weyl_multiplicity_table(lam)
    for mu in data.draw(st.lists(st.sampled_from(mus), min_size=1, max_size=4)):
        mons = tableau_monomials(lam, mu)
        assert len(mons) == table[mu] == weyl_multiplicity(lam, mu)
        assert len(set(mons)) == len(mons)


def _basis_cells():
    for l in (1, 2, 3):
        for lam in product(range(3), repeat=l):
            for mu in subdominant_weights(lam):
                yield lam, mu
    pool = Path(__file__).resolve().parents[1] / "perfbench" / "cells.json"
    with open(pool) as fh:
        cells = json.load(fh)["gram"]
    yield from sorted({(tuple(c["lam"]), tuple(c["mu"]))
                       for c in cells if c["monomials"] <= 40})


def test_tableau_monomials_are_a_lattice_basis():
    # a sublattice of index k has k^2 times the lattice's Gram determinant,
    # so the tableau Gram has the nonzero divisors of the full spanning
    # set's Gram only if its images span the same lattice; this also pins
    # the ascending root order of the factors (reverse order fails)
    for lam, mu in _basis_cells():
        full = smith_normal_form(gram_matrix(lam, mu))
        basis = [{mon: 1} for mon in tableau_monomials(lam, mu)]
        tableau = smith_normal_form(gram_on_combinations(lam, mu, basis))
        assert tableau == [d for d in full if d], (lam, mu)


def test_cap_raises_with_blocking():
    with pytest.raises(ResourceExceeded) as info:
        irreducible_multiplicity((2, 2, 2), (0, 0, 0), 2, cap=3)
    assert info.value.blocking == (0, 0, 0)


def test_format_parse_round_trip():
    gm = gram_matrix((1, 1, 0), (0, 0, 1))
    assert parse_gram(format_gram(gm)) == gm.rows
