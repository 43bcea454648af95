import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from typea_irreps.dim_classifier import table_rows
from typea_irreps.freudenthal import (
    dominant_conjugate,
    weyl_dimension,
    weyl_multiplicity,
    weyl_multiplicity_table,
)
from typea_irreps.root_system import dual_weight, epsilon_coordinates, rank_of
from typea_irreps.weyl_orbits import orbit_size, subdominant_weights

weights = st.integers(2, 5).flatmap(
    lambda l: st.tuples(*[st.integers(0, 3)] * l))


@pytest.mark.parametrize("lam,dim", [
    ((1, 0, 0), 4),
    ((0, 1, 0), 6),
    ((1, 0, 1), 15),
    ((2, 0, 0, 0), 15),
    ((1, 1, 0, 0), 40),
    ((0, 2, 0), 20),
])
def test_weyl_dimension_small(lam, dim):
    assert weyl_dimension(lam) == dim


def test_weyl_dimension_fundamental():
    for l in range(1, 8):
        for k in range(1, l + 1):
            w = tuple(1 if i == k else 0 for i in range(1, l + 1))
            assert weyl_dimension(w) == math.comb(l + 1, k)


@given(weights)
def test_weyl_dimension_dual_invariant(w):
    assert weyl_dimension(dual_weight(w)) == weyl_dimension(w)


def test_weyl_multiplicity_highest():
    assert weyl_multiplicity((1, 1, 0), (1, 1, 0)) == 1


def test_weyl_multiplicity_adjoint_zero_weight():
    # zero weight of the adjoint has multiplicity l
    for l in (2, 3, 4, 5):
        adj = tuple(1 if i in (1, l) else 0 for i in range(1, l + 1))
        assert weyl_multiplicity(adj, (0,) * l) == l


def test_weyl_multiplicity_rejects_non_subdominant():
    with pytest.raises(ValueError):
        weyl_multiplicity((1, 0, 0), (0, 1, 0))


def test_weyl_multiplicity_table_keys():
    lam = (1, 0, 1, 0)
    table = weyl_multiplicity_table(lam)
    assert set(table) == set(subdominant_weights(lam))
    assert table[lam] == 1


@given(weights)
@settings(max_examples=30, deadline=None)
def test_orbit_sum_recovers_dimension(w):
    total = sum(orbit_size(mu) * weyl_multiplicity(w, mu)
                for mu in subdominant_weights(w))
    assert total == weyl_dimension(w)


@given(weights)
@settings(max_examples=30, deadline=None)
def test_multiplicity_dual_symmetry(w):
    for mu in subdominant_weights(w):
        assert weyl_multiplicity(dual_weight(w), dual_weight(mu)) == \
            weyl_multiplicity(w, mu)


def test_dominant_conjugate_fixes_dominant():
    assert dominant_conjugate((2, 0, 1)) == (2, 0, 1)


def test_dominant_conjugate_sorts():
    l = 3
    w = (-1, 1, 0)
    dom = dominant_conjugate(w)
    assert rank_of(dom) == l
    assert all(c >= 0 for c in dom)


def _kostka(shape, content):
    """Semistandard tableaux of the given shape and content, counted one by
    one.  Letter x fills a horizontal strip of content[x] boxes: row i grows
    to at most the old length of row i - 1 (columns strictly increase), and
    never past shape[i]."""
    m = len(shape)

    def add(x, nu):
        if x == len(content):
            return 1  # every box is filled: the totals agree
        new = list(nu)

        def place(i, left):
            if i == m:
                return add(x + 1, tuple(new)) if left == 0 else 0
            room = min(shape[i], nu[i - 1] if i else shape[0]) - nu[i]
            count = 0
            for t in range(min(room, left) + 1):
                new[i] = nu[i] + t
                count += place(i + 1, left - t)
            new[i] = nu[i]
            return count

        return place(0, content[x])

    return add(0, (0,) * m)


def _check_kostka(lam):
    shape = epsilon_coordinates(lam)
    table = weyl_multiplicity_table(lam)
    for mu, mult in table.items():
        content = epsilon_coordinates(mu)
        shift, rem = divmod(sum(shape) - sum(content), len(content))
        assert rem == 0
        content = [x + shift for x in content]
        assert mult == _kostka(shape, content), (lam, mu)


def test_multiplicities_are_kostka_numbers():
    # type A weight multiplicities are Kostka numbers K_{lam, mu}
    for l in range(1, 4):
        for lam in itertools.product(range(4), repeat=l):
            _check_kostka(lam)


@given(st.tuples(*[st.integers(0, 3)] * 4))
@settings(max_examples=20, deadline=None)
def test_multiplicities_are_kostka_numbers_rank_4(lam):
    _check_kostka(lam)


@pytest.mark.parametrize("l", [36, 37])
def test_large_rank_orbit_sum_and_adjoint(l):
    # the exponent-4 rows at the paper's top ranks
    for row in table_rows("t2"):
        if row.applicable_rank(l):
            lam = row.weight_at(l)
            table = weyl_multiplicity_table(lam)
            assert sum(orbit_size(mu) * m for mu, m in table.items()) == \
                weyl_dimension(lam), row.row_id
    adj = tuple(1 if i in (1, l) else 0 for i in range(1, l + 1))
    assert weyl_multiplicity(adj, (0,) * l) == l
