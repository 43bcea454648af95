import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from typea_irreps.freudenthal import weyl_dimension
from typea_irreps.root_system import (
    dominance_leq,
    dual_weight,
    epsilon_coordinates,
    is_dominant,
    rank_of,
)
from typea_irreps.weyl_orbits import (
    orbit_size,
    premet_bound_exceeds,
    premet_lower_bound,
    subdominant_weights,
)

weights = st.integers(2, 5).flatmap(
    lambda l: st.tuples(*[st.integers(0, 3)] * l))


def test_orbit_size_fundamental():
    # orbit of lambda_k is the k-subsets of l+1 letters
    for l in range(1, 7):
        for k in range(1, l + 1):
            w = tuple(1 if i == k else 0 for i in range(1, l + 1))
            assert orbit_size(w) == math.comb(l + 1, k)


def test_orbit_size_regular():
    # regular weight: full symmetric group
    assert orbit_size((1, 1, 1)) == 24


def test_orbit_size_zero():
    assert orbit_size((0, 0, 0, 0)) == 1


@given(weights)
def test_orbit_size_divides_group_order(w):
    assert math.factorial(rank_of(w) + 1) % orbit_size(w) == 0


@given(weights)
def test_orbit_size_dual_invariant(w):
    assert orbit_size(dual_weight(w)) == orbit_size(w)


def test_subdominant_weights_example():
    got = subdominant_weights((1, 1, 0, 0))
    assert set(got) == {(1, 1, 0, 0), (0, 0, 1, 0)}


def test_subdominant_weights_proper_drops_top():
    full = subdominant_weights((2, 0, 0, 2))
    proper = subdominant_weights((2, 0, 0, 2), proper=True)
    assert set(full) - set(proper) == {(2, 0, 0, 2)}


@given(weights)
@settings(max_examples=40)
def test_subdominant_weights_are_dominant_and_below(w):
    for mu in subdominant_weights(w):
        assert is_dominant(mu)
        assert dominance_leq(mu, w)


@given(weights)
@settings(max_examples=40)
def test_subdominant_weights_sorted_and_unique(w):
    mus = subdominant_weights(w)
    assert sorted(set(mus)) == list(mus)


def test_premet_lower_bound_adjoint():
    lam = (1, 0, 0, 0, 1)
    assert premet_lower_bound(lam) <= weyl_dimension(lam)


@given(weights)
@settings(max_examples=40)
def test_premet_bound_below_weyl_dimension(w):
    assert premet_lower_bound(w) <= weyl_dimension(w)


def _premet_caps_agree(w, extra=()):
    # the early-stopping walk against the plain reference sum, at the caps
    # where the answer flips and at 0
    full = premet_lower_bound(w)
    for cap in (full - 1, full, 0) + tuple(extra):
        assert premet_bound_exceeds(w, cap) == (full > cap), (w, cap, full)


@given(weights, st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_premet_bound_exceeds_consistent(w, s, data):
    below = data.draw(st.integers(0, premet_lower_bound(w) - 1))
    _premet_caps_agree(w, ((rank_of(w) + 1) ** s, below))


@pytest.mark.parametrize("l", [19, 26, 36, 37])
def test_premet_bound_exceeds_consistent_grid_weights(l):
    # weights of the shapes the classification search meets at its ranks
    def w(*pairs):
        out = [0] * l
        for pos, a in pairs:
            out[pos - 1] += a
        return tuple(out)

    for lam in (w((1, 1)), w((1, 1), (l, 1)), w((1, 2), (l, 1)),
                w((1, 1), (2, 1), (l, 1))):
        full = premet_lower_bound(lam)
        _premet_caps_agree(lam, (full // 2, (l + 1) ** 3, (l + 1) ** 4))


def test_premet_orbit_sum_by_brute_force():
    # |W.mu| counted as the distinct rearrangements of mu's epsilon row,
    # with no multinomial formula, for every lam with l <= 4, entries <= 2
    for l in range(1, 5):
        for lam in itertools.product(range(3), repeat=l):
            count = sum(len(set(itertools.permutations(epsilon_coordinates(mu))))
                        for mu in subdominant_weights(lam))
            assert premet_lower_bound(lam) == count
            for cap in range(count + 2):
                assert premet_bound_exceeds(lam, cap) == (count > cap), (lam, cap)


def test_premet_bound_monotone_in_coefficient():
    # growing one coefficient never shrinks the bound
    for k in range(4):
        lo = (1, 0, 1, 0)
        hi = tuple(c + (1 if i == k else 0) for i, c in enumerate(lo))
        assert premet_lower_bound(hi) >= premet_lower_bound(lo)
