import pytest
from hypothesis import given, strategies as st

from typea_irreps.root_system import (
    dominance_leq,
    dual_weight,
    epsilon_coordinates,
    format_weight,
    is_dominant,
    is_restricted,
    parse_weight,
    positive_roots,
    rank_of,
    rho,
    root_coordinates,
    support,
)

weights = st.integers(1, 6).flatmap(
    lambda l: st.tuples(*[st.integers(0, 4)] * l))


def test_positive_roots_count():
    for l in range(1, 8):
        assert len(positive_roots(l)) == l * (l + 1) // 2


def test_positive_roots_are_intervals():
    for i, j in positive_roots(5):
        assert 1 <= i <= j <= 5


def test_rho_is_all_ones():
    assert rho(4) == (1, 1, 1, 1)


@pytest.mark.parametrize("w,ok", [
    ((0, 0, 0), True),
    ((2, 0, 1), True),
    ((-1, 0, 0), False),
])
def test_is_dominant(w, ok):
    assert is_dominant(w) is ok


def test_is_restricted():
    assert is_restricted((1, 1, 1), 2)
    assert not is_restricted((2, 0, 0), 2)
    assert is_restricted((2, 0, 0), 3)


def test_support():
    assert support((0, 3, 0, 1)) == [2, 4]


@given(weights)
def test_dual_is_involution(w):
    assert dual_weight(dual_weight(w)) == w


@given(weights)
def test_dual_preserves_rank(w):
    assert rank_of(dual_weight(w)) == rank_of(w)


def test_epsilon_coordinates_example():
    # eps_m sums the tail of the coefficient vector
    assert epsilon_coordinates((1, 0, 2)) == (3, 2, 2, 0)


@given(weights)
def test_epsilon_coordinates_weakly_decreasing(w):
    eps = epsilon_coordinates(w)
    assert all(eps[i] >= eps[i + 1] for i in range(len(eps) - 1))


def test_root_coordinates_at_top():
    l = rank_of((1, 1, 0, 0))
    assert root_coordinates((1, 1, 0, 0), (1, 1, 0, 0)) == (0,) * l


def test_root_coordinates_interior():
    assert root_coordinates((0, 2, 0), (1, 0, 1)) == (0, 1, 0)
    # lam - 0 = alpha_1 + 2 alpha_2 + alpha_3
    assert root_coordinates((0, 2, 0), (0, 0, 0)) == (1, 2, 1)


def test_root_coordinates_none_when_not_below():
    assert root_coordinates((1, 0, 0), (0, 1, 0)) is None
    assert root_coordinates((1, 0, 0), (0, 0, 1)) is None


def test_dominance_leq():
    assert dominance_leq((1, 0, 1), (0, 2, 0))
    assert not dominance_leq((0, 2, 0), (1, 0, 1))


@given(weights)
def test_dominance_reflexive(w):
    assert dominance_leq(w, w)


@pytest.mark.parametrize("text,l,w", [
    ("0", 4, (0, 0, 0, 0)),
    ("1:1,2:1", 4, (1, 1, 0, 0)),
    ("[1,0,0,2]", 4, (1, 0, 0, 2)),
    ("4:3", 4, (0, 0, 0, 3)),
])
def test_parse_weight(text, l, w):
    assert parse_weight(text, l) == w


@pytest.mark.parametrize("text", ["5:1", "0:1", "[1,0]", "1:x", "1;2"])
def test_parse_weight_rejects(text):
    with pytest.raises(ValueError):
        parse_weight(text, 4)


@given(weights)
def test_format_parse_round_trip(w):
    assert parse_weight(format_weight(w), rank_of(w)) == w


def test_format_weight_zero():
    assert format_weight((0, 0, 0)) == "0"
