import math

import pytest
from hypothesis import given, settings, strategies as st

from typea_irreps.dim_classifier import (
    NOT_APPLICABLE,
    STRATEGIES,
    brute_force_small,
    dim_irreducible,
    enumerate_small_irreducibles,
    table_row_dimension,
    table_rows,
    verify_tables,
)
from typea_irreps.freudenthal import weyl_dimension
from typea_irreps.root_system import dual_weight
from typea_irreps.verma_gram import ResourceExceeded

PRIMES = (2, 3, 5, 7)


@pytest.mark.parametrize("lam,p,dim", [
    ((1, 1) + (0,) * 17, 3, 1520),
    ((1, 0, 0, 0, 0, 1), 7, 47),
    ((1, 0, 0, 0, 0, 1), 7, 47),
    ((1, 0, 1), 2, 14),
    ((1, 0, 1), 3, 15),
    ((1, 1, 0, 0), 3, 30),
    ((1, 1, 0, 0), 5, 40),
])
def test_dim_examples(lam, p, dim):
    assert dim_irreducible(lam, p).value == dim


def test_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        dim_irreducible((2, 0, 0), 2)
    with pytest.raises(ValueError):
        dim_irreducible((-1, 0, 0), 3)
    with pytest.raises(ValueError):
        dim_irreducible((1, 0, 0), 3, strategy="fastest")


def test_dim_breakdown_accounts_for_total():
    res = dim_irreducible((1, 1, 0, 0), 3)
    total = sum(int(t.orbit) * t.multiplicity for t in res.breakdown)
    assert total == res.value


def test_dim_strategies_agree():
    from typea_irreps.root_system import is_restricted
    for lam in ((1, 1, 0), (2, 0, 1), (1, 0, 0, 1)):
        for p in (2, 3, 5):
            if not is_restricted(lam, p):
                continue
            vals = set()
            for strategy in STRATEGIES:
                try:
                    vals.add(dim_irreducible(lam, p, strategy=strategy).value)
                except ResourceExceeded:
                    continue
            assert len(vals) == 1


@given(st.integers(2, 4).flatmap(
    lambda l: st.tuples(*[st.integers(0, 1)] * l)),
    st.sampled_from(PRIMES))
@settings(max_examples=25, deadline=None)
def test_dim_dual_invariant(lam, p):
    if not any(lam):
        return
    a = dim_irreducible(lam, p).value
    b = dim_irreducible(dual_weight(lam), p).value
    assert a == b


def test_dim_char_zero_limit_is_weyl():
    # big prime: no rank drop anywhere
    lam = (1, 1, 0)
    assert dim_irreducible(lam, 101).value == weyl_dimension(lam)


def test_to_dict_uses_decimal_strings():
    d = dim_irreducible((1, 0, 1), 3).to_dict()
    assert d["value"] == "15"
    assert all(isinstance(t["multiplicity"], str) for t in d["breakdown"])


def test_table_rows_registry():
    ids = [r.row_id for r in table_rows()]
    assert len(ids) == len(set(ids)) == 30
    assert len(table_rows("t1")) == 10
    assert len(table_rows("t2")) == 16
    assert len(table_rows("remark")) == 4


def test_table_row_dimension_values():
    assert table_row_dimension("t1:l1", 19, 3) == 20
    assert table_row_dimension("t1:l1+l2", 19, 3) == 1520
    assert table_row_dimension("t1:l1+ll", 6, 7) == 47
    assert table_row_dimension("t2:2l1+2ll", 4, 3) == math.comb(6, 2) ** 2 - 25 - 1


def test_table_row_dimension_bare_name():
    assert table_row_dimension("l1", 19, 3) == 20
    assert table_row_dimension("l4", 5, 2) == table_row_dimension("t1:l4", 5, 2)


def test_table_row_dimension_not_applicable():
    assert table_row_dimension("t1:l3", 2, 5) is NOT_APPLICABLE
    assert not table_row_dimension("t1:l3", 2, 5)
    assert table_row_dimension("t1:l4", 40, 5) is NOT_APPLICABLE


def test_table_row_dimension_unknown():
    with pytest.raises(KeyError):
        table_row_dimension("t9:nope", 4, 3)


def test_table_rows_match_direct_dimension():
    # registered closed forms equal the computed dimensions on a spot grid
    for row in table_rows("t1"):
        for l, p in ((5, 3), (6, 5)):
            lam = row.weight_at(l)
            if lam is None or not all(c < p for c in lam):
                continue
            want = table_row_dimension(row.row_id, l, p)
            if not want:
                continue
            assert dim_irreducible(lam, p).value == want


def test_enumerate_example_grid():
    report = enumerate_small_irreducibles(4, 5, 2)
    got = {e.weight: int(e.dim) for e in report.entries}
    assert got == {(1, 0, 0, 0): 5, (0, 1, 0, 0): 10,
                   (2, 0, 0, 0): 15, (1, 0, 0, 1): 23}


def test_enumerate_folds_duals():
    report = enumerate_small_irreducibles(4, 5, 2)
    for e in report.entries:
        assert e.weight >= dual_weight(e.weight)


def test_enumerate_prunes():
    report = enumerate_small_irreducibles(4, 5, 2)
    assert int(report.pruned_count) > 0
    assert int(report.visited_count) > int(report.pruned_count)


def test_enumerate_sorted_by_dimension():
    report = enumerate_small_irreducibles(5, 3, 2)
    dims = [int(e.dim) for e in report.entries]
    assert dims == sorted(dims)


def test_enumerate_threads_deterministic():
    a = enumerate_small_irreducibles(4, 3, 2, threads=1)
    b = enumerate_small_irreducibles(4, 3, 2, threads=3)
    assert a.to_dict() == b.to_dict()


def test_enumerate_strategy_independent():
    a = enumerate_small_irreducibles(4, 5, 2, strategy="oracle-first")
    b = enumerate_small_irreducibles(4, 5, 2, strategy="gram-only")
    assert [(e.weight, e.dim) for e in a.entries] == \
        [(e.weight, e.dim) for e in b.entries]


def test_search_checks_each_weight_once(monkeypatch):
    from typea_irreps import dim_classifier
    calls = []
    bound = dim_classifier.premet_bound_exceeds

    def recording(w, cap):
        calls.append((w, bound(w, cap)))
        return calls[-1][1]

    monkeypatch.setattr(dim_classifier, "premet_bound_exceeds", recording)
    report = enumerate_small_irreducibles(6, 5, 3)
    weights = [w for w, _ in calls]
    assert len(weights) == len(set(weights)) == report.visited_count
    pruned = [w for w, cut in calls if cut]
    assert len(pruned) == report.pruned_count > 0
    for w in pruned:
        # a weight is checked when its last nonzero coefficient is set
        pos = max(k for k, a in enumerate(w) if a)
        for v in weights:
            assert not (v[:pos] == w[:pos] and v[pos] > w[pos]), (w, v)


def test_brute_force_agrees_with_pruned():
    for l, p in ((3, 2), (4, 3), (3, 7)):
        brute = brute_force_small(l, p, 2)
        pruned = enumerate_small_irreducibles(l, p, 2)
        folded = {}
        for w, d in brute:
            key = max(w, dual_weight(w))
            folded[key] = d
        assert {e.weight: int(e.dim) for e in pruned.entries} == \
            {w: int(d) for w, d in folded.items()}


def test_verify_tables_clean_cell():
    check = verify_tables(19, 2, 3)
    assert not check.missing and not check.extra
    assert len(check.matched) == 7


def test_verify_tables_matches_are_rows():
    check = verify_tables(19, 5, 3)
    ids = {row_id for row_id, _, _ in check.matched}
    assert "t1:l1" in ids
    assert not check.missing and not check.extra
