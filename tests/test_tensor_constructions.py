from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import given, strategies as st

from typea_irreps.dim_classifier import table_row_dimension
from typea_irreps.tensor_constructions import (
    NOT_SINGULAR,
    _Elimination,
    _hook_divided_lowerings,
    _hook_lower,
    _pair_swap_span,
    SparseTensor,
    apply_young_symmetrizer,
    contraction_kernel_dim,
    highest_weight_tensor,
    lower_root,
    lowering_closure,
    raise_simple,
    singular_vector,
    wedge_tensor,
    young_highest_weight_vector,
    young_image_lattice_rank,
    young_symmetrizer_module,
)
from typea_irreps.verma_gram import ResourceExceeded

PRIMES = (2, 3, 5, 7)


def test_sparse_tensor_drops_zeros():
    t = SparseTensor(2, {(1, 2): 3, (2, 1): 0})
    assert len(t.data) == 1


def test_sparse_tensor_modular_reduction():
    t = SparseTensor(1, {(1,): 5, (2,): 3}, modulus=3)
    assert t.data == {(1,): 2}


def test_sparse_tensor_add_scale():
    a = SparseTensor(1, {(1,): 1})
    b = SparseTensor(1, {(1,): -1, (2,): 2})
    assert (a.add(b)).data == {(2,): 2}
    assert a.scale(4).data == {(1,): 4}


def test_wedge_tensor_antisymmetry():
    w = wedge_tensor((1, 2))
    assert w.data == {(1, 2): 1, (2, 1): -1}


def test_lower_and_raise_are_adjoint_moves():
    # f then e on a simple wedge returns a multiple of the start
    w = wedge_tensor((1, 3))
    down = lower_root(w, 1, 1)
    back = raise_simple(down, 1)
    assert back.data == w.data


def test_highest_weight_tensor_degree():
    t = highest_weight_tensor((1, 1, 0))
    assert t.degree == 3
    assert bool(t)


def test_highest_weight_tensor_killed_by_raising():
    t = highest_weight_tensor((1, 1, 0, 0))
    for k in range(1, 5):
        assert not raise_simple(t, k)


@pytest.mark.parametrize("k,l,p,kernel,quotient", [
    (2, 4, 5, 40, None),
    (2, 4, 3, 40, 30),
    (2, 4, 2, 40, None),
    (3, 4, 2, 45, 40),
    (3, 4, 3, 45, None),
    (2, 3, 3, 20, 16),
    (2, 3, 2, 20, None),
])
def test_contraction_kernel(k, l, p, kernel, quotient):
    assert contraction_kernel_dim(k, l, p) == (kernel, quotient)


def test_contraction_matches_registered_rows():
    # kernel of V (x) wedge^k V -> wedge^(k-1) V carries l1 + lk
    for l in (3, 4, 5):
        for p in PRIMES:
            kernel, quotient = contraction_kernel_dim(2, l, p)
            want = table_row_dimension("t1:l1+l2", l, p)
            got = kernel if quotient is None else quotient
            assert got == want


def test_contraction_rank_cap():
    with pytest.raises(ResourceExceeded):
        contraction_kernel_dim(2, 12, 3)


def test_contraction_rejects_bad_k():
    with pytest.raises(ValueError):
        contraction_kernel_dim(0, 4, 3)
    with pytest.raises(ValueError):
        contraction_kernel_dim(5, 4, 3)


def test_young_hwv_is_eigenvector():
    for l in (3, 4):
        v = young_highest_weight_vector(l)
        image = apply_young_symmetrizer(l, v)
        items = dict(image.items())
        base = dict(v.items())
        key = next(iter(base))
        ratio = items[key] // base[key]
        assert ratio > 0
        assert items == {el: cf * ratio for el, cf in base.items()}


def test_young_symmetrizer_idempotent_up_to_scalar():
    # c.c = n c on the image vector
    l = 3
    v = young_highest_weight_vector(l)
    once = apply_young_symmetrizer(l, v)
    twice = apply_young_symmetrizer(l, once)
    items1 = dict(once.items())
    items2 = dict(twice.items())
    key = next(iter(items1))
    n = items2[key] // items1[key]
    assert items2 == {el: cf * n for el, cf in items1.items()}


def test_young_image_lattice_rank_char_zero():
    assert young_image_lattice_rank(3) == 36
    assert young_image_lattice_rank(4) == 70


@pytest.mark.parametrize("l", (3, 4))
@pytest.mark.parametrize("p", PRIMES)
def test_young_module_matches_registered_row(l, p):
    weyl, irreducible = young_symmetrizer_module(l, p)
    assert weyl == young_image_lattice_rank(l)
    assert irreducible == table_row_dimension("t1:2l1+ll", l, p)


def _expand(vec, l):
    """Full tensor of a hook-coordinate vector: both orders of the pair,
    every signed order of the tail."""
    data = {}
    for key, val in vec.items():
        a, b, tail = key[0], key[1], key[2:]
        for order, sign in wedge_tensor(tail).items():
            for pair in {(a, b), (b, a)}:
                data[pair + order] = data.get(pair + order, 0) + sign * val
    return SparseTensor(l + 2, data)


def _restrict(tensor):
    """Coefficients on the hook keys: a <= b, strictly increasing tail."""
    return {k: v for k, v in tensor.items()
            if k[0] <= k[1] and all(x < y for x, y in zip(k[2:], k[3:]))}


def _reference_divided_lowerings(vec, i, j):
    out = []
    for s in count(1):
        data = {}
        for key, val in lower_root(vec, i, j).items():
            q, r = divmod(val, s)
            if r:
                raise ArithmeticError((val, key, s))
            data[key] = q
        if not data:
            return out
        vec = SparseTensor(vec.degree, data)
        out.append(vec)


def _reference_young_module(l, p):
    """The closure without either shortcut: every interval root's divided
    powers on fully expanded tensors, and the expanded pair-swap span."""
    span = _Elimination(p)
    queue = [young_highest_weight_vector(l)]
    while queue:
        w = queue.pop()
        if not span.add(w.data):
            continue
        for a in range(1, l + 1):
            for b in range(a, l + 1):
                queue.extend(_reference_divided_lowerings(w, a, b))
    weyl = span.rank
    irreducible = weyl
    if (l + 2) % p == 0:
        sub = _Elimination(p)
        for vec in _reference_pair_swap_span(l):
            assert span.contains(vec)
            sub.add(vec)
        irreducible = weyl - sub.rank
    return weyl, irreducible


def _reference_pair_swap_span(l):
    wedge = wedge_tensor(range(1, l + 2))
    vecs = []
    for i in range(1, l + 2):
        data = {}
        for key, sign in wedge.items():
            for k2 in ((i,) + key, (key[0], i) + key[1:]):
                data[k2] = data.get(k2, 0) + sign
        vecs.append(data)
    return vecs


@pytest.mark.parametrize("l", (2, 3, 4))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 1000003))
def test_young_module_matches_reference_closure(l, p):
    assert young_symmetrizer_module(l, p) == _reference_young_module(l, p)


@pytest.mark.parametrize("l", (2, 3, 4))
def test_pair_swap_span_closed_form(l):
    assert _pair_swap_span(l) == [_restrict(SparseTensor(l + 2, t))
                                  for t in _reference_pair_swap_span(l)]


@st.composite
def hook_vectors(draw):
    l = draw(st.integers(1, 4))
    m = l + 1
    keys = [(a, b) + tail for a in range(1, m + 1) for b in range(a, m + 1)
            for tail in combinations(range(1, m + 1), l)]
    vec = draw(st.dictionaries(st.sampled_from(keys),
                               st.integers(-3, 3).filter(bool), max_size=8))
    return l, vec


@given(hook_vectors())
def test_hook_lowering_matches_expanded_tensor(case):
    l, vec = case
    full = _expand(vec, l)
    assert _restrict(full) == vec
    for i in range(1, l + 1):
        for j in range(i, l + 1):
            assert _hook_lower(vec, i, j + 1) == _restrict(lower_root(full, i, j))


def test_young_cap():
    with pytest.raises(ResourceExceeded):
        young_symmetrizer_module(5, 3)


def test_singular_vector_fires_on_divisibility():
    sv = singular_vector((1, 1, 0), 3)
    assert sv.condition == 3
    assert sv.mu == (0, 0, 1)
    assert bool(sv.vector)


def test_singular_vector_absent_otherwise():
    assert singular_vector((1, 1, 0), 5) is NOT_SINGULAR
    assert singular_vector((1, 1, 0), 2) is NOT_SINGULAR


def test_singular_vector_longer_interval():
    sv = singular_vector((1, 0, 1, 0), 2)
    assert sv.condition == 4
    assert sv.mu == (0, 0, 0, 1)


def test_singular_vector_needs_two_term_support():
    with pytest.raises(ValueError):
        singular_vector((1, 0, 0), 3)


def test_singular_vector_killed_by_raising():
    # annihilation holds mod p, the integral lift needs the reduction
    sv = singular_vector((1, 1, 0, 0), 3)
    v = sv.vector.reduce(3)
    for k in range(1, 5):
        assert not raise_simple(v, k)


def test_lowering_closure_spans_wedge_cube():
    # the singular line inside V (x) wedge^2 V generates all of wedge^3 V
    sv = singular_vector((1, 1, 0), 3)
    assert lowering_closure([sv.vector], 3, 3).rank == 4


def test_lowering_closure_cap():
    sv = singular_vector((1, 1, 0), 3)
    with pytest.raises(ResourceExceeded):
        lowering_closure([sv.vector], 3, 3, cap=2)


def test_divided_lowering_refuses_inexact_division():
    # off the lattice the division by 2 is not exact: f^2(1/2 e1.e1) =
    # e2.e2, and 2 does not divide 1 (the rational lift of the residue
    # 3 = 1/2 mod 5, which fails the same way)
    with pytest.raises(ArithmeticError):
        _hook_divided_lowerings({(1, 1): Fraction(1, 2)}, 1, 2)
    assert _hook_divided_lowerings({(1, 1): 3}, 1, 2) == [{(1, 2): 3}, {(2, 2): 3}]
