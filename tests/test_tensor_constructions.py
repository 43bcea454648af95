import pytest

from typea_irreps.dim_classifier import table_row_dimension
from typea_irreps.tensor_constructions import (
    NOT_SINGULAR,
    _divided_lowerings,
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
    # residues mod 5 are not a lattice: f^2(3 e1 x e1) = 6 e2 x e2 reads
    # 1 mod 5, which 2 does not divide
    v = SparseTensor(2, {(1, 1): 3}, modulus=5)
    with pytest.raises(ArithmeticError):
        _divided_lowerings(v, 1, 1)
    assert [t.data for t in _divided_lowerings(SparseTensor(2, {(1, 1): 3}), 1, 1)] == \
        [{(2, 1): 3, (1, 2): 3}, {(2, 2): 3}]
