import random
from itertools import combinations

import pytest

from bigalg.kirillov import derivation_chain, wei_D
from bigalg.linalg import QMatrix
from bigalg.multipoly import MultiPoly, rat
from bigalg.polymatrix import PolyMatrix, sum_of_products
from bigalg.reps import build_irrep
from oracles import (
    basis_names,
    column_entries,
    companion,
    diagonal,
    equivariance_check,
    evaluate,
    homogeneity_check,
    inverse,
    is_homogeneous,
    mat_diff,
    medium_operator,
    small_operator,
    trace_form,
)


def _at(mat, coords):
    """The value of an operator-valued polynomial at a Lie-algebra coordinate column."""
    return mat.evaluate({"x%d" % i: c for i, c in enumerate(column_entries(coords))})


def _scalar(rep, poly):
    """poly times the identity of the module, over the coordinate ring."""
    return PolyMatrix.scalar(rep.L.x_ring, rep.dim, poly)


def test_small_operator_evaluations(octet, sl3_standard, L3):
    m1 = small_operator(octet)
    assert _at(m1, L3.coords_of(L3.h)) == octet.op(L3.coords_of(L3.h))
    assert _at(m1, QMatrix.zeros(L3.dim, 1)).is_zero()
    # the builder reproduces the defining basis for the standard module,
    # so evaluating the small operator at a point returns that very matrix
    m1_std = small_operator(sl3_standard)
    a = QMatrix(companion([5, -2]))
    assert _at(m1_std, L3.coords_of(a)) == a


def test_invariant_c2_sl2_is_determinant(L2):
    # oracle: det of the generic traceless 2x2 matrix expanded by hand
    ring = L2.x_ring
    names = dict(zip(basis_names(L2), ring.names))
    x12 = MultiPoly.variable(ring, names["E12"])
    x21 = MultiPoly.variable(ring, names["E21"])
    xh = MultiPoly.variable(ring, names["H1"])
    det = -(xh * xh) - x12 * x21
    assert L2.invariant_ck(2) == det


def test_invariant_ck_basics(L3):
    zeros = {nm: 0 for nm in L3.x_ring.names}
    assert evaluate(L3.invariant_ck(2), zeros) == 0
    assert evaluate(L3.invariant_ck(3), zeros) == 0
    values = dict(zip(L3.x_ring.names, column_entries(L3.coords_of(L3.h))))
    assert evaluate(L3.invariant_ck(2), values) == -4
    with pytest.raises(ValueError):
        L3.invariant_ck(4)


def test_medium_k2_is_minus_small(octet):
    med = medium_operator(octet, 2)
    small = small_operator(octet)
    assert med == small * rat(-1)
    assert is_homogeneous(med) == 1


def test_medium_k3_is_traceless_adjugate(octet, L3):
    # oracle: the adjugate of h with its trace projected away, applied via rho
    med = medium_operator(octet, 3)
    adj_h = diagonal([0, -4, 0])  # adjugate of diag(2, 0, -2)
    trace_part = adj_h.trace() / 3
    adj_tl = adj_h - QMatrix.identity(3) * trace_part
    expected = octet.op(L3.coords_of(adj_tl)) * rat(-1)
    assert _at(med, L3.coords_of(L3.h)) == expected
    assert _at(med, QMatrix.zeros(L3.dim, 1)).is_zero()


def test_wei_d_of_constant_vanishes(octet):
    const = _scalar(octet, MultiPoly.const(octet.L.x_ring, 7))
    assert wei_D(octet, const).is_zero()


def test_wei_d_refuses_a_matrix_off_the_module(octet, sl3_standard, L2):
    # the operand must be octet.dim x octet.dim over octet.L.x_ring
    ck = octet.L.invariant_ck(2)
    for mat in (
        _scalar(sl3_standard, ck),
        PolyMatrix.scalar(L2.x_ring, octet.dim, L2.invariant_ck(2)),
        PolyMatrix.zeros(octet.L.x_ring, octet.dim, octet.dim + 1),
    ):
        with pytest.raises(ValueError):
            wei_D(octet, mat)


def test_wei_d_ratio_to_small(octet, sl2_sym4):
    for rep in (octet, sl2_sym4):
        n = rep.L.n
        g12 = wei_D(rep, _scalar(rep, rep.L.invariant_ck(2)))
        assert g12 == small_operator(rep) * rat(-1, 4 * n)


def test_iterated_d_gives_degree_one(octet):
    g23 = derivation_chain(octet, 3, 2)[-1]
    assert is_homogeneous(g23) == 1
    assert not g23.is_zero()
    assert homogeneity_check(g23, 1)


def test_degrees_and_homogeneity(L4, decuplet, sl2_sym4):
    w2 = build_irrep(L4, (0, 1, 0))
    for rep in (w2, sl2_sym4):
        for k in range(2, rep.L.n + 1):
            for i, b in enumerate(derivation_chain(rep, k, k - 1), 1):
                if not b.is_zero():
                    assert is_homogeneous(b) == k - i
    for k in range(2, 4):
        for i, b in enumerate(derivation_chain(decuplet, k, k - 1), 1):
            assert homogeneity_check(b, k - i)


def test_equivariance(octet, decuplet, L3):
    assert equivariance_check(octet, small_operator(octet))
    for i, k in [(1, 2), (1, 3), (2, 3)]:
        assert equivariance_check(decuplet, derivation_chain(decuplet, k, i)[-1])
    # negative control: a non-invariant linear form times the identity
    bad = _scalar(octet, MultiPoly.variable(L3.x_ring, "x0"))
    assert not equivariance_check(octet, bad)


def test_commutators(octet):
    m1 = small_operator(octet)
    assert m1.commutator(m1).is_zero()
    gens = [derivation_chain(octet, k, i)[-1] for i, k in [(1, 2), (1, 3), (2, 3)]]
    mediums = gens[:2]
    for a, b in combinations(gens, 2):
        assert a.commutator(b).is_zero()
    probe = wei_D(octet, m1 * m1)
    for m in mediums:
        assert m.commutator(probe).is_zero()


def wei_D_in_basis(rep, mat, t):
    """D computed in the transformed basis X'_j = sum_i T_ij X_i."""
    L = rep.L
    ring = L.x_ring
    # rho of the new basis elements and the new Killing matrix
    new_rho = []
    for j in range(L.dim):
        m = QMatrix.zeros(rep.dim, rep.dim)
        for i in range(L.dim):
            if t.a[i][j]:
                m = m + rep.rho[i] * t.a[i][j]
        new_rho.append(m)
    kappa = t.transpose() * (trace_form(L) * (2 * L.n)) * t
    kappa_inv = inverse(kappa)
    duals = []
    for j in range(L.dim):
        m = QMatrix.zeros(rep.dim, rep.dim)
        for k in range(L.dim):
            if kappa_inv.a[j][k]:
                m = m + new_rho[k] * kappa_inv.a[j][k]
        duals.append(m)
    # partials in the new coordinates: d/dx'_j = sum_i T_ij d/dx_i
    total = PolyMatrix.zeros(ring, rep.dim, rep.dim)
    for j in range(L.dim):
        d = PolyMatrix.zeros(ring, rep.dim, rep.dim)
        for i in range(L.dim):
            if t.a[i][j]:
                d = d + mat_diff(mat, "x%d" % i) * t.a[i][j]
        if not d.is_zero():
            total = total + sum_of_products(ring, rep.dim, rep.dim, [(1, duals[j], d)])
    return total * rat(1, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_wei_d_basis_independence(n, L2, L3):
    L = L2 if n == 2 else L3
    rep = build_irrep(L, (1,) * (n - 1))
    rng = random.Random(4)
    while True:
        t = QMatrix(
            [[rng.randint(-2, 2) for _ in range(L.dim)] for _ in range(L.dim)]
        )
        try:
            inverse(t)
            break
        except ValueError:
            continue
    c2 = _scalar(rep, L.invariant_ck(2))
    assert wei_D_in_basis(rep, c2, t) == wei_D(rep, c2)
    # a degree-two input as well
    if n == 3:
        c3 = _scalar(rep, L.invariant_ck(3))
        d1 = wei_D(rep, c3)
        assert wei_D_in_basis(rep, c3, t) == d1
        assert wei_D_in_basis(rep, d1, t) == wei_D(rep, d1)
