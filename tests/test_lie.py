import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bigalg import lie
from bigalg.linalg import QMatrix, kernel, rank
from bigalg.multipoly import MultiPoly, VarSet, rat
from bigalg.polymatrix import PolyMatrix
from oracles import (
    bracket_by_structure,
    bracket_coords,
    cartan_inv,
    column,
    companion,
    eps,
    h_pairing,
    ip,
    killing_by_structure,
    root_coords_rational,
    symbolic_section,
    trace_form,
)

RHO3 = (1, 1)


def test_rank_guard():
    with pytest.raises(ValueError):
        lie.TypeA(1)


def test_sl2_dimension_and_killing(L2):
    assert L2.dim == 3
    # kappa(h,h) = tr(ad(h)^2), with ad(h) built from matrix commutators
    ad_h = L2.ad_matrix(L2.h_coords)
    assert (ad_h * ad_h).trace() == 8
    h = L2.h_coords
    killing = trace_form(L2) * 4
    val = sum(
        (
            h[i, 0] * killing.a[i][j] * h[j, 0]
            for i in range(L2.dim)
            for j in range(L2.dim)
        ),
        rat(0),
    )
    assert val == 8


def test_killing_is_2n_times_trace():
    # the package forms 2n tr(XY); the oracle sums tr(ad X_i ad X_j) over
    # structure constants from products of sparse E_ij
    for n in range(2, 6):
        L = lie.TypeA(n)
        assert killing_by_structure(n) == trace_form(L) * (2 * n)
        assert killing_by_structure(n) * L.killing_inv == QMatrix.identity(L.dim)


def test_killing_inv_is_the_inverse_of_2n_times_trace():
    # killing_inv is written down from n C^-1; the oracle is the trace form
    for n in range(2, 9):
        L = lie.TypeA(n)
        assert L.killing_inv * (trace_form(L) * (2 * n)) == QMatrix.identity(L.dim), n


def test_bracket_matches_structure_constants():
    rng = random.Random(15)
    for n in range(2, 5):
        L = lie.TypeA(n)
        for _ in range(6):
            x, y = (
                [rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(L.dim)]
                for _ in range(2)
            )
            xm, ym = L.matrix_of(column(x)), L.matrix_of(column(y))
            assert L.coords_of(xm) == column(x)
            expected = column(bracket_by_structure(n, x, y))
            assert bracket_coords(L, xm, ym) == expected
            assert L.ad_matrix(column(x)) * column(y) == expected


def test_jacobi_identity(L3):
    dim = L3.dim
    basis = [column([rat(1) if i == j else rat(0) for j in range(dim)]) for i in range(dim)]

    def bracket(a, b):
        return bracket_coords(L3, L3.matrix_of(a), L3.matrix_of(b))

    rng = random.Random(5)
    triples = [tuple(rng.sample(range(dim), 3)) for _ in range(12)]
    for i, j, k in triples:
        a, b, c = basis[i], basis[j], basis[k]
        total = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert total.is_zero()


def test_principal_triple(L3):
    e, f, h = L3.e_coords, L3.coords_of(L3.f), L3.h_coords
    assert bracket_coords(L3, L3.h, L3.e) == e * 2
    assert bracket_coords(L3, L3.h, L3.f) == f * -2
    assert bracket_coords(L3, L3.e, L3.f) == h
    assert [L3.h.a[i][i] for i in range(3)] == [2, 0, -2]
    # e is regular nilpotent: centralizer of minimal dimension n-1
    assert L3.centralizer(e).cols == 2


def test_root_data(L3):
    assert len(lie.positive_roots(3)) == 3
    highest = tuple(a + b for a, b in zip(lie.simple_root(3, 1), lie.simple_root(3, 2)))
    assert ip(RHO3, highest) == 2
    for i in range(1, 3):
        assert ip(RHO3, lie.simple_root(3, i)) == 1
    assert lie.weyl_dim((3, 0)) == 10
    assert lie.weyl_dim((1, 1)) == 8


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 7))
def test_root_coords_is_the_inverse_cartan(data, n):
    pi = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)))
    exact = root_coords_rational(pi)
    got = lie.root_coords(pi)
    if any(x.denominator != 1 or x < 0 for x in exact):
        assert got is None
    else:
        assert got == tuple(exact)


def test_simple_roots_are_the_cartan_rows():
    for n in range(2, 8):
        c = QMatrix([lie.simple_root(n, i) for i in range(1, n)])
        assert c * cartan_inv(n) == QMatrix.identity(n - 1), n


def test_weyl_group():
    w2 = lie.weyl_group(2)
    assert len(w2) == 2 and sorted(s for _, s in w2) == [-1, 1]
    w3 = lie.weyl_group(3)
    assert len(w3) == 6 and sum(s for _, s in w3) == 0
    longest = max(
        w3,
        key=lambda ps: sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if ps[0][i] > ps[0][j]
        ),
    )
    assert lie.weyl_act(longest[0], RHO3) == (-1, -1)
    with pytest.raises(ValueError):
        lie.weyl_group(8)


def test_weyl_invariance_of_inner_product():
    rng = random.Random(2)
    weights = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
    for perm, _ in lie.weyl_group(4):
        for lam in weights:
            for mu in weights:
                assert ip(lam, mu) == ip(lie.weyl_act(perm, lam), lie.weyl_act(perm, mu))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 6))
def test_weyl_act_permutes_diagonal_coordinates(data, n):
    lam = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)))
    perm = data.draw(st.permutations(range(n)))
    v = eps(lam)
    assert eps(lie.weyl_act(perm, lam)) == [v[p] for p in perm]


def test_companion_sl2_explicit():
    ring = VarSet(["c2"])
    c2 = MultiPoly.variable(ring, "c2")
    m = PolyMatrix(ring, companion([c2]))
    assert m.a[0][0].is_zero() and m.a[1][1].is_zero()
    assert m.a[1][0] == 1
    assert m.a[0][1] == -c2
    # oracle: the 2x2 determinant expansion of lambda*I - A directly
    coeffs = lie.charpoly_coeffs_poly(m)
    assert coeffs[1].is_zero()  # trace zero
    assert coeffs[2] == c2


def test_companion_sl3_char_poly(L3):
    ring = VarSet(["c2", "c3"])
    cvars = [MultiPoly.variable(ring, nm) for nm in ring.names]
    coeffs = lie.charpoly_coeffs_poly(PolyMatrix(ring, companion(cvars)))
    assert coeffs[1].is_zero()
    assert coeffs[2] == cvars[0]
    assert coeffs[3] == cvars[1]
    nil = L3.matrix_of(column(lie.section_coords(L3, [0, 0])))
    assert rank(nil) == 2
    assert (nil.power(3)).is_zero()


def test_section_pattern_is_the_companion():
    # sum_i coords_i X_i over Q[c_2..c_n] against the companion built entry
    # by entry, and its characteristic polynomial lambda^n + sum c_k lambda^(n-k)
    for n in range(2, 8):
        L = lie.TypeA(n)
        ring, coords = symbolic_section(L)
        m = PolyMatrix.zeros(ring, n, n)
        for c, x in zip(coords, L.basis):
            m = m + PolyMatrix.from_qmatrix(ring, x) * c
        cvars = [MultiPoly.variable(ring, nm) for nm in ring.names]
        assert m == PolyMatrix(ring, companion(cvars)), n
        coeffs = lie.charpoly_coeffs_poly(m)
        assert coeffs[0] == 1 and coeffs[1].is_zero(), n
        assert coeffs[2:] == cvars, n


def test_numeric_section_is_the_companion():
    rng = random.Random(24)
    for n in range(2, 8):
        L = lie.TypeA(n)
        for _ in range(3):
            cvals = [rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1)]
            got = L.matrix_of(column(lie.section_coords(L, cvals)))
            assert got == QMatrix(companion(cvals)), (n, cvals)
    with pytest.raises(ValueError):
        lie.section_coords(lie.TypeA(3), [1])


def test_companion_regular_at_random_points(L3):
    rng = random.Random(9)
    for _ in range(4):
        cvals = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(2)]
        coords = column(lie.section_coords(L3, cvals))
        assert L3.centralizer(coords).cols == 2


def test_centralizer_examples(L3):
    # x = h: the diagonal Cartan
    cent_h = L3.centralizer(L3.h_coords)
    assert cent_h.cols == 2
    # x = e: oracle = kernel of ad(e) built from honest matrix brackets
    mats = L3.basis
    e_mat = L3.e
    cols = []
    for b in mats:
        cols.append(L3.coords_of(e_mat * b - b * e_mat))
    ad_e = QMatrix([[c[i, 0] for c in cols] for i in range(L3.dim)])
    oracle = kernel(ad_e)
    cent_e = L3.centralizer(L3.e_coords)
    assert cent_e == oracle and cent_e.cols == 2
    # x = 0: everything
    assert L3.centralizer(QMatrix.zeros(L3.dim, 1)) == QMatrix.identity(L3.dim)


def test_minuscule_min():
    assert lie.minuscule_min((1, 1)) == (0, 0)
    assert lie.minuscule_min((3, 0)) == (0, 0)  # 3*w1 = 0 mod root lattice
    assert lie.minuscule_min((5,)) == (1,)
    with pytest.raises(ValueError):
        lie.minuscule_min((1, -1))


def test_minuscule_min_is_in_the_class_mod_the_root_lattice():
    # 0 or a fundamental weight, differing from mu by a nonnegative integer
    # combination of simple roots (mu is dominant, so it lies above)
    for n in range(2, 6):
        for mu in product(range(4), repeat=n - 1):
            low = lie.minuscule_min(mu)
            assert sorted(low) in ([0] * (n - 1), [0] * (n - 2) + [1]), (n, mu)
            diff = root_coords_rational(tuple(a - b for a, b in zip(mu, low)))
            assert all(x.denominator == 1 and x >= 0 for x in diff), (n, mu)


def test_principal_point_values(L3):
    assert lie.principal_point(L3) == [rat(-4), rat(0)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 7))
def test_h_pairing_matches_2_rho_ip(data, n):
    lam = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)))
    assert h_pairing(lam) == 2 * ip(lam, (1,) * (n - 1))
