from types import SimpleNamespace

import pytest

from bigalg.acceptance import (
    octet_big_relations,
    octet_medium_relations,
    sl2_rank1_relation,
)
from bigalg.bigalgebra import BigGenerators, relation_ring
from bigalg.linalg import QMatrix
from bigalg.multipoly import MultiPoly, VarSet, rat
from bigalg.reps import build_irrep
from bigalg.twining import (
    check_intertwiner,
    coinvariant_octet_report,
    intertwiner,
    jantzen_trace,
    sigma_eigenvalues,
    sigma_on_element,
    sigma_on_invariants,
)
from oracles import bracket_coords, column, inverse, sigma_coord_matrix, sigma_on_matrix


def test_sigma_fixes_principal_triple(L3):
    assert sigma_on_matrix(L3, L3.e) == L3.e
    assert sigma_on_matrix(L3, L3.f) == L3.f
    assert sigma_on_matrix(L3, L3.h) == L3.h


def test_sigma_is_involution(L3, L4):
    for L in (L3, L4):
        sg = sigma_coord_matrix(L)
        assert sg * sg == QMatrix.identity(L.dim)
        # sigma preserves brackets: sigma[x, y] = [sigma x, sigma y]
        import random

        rng = random.Random(1)
        for _ in range(4):
            x = column([rat(rng.randint(-2, 2)) for _ in range(L.dim)])
            y = column([rat(rng.randint(-2, 2)) for _ in range(L.dim)])
            sx = sg * x
            sy = sg * y
            xy = bracket_coords(L, L.matrix_of(x), L.matrix_of(y))
            sxy = bracket_coords(L, L.matrix_of(sx), L.matrix_of(sy))
            assert sxy == sg * xy


def test_sigma_requires_invariant_weight(L3):
    lopsided = build_irrep(L3, (2, 0))
    with pytest.raises(ValueError):
        intertwiner(lopsided)


def test_intertwiner_conjugates(octet):
    s = intertwiner(octet)
    assert check_intertwiner(octet, s)
    assert s * s == QMatrix.identity(octet.dim)


def test_check_intertwiner_refuses_wrong_maps(octet):
    # the identity fails, since sigma moves basis elements and rho is
    # faithful; so does S with one column negated, since the module is
    # irreducible and the sign flip is no scalar
    assert not check_intertwiner(octet, QMatrix.identity(octet.dim))
    s = intertwiner(octet)
    flip = QMatrix.from_ints(
        [[(-1 if i == 1 else 1) * int(i == j) for j in range(octet.dim)] for i in range(octet.dim)]
    )
    assert not check_intertwiner(octet, s * flip)


def test_sigma_eigenvalues_on_generators(octet, octet_gens):
    eigs = sigma_eigenvalues(octet, octet_gens.ops)
    assert eigs == {"M1": 1, "M2": -1, "N1": -1}


@pytest.mark.parametrize(
    "n, mu, signs",
    [
        (3, (2, 2), {"M1": 1, "M2": -1, "N1": -1}),
        (4, (1, 1, 1), {"M1": 1, "M2": -1, "M3": 1, "B2_1": -1, "B2_2": 1, "B3_1": 1}),
    ],
)
def test_sigma_eigenvalues_past_the_octet(n, mu, signs, L3, L4):
    rep = build_irrep(L3 if n == 3 else L4, mu)
    assert sigma_eigenvalues(rep, BigGenerators(rep).ops) == signs


def test_sigma_eigenvalues_report_none_off_both_signs(octet, octet_gens):
    # sigma fixes M1 and negates M2, so M1 + M2 goes to M1 - M2
    m1, m2 = (octet_gens.by_label[x].kirillov for x in ("M1", "M2"))
    mixed = SimpleNamespace(label="M1+M2", kirillov=m1 + m2)
    assert sigma_eigenvalues(octet, [mixed]) == {"M1+M2": None}
    s = intertwiner(octet)
    image = sigma_on_element(octet.L, mixed.kirillov, s)
    assert image * inverse(s) == m1 - m2


def test_sigma_squares_to_identity_on_generators(octet, octet_gens):
    s = intertwiner(octet)
    s_inv = inverse(s)
    for op in octet_gens.ops:
        once = sigma_on_element(octet.L, op.kirillov, s) * s_inv
        assert sigma_on_element(octet.L, once, s) * s_inv == op.kirillov


def test_sigma_on_invariants_parity(L3, L4):
    # oracle: c_k(-X^T) = (-1)^k c_k(X), and conjugation never changes c_k
    assert sigma_on_invariants(L3) == {2: 1, 3: -1}
    assert sigma_on_invariants(L4) == {2: 1, 3: -1, 4: 1}


def test_fixed_scheme_single_parabola(octet_gens):
    ring_big = relation_ring([octet_gens.by_label["M1"], octet_gens.by_label["N1"]], 3)
    ring_med = relation_ring([octet_gens.by_label["M1"], octet_gens.by_label["M2"]], 3)
    rels = octet_big_relations(ring_big) + octet_medium_relations(ring_med)
    co = coinvariant_octet_report(rels, sl2_rank1_relation())
    assert co["all_multiples_of_parabola"]
    # the parabola is 3(M1^2 + 4 c2)
    ring = co["parabola"].ring
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    lead = co["parabola"].coeff((2, 0))
    assert co["parabola"].scale(1 / lead) == m1 * m1 + c2.scale(4)
    assert co["relation_matches"]
    assert co["dictionary_c2_scale"] == 4
    assert all(co["quotient_dims"][d] == 1 for d in range(9))


def test_coinvariants_match_rank_one_algebra(L2, octet_gens):
    # independent side: graded dimensions of the rank-one algebra
    from bigalg.bigalgebra import derive_relations

    std = build_irrep(L2, (1,))
    g2 = BigGenerators(std)
    _, info = derive_relations(std, g2.ops, 8)
    dims = {row["degree"]: row["algebra_dim"] for row in info}
    ring_big = relation_ring([octet_gens.by_label["M1"], octet_gens.by_label["N1"]], 3)
    co = coinvariant_octet_report(
        octet_big_relations(ring_big), sl2_rank1_relation()
    )
    for d in range(1, 9):
        assert co["quotient_dims"][d] == dims[d]


def test_jantzen_trace_octet(octet):
    # the rank-one module matched to the octet has no zero weight space
    assert jantzen_trace(octet) == 0


def test_jantzen_trace_full_space(octet):
    # sanity: the trace over the whole module equals the signed fixed count
    s = intertwiner(octet)
    total = s.trace()
    # chi(sigma) on the octet: the twining character of the rank-one module
    # at weight multiplicities (2 fixed weight lines, swap on the rest)
    assert total == 2


def _octet_relation_ring():
    return VarSet(["M1", "N1", "c2", "c3"], [1, 1, 2, 3])


def test_coinvariants_report_a_survivor_off_the_parabola():
    ring = _octet_relation_ring()
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    parabola = m1 * m1 + c2.scale(4)
    # M1 (M1^2 + c2) has weighted degree 3 and is no multiple of the parabola
    co = coinvariant_octet_report([parabola, m1 * (m1 * m1 + c2)], sl2_rank1_relation())
    assert not co["all_multiples_of_parabola"]
    co = coinvariant_octet_report([parabola, m1 * parabola], sl2_rank1_relation())
    assert co["all_multiples_of_parabola"]


def test_coinvariants_reject_a_survivor_that_is_not_weighted_homogeneous():
    ring = _octet_relation_ring()
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    with pytest.raises(ValueError, match="not weighted-homogeneous"):
        coinvariant_octet_report([m1 * m1 + c2 + m1], sl2_rank1_relation())
