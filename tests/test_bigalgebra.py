import json
from itertools import combinations, product

import pytest

from bigalg import lie
from bigalg.acceptance import (
    decuplet_relations,
    octet_big_relations,
    octet_medium_relations,
    sl2_product_relation,
    sl3_standard_relation,
)
from bigalg.bigalgebra import (
    BigGenerators,
    RelationRing,
    derive_relations,
    freeness_and_rank_check,
    hilbert_series,
    ideal_graded_dims,
    ideal_span,
    rational_diagonalizer,
    substitute_relation,
    verify_presentation,
    weighted_monomials,
)
from bigalg.kirillov import small_operator
from bigalg.linalg import QMatrix, charpoly, rank, upoly_mul
from bigalg.multipoly import MultiPoly, rat
from bigalg.qpoly import QPoly
from bigalg.reps import build_irrep


def test_restriction_of_small_operator_is_companion(L2, L3, sl3_standard):
    std2 = build_irrep(L2, (1,))
    g2 = BigGenerators(std2)
    m1 = g2.by_label["M1"]
    c2 = MultiPoly.variable(g2.ring, "c2")
    assert m1.mat.a[0][0].is_zero()
    assert m1.mat.a[0][1] == -c2
    assert m1.mat.a[1][0] == 1
    assert m1.mat.a[1][1].is_zero()
    # sl3 standard restricts to the companion of the cubic
    g3 = BigGenerators(sl3_standard)
    _, comp = lie.companion_symbolic(3)
    assert g3.by_label["M1"].mat == comp


def test_calibrated_m1_equals_small_operator(octet, decuplet, octet_gens, decuplet_gens):
    for rep, gens in [(octet, octet_gens), (decuplet, decuplet_gens)]:
        assert gens.by_label["M1"].kirillov.mat == small_operator(rep).mat


def test_scalar_invariant_restricts_to_itself(octet_gens):
    # c_k * Id is a base-ring element: the companion coordinates leave it alone
    ring = octet_gens.ring
    from bigalg.kirillov import scalar_element
    from bigalg.bigalgebra import restrict_to_section

    rep_mat = restrict_to_section(
        scalar_element(octet_gens.rep, octet_gens.rep.L.invariant_ck(2)),
        octet_gens._section_coords,
        ring,
    )
    c2 = MultiPoly.variable(ring, "c2")
    for i in range(rep_mat.rows):
        for j in range(rep_mat.cols):
            assert rep_mat.a[i][j] == (c2 if i == j else 0)


def test_evaluate_at_principal_point(octet, octet_gens, L3):
    rd = lie.RootData(3)
    val = octet_gens.by_label["M1"].evaluate([-4, 0])
    # oracle: eigenvalues are the h-pairings of the weights
    expected = sorted(rd.h_pairing(w) for w in octet.weights)
    chi = charpoly(val)
    prod = [rat(1)]
    for w in expected:
        prod = upoly_mul(prod, [-rat(w), rat(1)])
    assert chi == prod


def test_evaluate_scalar(octet_gens):
    ring = octet_gens.ring
    from bigalg.polymatrix import PolyMatrix

    five = PolyMatrix.scalar(ring, 8, MultiPoly.variable(ring, "c2"))
    assert five.evaluate({"c2": 5, "c3": 1}) == QMatrix.identity(8) * 5


def test_calibration_anchors(decuplet_gens, octet_gens, sl2_sym4_gens):
    anchors = decuplet_gens.anchor_eigenvalues()
    assert anchors["M1"] == 6  # mu(h) for the top line
    assert anchors["M2"] == 4  # hypercharge dictionary value
    assert octet_gens.anchor_eigenvalues()["M1"] == 4
    assert sl2_sym4_gens.anchor_eigenvalues()["M1"] == 4
    assert decuplet_gens.by_label["M1"].scalar == -12
    assert sl2_sym4_gens.by_label["M1"].scalar == -8


def test_rational_diagonalizer():
    m = lie.companion_point(3, [-4, 0])
    s = rational_diagonalizer(m, [2, 0, -2])
    assert m * s == s * QMatrix.diagonal([2, 0, -2])


def test_hilbert_series_examples(octet, decuplet, octet_gens, decuplet_gens, L2):
    h = hilbert_series(decuplet, decuplet_gens.ops)
    assert h["equal"] and h["dim_ok"]
    # oracle: the product over positive roots with pairings {4, 1, 5}
    assert h["numerator"] == QPoly({0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1})
    assert h["numerator"].eval_at_one() == 10

    ho = hilbert_series(octet, octet_gens.ops)
    assert ho["numerator"] == QPoly({0: 1, 1: 2, 2: 2, 3: 2, 4: 1})
    assert ho["numerator"].eval_at_one() == 8

    for n in range(1, 7):
        rep = build_irrep(L2, (n,))
        g = BigGenerators(rep)
        h2 = hilbert_series(rep, g.ops)
        assert h2["equal"]
        assert h2["numerator"] == QPoly({d: 1 for d in range(n + 1)})


def test_derive_relations_sl2(L2):
    rep = build_irrep(L2, (4,))
    g = BigGenerators(rep)
    rels, info = derive_relations(rep, g.ops, 6)
    assert len(rels) == 1
    rr = RelationRing(g.ops, 2)
    expected = sl2_product_relation(rr.ring, 4)
    lead = rels[0].coeff((5, 0))
    assert rels[0].scale(1 / lead) == expected


def test_derive_relations_sl3_standard(sl3_standard):
    g = BigGenerators(sl3_standard)
    gens = [g.by_label["M1"]]
    rels, info = derive_relations(sl3_standard, gens, 4)
    assert len(rels) == 1
    rr = RelationRing(gens, 3)
    expected = sl3_standard_relation(rr.ring)
    lead = rels[0].coeff((3, 0, 0))
    assert rels[0].scale(1 / lead) == expected


def test_derive_relations_octet_degree_two(octet, octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    rels, info = derive_relations(octet, gens, 4)
    rr = RelationRing(gens, 3)
    first = rels[0]
    lead = first.coeff((2, 0, 0, 0))
    assert lead != 0
    assert first.scale(3 / lead) == octet_big_relations(rr.ring)[0]


def test_reference_relations_in_derived_span(octet, decuplet, octet_gens, decuplet_gens):
    # every reference relation is a combination of the derived ones
    cases = [
        (octet, [octet_gens.by_label["M1"], octet_gens.by_label["N1"]],
         octet_big_relations, 4),
        (decuplet, [decuplet_gens.by_label["M1"], decuplet_gens.by_label["M2"]],
         decuplet_relations, 5),
    ]
    for rep, gens, make, deg in cases:
        derived, _ = derive_relations(rep, gens, deg)
        rr = RelationRing(gens, 3)
        weights = rr.weights
        for target in make(rr.ring):
            d = target.weighted_degree(weights)
            monos = rr.monomials_of_degree(d)
            index = {m: i for i, m in enumerate(monos)}
            from bigalg.linalg import Echelon
            from bigalg.multipoly import ZERO

            span = Echelon()
            for rel in derived:
                rd_deg = rel.weighted_degree(weights)
                if rd_deg > d:
                    continue
                for mult in rr.monomials_of_degree(d - rd_deg):
                    prod = rel * rr.monomial_poly(mult)
                    vec = [ZERO] * len(monos)
                    for key, c in prod.terms.items():
                        vec[index[rr.ring.unpack(key)]] = c
                    span.add(vec)
            vec = [ZERO] * len(monos)
            for key, c in target.terms.items():
                vec[index[rr.ring.unpack(key)]] = c
            assert span.contains(vec)


def test_ideal_span_is_rank_of_stacked_multiples(octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    rr = RelationRing(gens, 3)
    rels = octet_big_relations(rr.ring)
    wv = rr.weight_vec
    for d in range(8):
        # every exponent tuple of weighted degree d, by brute force
        box = product(*(range(d // w + 1) for w in wv))
        monos = {e for e in box if sum(x * w for x, w in zip(e, wv)) == d}
        assert sorted(weighted_monomials(wv, d)) == sorted(monos)
        coords, rows = {}, []
        for rel in rels:
            for e in product(*(range(d + 1) for _ in wv)):
                prod = rel * MultiPoly.monomial(rr.ring, e)
                if prod.weighted_degree(rr.weights) != d:
                    continue
                row = {}
                for key, c in prod.terms.items():
                    row[coords.setdefault(key, len(coords))] = c
                rows.append(row)
        stacked = [[row.get(j, 0) for j in range(len(coords))] for row in rows]
        expected = rank(QMatrix(stacked)) if stacked else 0
        assert ideal_span(rels, rr.ring, wv, d).dim == expected


def test_verify_presentation_negative_control(decuplet, decuplet_gens):
    gens = [decuplet_gens.by_label["M1"], decuplet_gens.by_label["M2"]]
    rr = RelationRing(gens, 3)
    good = decuplet_relations(rr.ring)
    bad = good[0] + MultiPoly.variable(rr.ring, "c2") ** 2  # wrong by 1*c2^2
    report = verify_presentation(decuplet, gens, [bad])
    assert not report["all_zero"]
    assert "first_nonzero" in report["relations"][0]


def test_generators_commute_over_section(octet_gens, decuplet_gens):
    for gens in (octet_gens, decuplet_gens):
        for a, b in combinations(gens.ops, 2):
            assert a.mat.commutator(b.mat).is_zero()


def test_freeness_and_rank(decuplet, decuplet_gens, octet, octet_gens):
    fr = freeness_and_rank_check(decuplet, decuplet_gens.ops, seed=0)
    assert fr["ok"]
    assert all(p["span_dim"] == 10 for p in fr["points"])
    fro = freeness_and_rank_check(octet, octet_gens.ops, seed=0)
    assert fro["ok"] and fro["fiber_cyclic"]
    # the nilpotent point need not have simple spectrum; only recorded
    assert "fiber_simple" in fro


def test_determinism_of_derived_relations(octet, octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    a, _ = derive_relations(octet, gens, 4)
    b, _ = derive_relations(octet, gens, 4)
    assert [json.dumps(r.to_obj()) for r in a] == [json.dumps(r.to_obj()) for r in b]
