import csv
import hashlib
import math
import os
from fractions import Fraction

import pytest

from bigalg import lie
from bigalg.bigalgebra import BigGenerators
from bigalg.linalg import QMatrix, restrict_to_block
from bigalg.multipoly import MultiPoly, VarSet, rat
from bigalg.polymatrix import PolyMatrix
from bigalg.reps import build_irrep
from bigalg.spectra import (
    branch_multiset_at,
    decuplet_identities,
    emit_skeleton_points,
    invariants_along_principal_line,
    octet_identities,
    principal_eigen_table,
    principal_restriction,
    principal_spectrum,
    skeleton_pullback,
    skeleton_set_c3_zero,
    verify_quantum_number_identities,
)
from oracles import eps


def test_principal_line_invariants(L3):
    tring, cvals = invariants_along_principal_line(L3)
    t = MultiPoly.variable(tring, "t")
    assert cvals[0] == t.scale(-4)  # c_2 along e + t f is linear
    assert cvals[1].is_zero()  # c_3 vanishes identically on the line


def test_principal_line_invariants_match_the_polynomial_line():
    # oracle: Faddeev-LeVerrier over Q[t] on the PolyMatrix line e + t*f
    for n in range(2, 8):
        L = lie.TypeA(n)
        tring, cvals = invariants_along_principal_line(L)
        t = MultiPoly.variable(tring, "t")
        e, f = (PolyMatrix.from_qmatrix(tring, m) for m in (L.e, L.f))
        assert cvals == lie.charpoly_coeffs_poly(e + f * t)[2:], n


def test_principal_restriction_follows_n(sl2_sym4_gens, octet_gens, L2, L3, L4):
    sk2 = principal_restriction(sl2_sym4_gens.ops, L2)
    assert sk2["param"] == "c2"
    assert sk2["ops"] == [(op.label, op.mat) for op in sl2_sym4_gens.ops]
    sk3 = principal_restriction(octet_gens.ops, L3)
    assert sk3["ops"] == skeleton_set_c3_zero(octet_gens.ops)["ops"]
    gens4 = BigGenerators(build_irrep(L4, (0, 1, 0))).ops
    assert principal_restriction(gens4, L4)["ops"] == skeleton_pullback(gens4, L4)["ops"]


def test_skeleton_recipes_agree(octet, octet_gens, L3):
    a = skeleton_set_c3_zero(octet_gens.ops)
    b = skeleton_pullback(octet_gens.ops, L3)
    # reparametrize c2 -> -4t inside the first recipe
    tring = b["ring"]
    t = MultiPoly.variable(tring, "t")
    for (lab_a, mat_a), (lab_b, mat_b) in zip(a["ops"], b["ops"]):
        assert lab_a == lab_b
        assert mat_a.subs(tring, {"c2": t.scale(-4)}) == mat_b


def test_skeleton_relations_specialize(decuplet, decuplet_gens, L3):
    sk = principal_restriction(decuplet_gens.ops, L3)
    by_label = dict(sk["ops"])
    m1 = by_label["M1"]
    m2 = by_label["M2"]
    ring = sk["ring"]
    c2 = MultiPoly.variable(ring, "c2")

    def scal(p):
        return PolyMatrix.scalar(ring, 10, p)

    # the first published relation with c3 = 0
    rel = (
        m1 * m1 * m1 * m1
        - (m1 * m1 * m2) * 6
        + (m1 * m1) * c2.scale(4)
        + (m2 * m2) * 3
        - m2 * c2.scale(6)
    )
    assert rel.is_zero()


def test_skeleton_operators_still_commute(octet_gens, L3):
    from itertools import combinations

    for sk in (skeleton_set_c3_zero(octet_gens.ops), skeleton_pullback(octet_gens.ops, L3)):
        mats = [m for _, m in sk["ops"]]
        for a, b in combinations(mats, 2):
            assert a.commutator(b).is_zero()


def test_sl2_identity_specialization(sl2_sym4_gens, L2):
    sk = skeleton_pullback(sl2_sym4_gens.ops, L2)
    # rank one: the pullback just renames c2 (up to the line parametrization)
    tring, cvals = invariants_along_principal_line(L2)
    assert len(sk["ops"]) == 1
    m1 = sl2_sym4_gens.by_label["M1"].mat
    assert sk["ops"][0][1] == m1.subs(tring, {"c2": cvals[0]})


def test_principal_spectrum_decuplet(decuplet, decuplet_gens):
    ps = principal_spectrum(decuplet, decuplet_gens.ops)
    assert ps["injective"]
    assert len(ps["eigen_table"]) == 10
    assert ps["eigen_table"][(3, 0)] == (6, 4)
    assert not ps["unsplit_blocks"]
    # full dictionary: the joint values are exactly the (4 I_3, 4 Y) pairs
    expected = set()
    for lam in decuplet.weight_table:
        v = eps(lam)
        expected.add((4 * Fraction(v[0] - v[1], 2), 4 * (-v[2])))
    got = {
        (Fraction(int(a.numerator), int(a.denominator)),
         Fraction(int(b.numerator), int(b.denominator)))
        for a, b in ps["eigen_table"].values()
    }
    assert got == expected


def test_principal_spectrum_octet_block(octet, octet_gens):
    ps = principal_spectrum(octet, octet_gens.ops)
    assert ps["injective"]
    assert len(ps["eigen_table"]) == 7
    assert len(ps["unsplit_blocks"]) == 1
    basis, labels = ps["unsplit_blocks"][0]
    assert basis.cols == 2
    n1 = octet_gens.by_label["N1"].evaluate(ps["point"])
    n1b = restrict_to_block(n1, basis)
    assert n1b * n1b == QMatrix.identity(2) * 48


def test_principal_spectrum_sl2_standard(L2):
    std = build_irrep(L2, (1,))
    g = BigGenerators(std)
    ps = principal_spectrum(std, g.ops)
    assert ps["eigen_table"] == {(1,): (rat(1),), (-1,): (rat(-1),)}


@pytest.mark.parametrize("module", ["octet", "decuplet"])
def test_principal_spectrum_adds_the_blocks_to_the_eigen_table(request, module):
    rep = request.getfixturevalue(module)
    ops = request.getfixturevalue(module + "_gens").ops
    ps = principal_spectrum(rep, ops)
    blocks = {k: ps.pop(k) for k in ("blocks", "unsplit_blocks")}
    assert blocks["blocks"]
    assert ps == principal_eigen_table(rep, ops)


def test_quantum_number_identities(decuplet, decuplet_gens, octet, octet_gens):
    assert verify_quantum_number_identities(
        decuplet, decuplet_gens.ops, decuplet_identities()
    )["all_zero"]
    assert verify_quantum_number_identities(
        octet, octet_gens.ops, octet_identities()
    )["all_zero"]


def test_quantum_number_negative_control(decuplet, decuplet_gens):
    ring = VarSet(["I3", "Y"])
    i3 = MultiPoly.variable(ring, "I3")
    y = MultiPoly.variable(ring, "Y")
    wrong = i3 * (y - 1) * ((i3 * i3).scale(5) - y.scale(3) - 4)  # 4 -> 5
    out = verify_quantum_number_identities(decuplet, decuplet_gens.ops, [wrong])
    assert not out["all_zero"]


def test_branch_values_sl2(sl2_sym4_gens, L2):
    skeleton = principal_restriction(sl2_sym4_gens.ops, L2)
    branches = branch_multiset_at(skeleton, "-1", "M1")
    assert len(branches) == 5
    for got, want in zip(branches, [-4.0, -2.0, 0.0, 2.0, 4.0]):
        assert abs(got - want) < 1e-9
    # at c2 = -4 the values scale by sqrt(4) = 2
    branches2 = branch_multiset_at(skeleton, "-4", "M1")
    for got, want in zip(branches2, [-8.0, -4.0, 0.0, 4.0, 8.0]):
        assert abs(got - want) < 1e-9
    # nilpotent parameter: all branches vanish
    zeros = branch_multiset_at(skeleton, "0", "M1")
    assert all(abs(b) < 1e-12 for b in zeros)


def test_octet_irrational_branches(octet_gens, L3):
    sk = principal_restriction(octet_gens.ops, L3)
    branches = branch_multiset_at(sk, "-4", "N1")
    target = 4 * math.sqrt(3)
    assert any(abs(b - target) < 1e-9 for b in branches)
    assert any(abs(b + target) < 1e-9 for b in branches)


def test_emit_csv(tmp_path, sl2_sym4_gens, L2):
    skeleton = principal_restriction(sl2_sym4_gens.ops, L2)
    path = os.path.join(tmp_path, "skeleton.csv")
    report = emit_skeleton_points(skeleton, ("-4", "1", 10), path)
    assert report["max_residual"] < 1e-9
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "generator", "branch", "value"]
    assert report["rows"] == len(rows) - 1
    # branch indices are ascending per (param, generator)
    by_key = {}
    for param, gen, branch, value in rows[1:]:
        by_key.setdefault((param, gen), []).append(float(value))
    for values in by_key.values():
        assert values == sorted(values)


# First 16 hex digits of the SHA-256 of the CSV that emit_skeleton_points
# writes for principal_restriction (c3 = 0 up to n = 3, the principal-line
# pullback from n = 4 on) on the grid -4..1 in ten steps, with its row count.
_PRINCIPAL_SKELETON_PINS = {
    (4,): (47, "16241ee120f74188"),
    (1, 1): (240, "30970d4dd68008b9"),
    (0, 1, 0): (300, "86b68467e0c106e2"),
    (1, 0, 0): (136, "c1190fa694701463"),
    # sl5: the first pins on which an odd invariant, c_5, vanishes on the line
    (1, 0, 0, 0): (358, "1da934bc9ed9f422"),
    (0, 1, 0, 0): (716, "696657e8027663e6"),
}


@pytest.mark.parametrize("mu", sorted(_PRINCIPAL_SKELETON_PINS))
def test_principal_line_skeleton_csv_is_pinned(tmp_path, mu):
    rows, digest = _PRINCIPAL_SKELETON_PINS[mu]
    L = lie.TypeA(len(mu) + 1)
    skeleton = principal_restriction(BigGenerators(build_irrep(L, mu)).ops, L)
    path = os.path.join(tmp_path, "skeleton.csv")
    report = emit_skeleton_points(skeleton, ("-4", "1", 10), path)
    with open(path, "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()[:16]
    assert (report["rows"], got) == (rows, digest)
