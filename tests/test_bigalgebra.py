import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bigalg import bigalgebra, lie
from bigalg.acceptance import (
    BATTERY,
    decuplet_relations,
    octet_big_relations,
    sl2_product_relation,
    sl3_standard_relation,
)
from bigalg.bigalgebra import (
    BigGenerators,
    SectionOperator,
    _fiber_dims,
    closed_numerator,
    derive_relations,
    freeness_and_rank_check,
    hilbert_series,
    ideal_graded_dims,
    ideal_span,
    rational_diagonalizer,
    relation_ring,
    substitute_relation,
    verify_presentation,
    weighted_monomials,
)
from bigalg.kirillov import derivation_chain
from bigalg.linalg import Echelon, QMatrix, charpoly, closure, rank, rational_roots
from bigalg.multipoly import MultiPoly, VarSet, rat
from bigalg.polymatrix import PolyMatrix
from bigalg.qpoly import QPoly
from bigalg.reps import build_irrep
from oracles import (
    companion,
    diagonal,
    entry_subs,
    freeness_by_closure,
    h_pairing,
    poly_obj,
    poly_of_commuting,
    polymatrix_obj,
    small_operator,
    symbolic_section,
)


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
    cvars = [MultiPoly.variable(g3.ring, nm) for nm in g3.ring.names]
    assert g3.by_label["M1"].mat == PolyMatrix(g3.ring, companion(cvars))


def test_calibrated_m1_equals_small_operator(octet, decuplet, octet_gens, decuplet_gens):
    for rep, gens in [(octet, octet_gens), (decuplet, decuplet_gens)]:
        assert gens.by_label["M1"].kirillov == small_operator(rep)


def test_scalar_invariant_restricts_to_itself(octet_gens):
    # c_k * Id is a base-ring element: the companion coordinates leave it alone
    rep = octet_gens.rep
    ring, coords = symbolic_section(rep.L)
    rep_mat = PolyMatrix.scalar(rep.L.x_ring, rep.dim, rep.L.invariant_ck(2)).subs(
        ring, {"x%d" % i: c for i, c in enumerate(coords)}
    )
    c2 = MultiPoly.variable(ring, "c2")
    for i in range(rep_mat.rows):
        for j in range(rep_mat.cols):
            assert rep_mat.a[i][j] == (c2 if i == j else 0)


def _term_orders(rows):
    return [[list(p.terms.items()) for p in row] for row in rows]


def test_restriction_matches_generic_substitution():
    # every D^i(c_k) of every battery module against MultiPoly.subs on each
    # entry: same terms, in the same order
    for n, mu in BATTERY:
        L = lie.TypeA(n)
        rep = build_irrep(L, mu)
        ring, coords = symbolic_section(L)
        mapping = {"x%d" % i: coords[i] for i in range(L.dim)}
        for k in range(2, n + 1):
            for mat in derivation_chain(rep, k, k - 1):
                got = mat.subs(ring, mapping)
                ref = entry_subs(mat.a, ring, mapping)
                assert got.a == ref, (n, mu, k)
                assert _term_orders(got.a) == _term_orders(ref), (n, mu, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_matches_substitution_on_random_elements(
    sl2_sym4, sl3_standard, data
):
    # small coefficients and few variables make x-terms collide on one c-term,
    # cancel, and come back, and put even powers on the -c_k coordinates
    rep = data.draw(st.sampled_from([sl2_sym4, sl3_standard]))
    L = rep.L
    ring, coords = symbolic_section(L)
    x_ring = L.x_ring
    live = [i for i, c in enumerate(coords) if c]
    variables = st.one_of(st.sampled_from(live), st.integers(0, L.dim - 1))
    exps = st.dictionaries(variables, st.integers(1, 3), max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(L.dim))
    )
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    polys = st.lists(st.tuples(exps, coeffs), max_size=6).map(
        lambda ts: MultiPoly(x_ring, {x_ring.pack(e): c for e, c in ts})
    )
    mat = PolyMatrix(x_ring, [[data.draw(polys) for _ in range(2)] for _ in range(2)])
    mapping = {"x%d" % i: c for i, c in enumerate(coords)}
    got = mat.subs(ring, mapping)
    ref = entry_subs(mat.a, ring, mapping)
    assert got.a == ref
    assert _term_orders(got.a) == _term_orders(ref)


def test_restriction_accepts_general_coordinates(octet_gens):
    # the restriction is one PolyMatrix.subs: a coordinate that is a
    # monomial other than 0 or +-c_k substitutes like any other, and one of
    # two terms is refused
    mat = derivation_chain(octet_gens.rep, 3, 1)[0]
    ring, coords = symbolic_section(octet_gens.rep.L)
    c2 = MultiPoly.variable(ring, "c2")
    mapping = {"x%d" % i: c for i, c in enumerate(coords)}
    for other in (c2.scale(2), rat(1, 2)):
        mapping["x0"] = other
        assert mat.subs(ring, mapping).a == entry_subs(mat.a, ring, mapping)
    mapping["x0"] = c2 + 1
    with pytest.raises(ValueError):
        mat.subs(ring, mapping)


# First 16 hex digits of the SHA-256 of the sorted-key JSON of the generator
# family's report(), of every op's polymatrix_obj(mat) and of every op's
# polymatrix_obj(kirillov).  They were computed by an independent construction
# (one PolyMatrix.diff per variable, the generic PolyMatrix.subs restriction,
# D^1..D^(i-1) recomputed for each i), so they pin the exact bytes.  The sl5
# rows came from the earlier form of D, which took every partial derivative
# as a matrix and multiplied it by rho(X^i), before ``derivation_sum``.
GENERATOR_DIGESTS = [
    ((2, (1,)), ('685407ac1c5aed42', '5960c1ddf8c24840', 'e67daac2cdce3698')),
    ((2, (2,)), ('685407ac1c5aed42', '80a4df39259b70d7', '5d555d3b276c1f1b')),
    ((2, (3,)), ('685407ac1c5aed42', 'ff206f0c0422308a', 'f637ccadc889f38d')),
    ((2, (4,)), ('685407ac1c5aed42', '943c1676a15c38b5', '67615350092452ba')),
    ((2, (5,)), ('685407ac1c5aed42', 'f892dbe1becc8192', '57645022e057f1fe')),
    ((2, (6,)), ('685407ac1c5aed42', '22cef58035f416b9', '0786b6a433722bc0')),
    ((3, (1, 0)), ('1ba64ba6aada3b22', 'f4a548786ea0aee5', '86ebf7ddd35d5c31')),
    ((3, (0, 1)), ('1ba64ba6aada3b22', '86789f9322345790', 'dea100084dd3249c')),
    ((3, (2, 0)), ('1ba64ba6aada3b22', '8c09815a79d824db', 'cb8d83f62d0f4a0a')),
    ((3, (3, 0)), ('1ba64ba6aada3b22', '417bd7142d383d72', '53bb8d91de155353')),
    ((3, (1, 1)), ('68967d9a49ee23e5', '5cfd51e913242349', 'd249280079ef41b2')),
    ((3, (2, 1)), ('1ba64ba6aada3b22', '6036eeea20307333', '3dd9f8caa2ec9e55')),
    ((4, (1, 0, 0)), ('bc67e8df33891233', '1fc1c81028c5714c', 'a06f609f7c558a1b')),
    ((4, (0, 1, 0)), ('bc67e8df33891233', '1e669e33fe2098fa', '4c759175de77e5a2')),
    ((3, (2, 2)), ('1ba64ba6aada3b22', '89b4bf3cbe7c2d99', '3c86ee5f985ba670')),
    ((4, (1, 1, 0)), ('bc67e8df33891233', '2abb057ec599d221', '345da2c5a1afa8db')),
    ((5, (1, 0, 0, 1)), ('ef0ca1be7216d1b7', '7a68b6b89765101d', 'ce0eacec6b2fbb7e')),
    ((5, (0, 1, 0, 0)), ('ef0ca1be7216d1b7', '1fb51e3b02fee889', 'ca6997c509fb7e85')),
    ((5, (1, 0, 0, 0)), ('ef0ca1be7216d1b7', 'd63283ae271243dd', 'ec1c1744b845951c')),
]


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def test_generator_digests_cover_the_battery():
    assert set(BATTERY) <= {key for key, _ in GENERATOR_DIGESTS}


@pytest.mark.parametrize("key, digests", GENERATOR_DIGESTS, ids=str)
def test_generator_bytes_are_pinned(key, digests):
    n, mu = key
    gens = BigGenerators(build_irrep(lie.TypeA(n), mu))
    assert (
        _sha(gens.report()),
        _sha([polymatrix_obj(op.mat) for op in gens.ops]),
        _sha([polymatrix_obj(op.kirillov) for op in gens.ops]),
    ) == digests
    # homogeneity over R = Q[c_2..c_n], deg c_k = k: each term of entry
    # (r, s) carries e_s to e_r and raises the principal degree by op.degree
    # (a zero operator, such as B2_1 on sl4 (0,1,0), has no terms)
    ring, grades = gens.ring, gens.rep.grades
    assert ring.weights == tuple(range(2, n + 1))
    for op in gens.ops:
        degrees = {
            ring.degree(key) + grades[r] - grades[s]
            for r, row in enumerate(op.mat.a)
            for s, p in enumerate(row)
            for key in p.terms
        }
        assert degrees <= {op.degree}, op.label
    assert not gens.by_label["M1"].mat.is_zero()


def _raw_n1(gens):
    """D^2(c_3 Id) of an sl3 module on the section, before any scalar."""
    L = gens.rep.L
    cvars = [MultiPoly.variable(gens.ring, nm) for nm in gens.ring.names]
    section = dict(zip(L.x_ring.names, lie.section_coords(L, cvars)))
    return derivation_chain(gens.rep, 3, 2)[1].subs(gens.ring, section)


def test_octet_normalization_survives_every_rescaling(octet_gens):
    raw = _raw_n1(octet_gens)
    assert octet_gens.by_label["N1"].mat == raw * 144
    for t in (1, -1, 2, Fraction(-3, 5), Fraction(1, 7), 144):
        assert octet_gens._octet_n1_scalar(raw * t) == Fraction(144) / t


def test_octet_normalization_refutes_at_one_point(monkeypatch, octet_gens):
    # M1, M2 and zero square to no multiple of -(3*M1^2 + 12*c2); the check
    # at one point says so before any product of polynomial matrices
    zero = PolyMatrix.zeros(octet_gens.ring, 8, 8)

    def no_product(self, other):
        raise AssertionError("polynomial product formed")

    monkeypatch.setattr(PolyMatrix, "__mul__", no_product)
    for g in (octet_gens.by_label["M1"].mat, octet_gens.by_label["M2"].mat, zero):
        assert octet_gens._octet_n1_scalar(g) is None


@pytest.mark.parametrize("mu", [(a, b) for a in range(4) for b in range(3) if a or b])
def test_n1_is_rescaled_on_the_octet_only(L3, mu):
    gens = BigGenerators(build_irrep(L3, mu))
    assert gens.by_label["N1"].scalar == (144 if mu == (1, 1) else 1)
    if mu != (1, 1):
        assert gens.by_label["N1"].mat == _raw_n1(gens)


def test_evaluate_at_principal_point(octet, octet_gens, L3):
    val = octet_gens.by_label["M1"].evaluate([-4, 0])
    # oracle: eigenvalues are the h-pairings of the weights, with multiplicity
    expected = Counter(h_pairing(w) for w in octet.weights)
    assert rational_roots(charpoly(val)) == sorted(expected.items())


def test_evaluate_refuses_a_wrong_number_of_invariant_values(octet_gens):
    # Q[c2, c3]: a third value is not dropped, a missing one is named
    op = octet_gens.by_label["M1"]
    for cvals in ([1, 2, 99], [1], []):
        with pytest.raises(ValueError, match="need 2 invariant values"):
            op.evaluate(cvals)
    assert op.evaluate([1, 2]) == op.mat.evaluate({"c2": 1, "c3": 2})


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
    m = QMatrix(companion([-4, 0]))
    s = rational_diagonalizer(m, [2, 0, -2])
    assert m * s == s * diagonal([2, 0, -2])


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


@pytest.mark.parametrize(
    "rows, degree",
    [
        # e_0 -> e_1 raises the grade by one, not by the stated two
        ([[0, 0], [1, 0]], 2),
        # the identity and e_0 -> e_1 together: grades zero and one
        ([[1, 0], [1, 1]], 1),
    ],
    ids=["wrong_degree", "mixed_grades"],
)
def test_hilbert_series_refuses_a_fiber_value_off_its_degree(L2, rows, degree):
    rep = build_irrep(L2, (1,))
    ring = BigGenerators(rep).ring
    op = SectionOperator("A0", 1, 1 + degree, PolyMatrix(ring, rows), 1, None)
    with pytest.raises(ValueError, match="fiber value of A0 has unexpected grade"):
        hilbert_series(rep, [op])
    # e_0 -> e_1 with its true degree passes the check
    true = SectionOperator("A0", 1, 2, PolyMatrix(ring, [[0, 0], [1, 0]]), 1, None)
    assert hilbert_series(rep, [true])["dim"] == 2


def _monomial_values(mats, degrees, max_degree, dim):
    """Values of all generator monomials, grouped by weighted degree."""
    by_degree = {0: [((0,) * len(mats), QMatrix.identity(dim))]}
    for d in range(1, max_degree + 1):
        entries = []
        seen = set()
        for gi, gdeg in enumerate(degrees):
            d0 = d - gdeg
            if d0 < 0 or d0 not in by_degree:
                continue
            for exps, val in by_degree[d0]:
                new = list(exps)
                new[gi] += 1
                new = tuple(new)
                if new in seen:
                    continue
                seen.add(new)
                entries.append((new, val * mats[gi]))
        by_degree[d] = entries
    return by_degree


def _oracle_fiber_dims(mats, degrees, max_degree, dim):
    """Rank of every monomial value of each degree, one monomial at a time."""
    dims = []
    for d, values in sorted(_monomial_values(mats, degrees, max_degree, dim).items()):
        ech = Echelon()
        for _, val in values:
            ech.add(val)
        dims.append(ech.dim)
    return dims


@pytest.mark.parametrize("key", list(BATTERY) + [(3, (2, 2)), (4, (1, 1, 0))], ids=str)
def test_fiber_dims_match_monomial_enumeration(key):
    n, mu = key
    rep = build_irrep(lie.TypeA(n), mu)
    ops = BigGenerators(rep).ops
    mats = [op.evaluate([0] * (n - 1)) for op in ops]
    degrees = [op.degree for op in ops]
    top = closed_numerator(mu).max_exp() + 2
    assert _fiber_dims(mats, degrees, top, rep.dim) == _oracle_fiber_dims(
        mats, degrees, top, rep.dim
    )


def test_weyl_dim_is_the_q_dimension_at_one():
    for n in range(2, 6):
        for mu in product(range(4), repeat=n - 1):
            assert lie.weyl_dim(mu) == closed_numerator(mu).eval_at_one(), mu


def _unit(i, j):
    return QMatrix.from_ints([[int((r, c) == (i, j)) for c in range(2)] for r in range(2)])


def _seeds_spanned(monkeypatch):
    """Record the width of each seed _fiber_dims spans from."""
    widths = []
    graded_spans = bigalgebra._graded_spans

    def recorded(seed, *args):
        widths.append(seed.cols)
        return graded_spans(seed, *args)

    monkeypatch.setattr(bigalgebra, "_graded_spans", recorded)
    return widths


@pytest.mark.parametrize(
    "key", list(BATTERY) + [(3, (2, 2)), (4, (1, 1, 0)), (3, (3, 2))], ids=str
)
def test_fiber_dims_are_certified_by_the_highest_weight_vector(monkeypatch, key):
    n, mu = key
    rep = build_irrep(lie.TypeA(n), mu)
    ops = BigGenerators(rep).ops
    mats = [op.evaluate([0] * (n - 1)) for op in ops]
    degrees = [op.degree for op in ops]
    top = closed_numerator(mu).max_exp() + 1
    want = _oracle_fiber_dims(mats, degrees, top, rep.dim)
    widths = _seeds_spanned(monkeypatch)
    assert _fiber_dims(mats, degrees, top, rep.dim) == want
    assert widths == [1]  # the dim x dim values were never spanned


def test_fiber_dims_need_commuting_values(monkeypatch):
    # E12 and E21 carry e_0 to e_1 and back, so the orbit spans Q^2, yet
    # A_1 = span(E12, E21) has dimension 2 while A_1 * e_0 is the line of e_1
    # (degree one only: above it, words in E12 and E21 are not monomials)
    mats, degrees = [_unit(0, 1), _unit(1, 0)], [1, 1]
    widths = _seeds_spanned(monkeypatch)
    assert _fiber_dims(mats, degrees, 1, 2) == _oracle_fiber_dims(mats, degrees, 1, 2)
    assert widths == [1, 2]


def test_fiber_dims_fall_back_on_a_short_orbit(monkeypatch):
    # diag(0, 1, 1) kills e_0, and no vector is cyclic for it: A_d * e_0 = 0
    # for d > 0, while A_d is the line of diag(0, 1, 1)
    mats, degrees = [diagonal([0, 1, 1])], [1]
    widths = _seeds_spanned(monkeypatch)
    dims = _fiber_dims(mats, degrees, 3, 3)
    assert dims == _oracle_fiber_dims(mats, degrees, 3, 3) == [1, 1, 1, 1]
    assert widths == [1, 3]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_fiber_dims_of_polynomials_in_one_matrix(data, dim):
    # polynomials in one matrix X commute; e_0 is cyclic for them or not
    # depending on X, so both paths are drawn
    entries = st.integers(-2, 2)
    row = st.lists(entries, min_size=dim, max_size=dim)
    x = QMatrix.from_ints(data.draw(st.lists(row, min_size=dim, max_size=dim)))
    coeffs = st.lists(entries, min_size=2, max_size=4)
    mats = []
    for cs in data.draw(st.lists(coeffs, min_size=1, max_size=3)):
        val = QMatrix.zeros(dim, dim)
        for k, c in enumerate(cs):
            val = val + x.power(k) * c
        mats.append(val)
    degrees = data.draw(st.lists(st.integers(1, 2), min_size=len(mats), max_size=len(mats)))
    top = data.draw(st.integers(0, 6))
    assert _fiber_dims(mats, degrees, top, dim) == _oracle_fiber_dims(mats, degrees, top, dim)


def test_derive_relations_sl2(L2):
    rep = build_irrep(L2, (4,))
    g = BigGenerators(rep)
    rels, info = derive_relations(rep, g.ops, 6)
    assert len(rels) == 1
    expected = sl2_product_relation(relation_ring(g.ops, 2), 4)
    lead = rels[0].coeff((5, 0))
    assert rels[0].scale(1 / lead) == expected


def test_derive_relations_sl3_standard(sl3_standard):
    g = BigGenerators(sl3_standard)
    gens = [g.by_label["M1"]]
    rels, info = derive_relations(sl3_standard, gens, 4)
    assert len(rels) == 1
    expected = sl3_standard_relation(relation_ring(gens, 3))
    lead = rels[0].coeff((3, 0, 0))
    assert rels[0].scale(1 / lead) == expected


def test_derive_relations_octet_degree_two(octet, octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    rels, info = derive_relations(octet, gens, 4)
    first = rels[0]
    lead = first.coeff((2, 0, 0, 0))
    assert lead != 0
    assert first.scale(3 / lead) == octet_big_relations(relation_ring(gens, 3))[0]


def _derived(rep, gens, top):
    rels, info = derive_relations(rep, gens, top)
    return [str(r) for r in rels], info


def _by_values(rep, gens, top):
    """derive_relations on the dim x dim values: the e_0 certificate refused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigalgebra, "_orbit_dim", lambda vec, mats: -1)
        return _derived(rep, gens, top)


def _on_the_column(rep, gens, top):
    """derive_relations on the columns at e_0, certified or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigalgebra, "_orbit_dim", lambda vec, mats: rep.dim)
        return _derived(rep, gens, top)


def _refuse(*args):
    raise AssertionError("this path of derive_relations must not run")


# every derive_relations call of the battery (criteria 1, 3 and 11), then the
# CLI's relations modules with all generators at the default degree
COLUMN_CASES = (
    [((2, (k,)), ["M1"], k + 2) for k in range(1, 7)]
    + [((3, (3, 0)), ["M1", "M2"], 6), ((2, (1,)), None, 8)]
    + [
        (key, None, 6)
        for key in [(2, (4,)), (2, (6,)), (3, (1, 1)), (3, (3, 0)), (3, (2, 1)), (4, (0, 1, 0))]
    ]
)


@pytest.mark.parametrize("key, labels, top", COLUMN_CASES, ids=str)
def test_relations_are_searched_on_the_highest_weight_column(monkeypatch, key, labels, top):
    n, mu = key
    rep = build_irrep(lie.TypeA(n), mu)
    g = BigGenerators(rep)
    gens = g.ops if labels is None else [g.by_label[x] for x in labels]
    want = _by_values(rep, gens, top)
    unpatched = _derived(rep, gens, top)
    monkeypatch.setattr(PolyMatrix, "identity", _refuse)  # the matrix seed
    assert _derived(rep, gens, top) == unpatched == want


def test_relations_of_a_short_orbit_sub_family_use_the_values(monkeypatch, octet, octet_gens):
    # M1 and M2 alone do not carry e_0 to all of the octet, so nothing
    # certifies its column
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["M2"]]
    monkeypatch.setattr(PolyMatrix, "transpose", _refuse)  # the column path
    rels, info = derive_relations(octet, gens, 6)
    assert len(rels) == 3
    assert [row["new_relations"] for row in info] == [0, 0, 0, 2, 1, 0]


def _hand_built(n, mats, degrees):
    """A rep stand-in and section operators A0, A1, ... with the given values
    over Q[c_2..c_n] and degrees."""
    ops = [
        SectionOperator("A%d" % i, 1, 1 + d, m, 1, None)
        for i, (m, d) in enumerate(zip(mats, degrees))
    ]
    return SimpleNamespace(L=SimpleNamespace(n=n), dim=mats[0].rows), ops


@pytest.mark.parametrize(
    "rows, new",
    [
        # diag(0, 1, 1): no relation in any degree, as A0^d and c2^e * A0^f
        # differ at the entries of e_1 and e_2
        (lambda c2: [[0, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0, 0]),
        # e_1 -> e_2 -> c2 * e_1: A0^3 = c2 * A0 in degree 3
        (lambda c2: [[0, 0, 0], [0, 0, c2], [0, 1, 0]], [0, 0, 1, 0]),
    ],
    ids=["diag_0_1_1", "rotation"],
)
def test_relations_of_hand_built_short_orbit_families(monkeypatch, rows, new):
    ring = VarSet(["c2"])
    a0 = PolyMatrix(ring, rows(MultiPoly.variable(ring, "c2")))
    rep, ops = _hand_built(2, [a0], [1])
    # A0 kills e_0, so the column at e_0 would read A0 = 0 in degree 1
    assert _on_the_column(rep, ops, 4)[0][0] == "A0"
    monkeypatch.setattr(PolyMatrix, "transpose", _refuse)  # the column path
    rels, info = derive_relations(rep, ops, 4)
    assert [row["new_relations"] for row in info] == new
    if rels:
        (rel,) = rels
        ring = relation_ring(ops, 2)
        x, c2 = MultiPoly.variable(ring, "A0"), MultiPoly.variable(ring, "c2")
        assert rel.scale(1 / rel.coeff((3, 0))) == x * x * x - c2 * x


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(2, 3))
def test_relations_on_the_column_match_the_values(data, dim, n):
    # polynomials in one integer matrix X with coefficients a + b * c_k
    # commute over R; e_0 is cyclic for their fiber values or not depending
    # on X, so both paths are drawn, and the values are the oracle
    ring = VarSet(["c%d" % k for k in range(2, n + 1)])
    entries = st.integers(-2, 2)
    row = st.lists(entries, min_size=dim, max_size=dim)
    x = QMatrix.from_ints(data.draw(st.lists(row, min_size=dim, max_size=dim)))
    powers = [PolyMatrix.from_qmatrix(ring, x.power(k)) for k in range(3)]
    rational = st.fractions(-2, 2, max_denominator=3)
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        mat = PolyMatrix.zeros(ring, dim, dim)
        for p in powers:
            c = MultiPoly.variable(ring, data.draw(st.sampled_from(ring.names)))
            coeff = MultiPoly.const(ring, data.draw(rational)) + c.scale(data.draw(rational))
            mat = mat + p * coeff
        mats.append(mat)
    degrees = data.draw(st.lists(st.integers(1, 2), min_size=len(mats), max_size=len(mats)))
    rep, ops = _hand_built(n, mats, degrees)
    top = data.draw(st.integers(1, 4))
    assert _derived(rep, ops, top) == _by_values(rep, ops, top)


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
        ring = relation_ring(gens, 3)
        for target in make(ring):
            d = target.weighted_degree()
            monos = weighted_monomials(ring, d)
            index = {m: i for i, m in enumerate(monos)}
            from bigalg.multipoly import ZERO

            multiples = []
            for rel in derived:
                rd_deg = rel.weighted_degree()
                if rd_deg > d:
                    continue
                for mult in weighted_monomials(ring, d - rd_deg):
                    prod = rel * MultiPoly.monomial(ring, mult)
                    vec = [ZERO] * len(monos)
                    for key, c in prod.terms.items():
                        vec[index[ring.unpack(key)]] = c
                    multiples.append(vec)
            vec = [ZERO] * len(monos)
            for key, c in target.terms.items():
                vec[index[ring.unpack(key)]] = c
            # membership by rank: the target leaves the rank of the multiples as it is
            assert rank(QMatrix(multiples + [vec])) == rank(QMatrix(multiples))


def test_ideal_span_is_rank_of_stacked_multiples(octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    ring = relation_ring(gens, 3)
    rels = octet_big_relations(ring)
    wv = ring.weights
    assert wv == (1, 1, 2, 3)  # M1, N1, c2, c3
    for d in range(8):
        # every exponent tuple of weighted degree d, by brute force
        box = product(*(range(d // w + 1) for w in wv))
        monos = {e for e in box if sum(x * w for x, w in zip(e, wv)) == d}
        assert sorted(weighted_monomials(ring, d)) == sorted(monos)
        coords, rows = {}, []
        for rel in rels:
            for e in product(*(range(d + 1) for _ in wv)):
                prod = rel * MultiPoly.monomial(ring, e)
                if prod.weighted_degree() != d:
                    continue
                row = {}
                for key, c in prod.terms.items():
                    row[coords.setdefault(key, len(coords))] = c
                rows.append(row)
        stacked = [[row.get(j, 0) for j in range(len(coords))] for row in rows]
        expected = rank(QMatrix(stacked)) if stacked else 0
        assert ideal_span(rels, ring, d).dim == expected


def test_ideal_dims_need_relations_over_the_relation_ring(decuplet, decuplet_gens):
    gens = [decuplet_gens.by_label["M1"], decuplet_gens.by_label["M2"]]
    ring = relation_ring(gens, 3)
    rels = decuplet_relations(ring)
    dims = ideal_graded_dims(decuplet, gens, rels, 4)
    assert dims == {d: ideal_span(rels, ring, d).dim for d in range(1, 5)}
    # the same relation over a ring with the same names and weights in
    # another order is not re-expressed: it stops at the product with a monomial
    other = VarSet(reversed(ring.names), reversed(ring.weights))
    moved = rels[0].subs(other, {nm: MultiPoly.variable(other, nm) for nm in ring.names})
    with pytest.raises(ValueError, match="variable-set mismatch"):
        ideal_graded_dims(decuplet, gens, [moved], 6)


def test_verify_presentation_negative_control(decuplet, decuplet_gens):
    gens = [decuplet_gens.by_label["M1"], decuplet_gens.by_label["M2"]]
    ring = relation_ring(gens, 3)
    good = decuplet_relations(ring)
    bad = good[0] + MultiPoly.variable(ring, "c2") ** 2  # wrong by 1*c2^2
    report = verify_presentation(decuplet, gens, [bad])
    assert not report["all_zero"]
    assert "first_nonzero" in report["relations"][0]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_substitute_relation_matches_commuting_matrices(octet_gens, decuplet_gens, data):
    # a random relation on sl3 (1,1) or (3,0): its value on the section
    # operators, evaluated at rational points c, against the relation at the
    # generators' values at c and c_k * I
    gens = data.draw(st.sampled_from([octet_gens, decuplet_gens]))
    ring = relation_ring(gens.ops, 3)
    exps = st.tuples(*[st.integers(0, 2)] * len(ring.names))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    rel = data.draw(
        st.dictionaries(exps, coeffs, min_size=1, max_size=5).map(
            lambda d: MultiPoly(ring, {ring.pack(e): c for e, c in d.items()})
        )
    )
    dim = gens.rep.dim
    val = substitute_relation(rel, gens.by_label, gens.ring, dim)
    point = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    points = st.lists(point, min_size=2, max_size=2)
    for c in data.draw(st.lists(points, min_size=3, max_size=3)):
        mats = {op.label: op.evaluate(c) for op in gens.ops}
        mats.update({nm: QMatrix.identity(dim) * ck for nm, ck in zip(gens.ring.names, c)})
        assert val.evaluate(dict(zip(gens.ring.names, c))) == poly_of_commuting(rel, mats)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_freeness_matches_the_closure_oracle(seed, decuplet, decuplet_gens, octet, octet_gens):
    for rep, gens in ((octet, octet_gens), (decuplet, decuplet_gens)):
        fast = freeness_and_rank_check(rep, gens.ops, seed=seed)
        assert fast == freeness_by_closure(rep, gens.ops, seed=seed)


def test_span_dim_reads_a_cyclic_vector_of_commuting_values(monkeypatch):
    # diag(1, 2) and its square commute, and (1, 1) is cyclic for them
    d = diagonal([1, 2])
    monkeypatch.setattr(bigalgebra, "closure", None)  # the closure must not run
    assert bigalgebra._span_dim([d, d * d], 2, 2) == 2


def test_span_dim_falls_back_on_a_short_orbit():
    # the identity commutes with itself, but every orbit is a line
    assert bigalgebra._span_dim([QMatrix.identity(2)], 1, 2) == 1


def test_span_dim_needs_commuting_values():
    # E12 and E21 carry (1, 1) to both unit vectors, a full orbit, yet they
    # generate all of M_2: without the commutation guard this would read 2
    e12, e21 = _unit(0, 1), _unit(1, 0)
    v = QMatrix.from_ints([[1], [1]])
    assert closure([v], [e12, e21], bigalgebra._image)[0].dim == 2
    assert bigalgebra._span_dim([e12, e21], 2, 2) == 4


def test_determinism_of_derived_relations(octet, octet_gens):
    gens = [octet_gens.by_label["M1"], octet_gens.by_label["N1"]]
    a, _ = derive_relations(octet, gens, 4)
    b, _ = derive_relations(octet, gens, 4)
    assert [json.dumps(poly_obj(r)) for r in a] == [json.dumps(poly_obj(r)) for r in b]


@pytest.mark.parametrize(
    "m, root",
    [
        ((10**17 + 3) ** 2, 10**17 + 3),  # a float square root is off by one here
        ((10**200) ** 2, 10**200),  # and overflows a double here
        ((10**17 + 3) ** 2 + 1, None),
        (0, 0),
        (2, None),
        (-4, None),
    ],
    ids=["square_past_2_53", "square_past_double_range", "nonsquare_past_2_53",
         "zero", "nonsquare", "negative"],
)
def test_isqrt_exact(m, root):
    assert bigalgebra._isqrt_exact(m) == root
