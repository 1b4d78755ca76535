"""PolyMatrix products against naive references built from MultiPoly + and *.

Every product of polynomial matrices goes through ``sum_of_products``; the
references here add up ``MultiPoly`` products entry by entry instead.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigalg.kirillov import KirillovElement, scalar_element, wei_D
from bigalg.linalg import QMatrix
from bigalg.multipoly import MultiPoly, VarSet
from bigalg.polymatrix import PolyMatrix, gradient_rows, sum_of_products
from oracles import dual_rho, mat_diff, medium_operator

# t is a Laurent variable, so keys below the origin occur
R = VarSet(["x", "y", "t"], laurent=["t"])

_dims = st.integers(0, 4)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_exps = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2))
_polys = st.one_of(
    st.just(MultiPoly.zero(R)),
    st.dictionaries(_exps, _coeffs, max_size=4).map(
        lambda d: MultiPoly(R, {R.pack(e): c for e, c in d.items()})
    ),
)


@st.composite
def _entries(draw, rows, cols, elements):
    """rows x cols entries, sometimes with a whole row and column zeroed."""
    a = [[draw(elements) for _ in range(cols)] for _ in range(rows)]
    zero = MultiPoly.zero(R) if elements is _polys else Fraction(0)
    if rows and draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [zero] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in a:
            row[j] = zero
    return a


def _pm(a, cols):
    return PolyMatrix(R, a) if a else PolyMatrix.zeros(R, 0, cols)


def _qm(a, cols):
    return QMatrix(a) if a else QMatrix.zeros(0, cols)


def _poly_rows(m):
    if isinstance(m, QMatrix):
        return [[MultiPoly.const(R, x) for x in row] for row in m.a]
    return m.a


def _ref_mul(a, b, cols):
    """Naive product of two matrices given as lists of MultiPoly rows."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = MultiPoly.zero(R)
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _ref_sum(rows, cols, terms):
    out = [[MultiPoly.zero(R)] * cols for _ in range(rows)]
    for s, a, b in terms:
        prod = _ref_mul(_poly_rows(a), _poly_rows(b), cols)
        out = [
            [x + y.scale(s) for x, y in zip(r, p)] for r, p in zip(out, prod)
        ]
    return out


def _check(m, rows, cols, ref):
    assert (m.rows, m.cols) == (rows, cols)
    assert m.a == ref
    for row in m.a:
        for p in row:
            assert p.ring is R
            assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_product_matches_reference(data, n, k, m):
    a = _pm(data.draw(_entries(n, k, _polys)), k)
    b = _pm(data.draw(_entries(k, m, _polys)), m)
    _check(a * b, n, m, _ref_mul(a.a, b.a, m))


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims)
def test_commutator_matches_reference(data, n):
    a = _pm(data.draw(_entries(n, n, _polys)), n)
    b = _pm(data.draw(_entries(n, n, _polys)), n)
    ref = _ref_sum(n, n, [(1, a, b), (-1, b, a)])
    _check(a.commutator(b), n, n, ref)


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_qmatrix_products_match_reference(data, n, k, m):
    q = _qm(data.draw(_entries(n, k, _coeffs)), k)
    p = _pm(data.draw(_entries(k, m, _polys)), m)
    _check(p.mul_qmatrix_left(q), n, m, _ref_mul(_poly_rows(q), p.a, m))
    p = _pm(data.draw(_entries(n, k, _polys)), k)
    q = _qm(data.draw(_entries(k, m, _coeffs)), m)
    _check(p.mul_qmatrix_right(q), n, m, _ref_mul(p.a, _poly_rows(q), m))


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_sum_of_products_matches_reference(data, n, k, m):
    operands = [(_pm, _polys), (_qm, _coeffs)]
    terms = []
    for _ in range(data.draw(st.integers(0, 3))):
        s = data.draw(st.one_of(st.just(0), _coeffs))
        make_a, elems_a = data.draw(st.sampled_from(operands))
        make_b, elems_b = data.draw(st.sampled_from(operands))
        a = make_a(data.draw(_entries(n, k, elems_a)), k)
        b = make_b(data.draw(_entries(k, m, elems_b)), m)
        terms.append((s, a, b))
    _check(sum_of_products(R, n, m, terms), n, m, _ref_sum(n, m, terms))


def test_cancellation_leaves_no_zero_coefficients():
    x, y, t = (MultiPoly.variable(R, nm) for nm in R.names)
    a = PolyMatrix(R, [[x * t, Fraction(1, 3)], [y, t.shift_var("t", -3)]])
    zero = PolyMatrix.zeros(R, 2, 2)
    _check(a.commutator(a), 2, 2, zero.a)
    _check(a.commutator(PolyMatrix.scalar(R, 2, x - y)), 2, 2, zero.a)
    halves = [(Fraction(1, 2), a, a), (Fraction(-1, 2), a, a)]
    _check(sum_of_products(R, 2, 2, halves), 2, 2, zero.a)
    # one entry cancels, the other keeps the surviving term only
    b = PolyMatrix(R, [[x, x + y]])
    c = PolyMatrix(R, [[-x], [x]])
    _check(b * c, 1, 1, [[x * y]])


def test_empty_shapes_keep_columns():
    z = PolyMatrix.zeros(R, 0, 3)
    assert (z.rows, z.cols) == (0, 3)
    prod = PolyMatrix.zeros(R, 2, 0) * z
    assert (prod.rows, prod.cols) == (2, 3)
    assert prod.is_zero()


def test_ring_and_shape_errors():
    other = VarSet(["x", "y", "t"])
    sq = PolyMatrix.zeros(R, 2, 2)
    with pytest.raises(ValueError):
        PolyMatrix(R, [[MultiPoly.zero(other)]])
    with pytest.raises(ValueError):
        sq * PolyMatrix.zeros(other, 2, 2)
    with pytest.raises(ValueError):
        PolyMatrix.zeros(R, 2, 3) * PolyMatrix.zeros(R, 2, 3)
    with pytest.raises(ValueError):
        sq.commutator(PolyMatrix.zeros(other, 2, 2))
    with pytest.raises(ValueError):
        PolyMatrix.zeros(R, 2, 3).commutator(PolyMatrix.zeros(R, 3, 2))
    with pytest.raises(ValueError):
        sq.commutator(PolyMatrix.zeros(R, 3, 3))
    with pytest.raises(ValueError):
        sq.mul_qmatrix_left(QMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        sq.mul_qmatrix_right(QMatrix.zeros(3, 2))
    with pytest.raises(ValueError):
        sum_of_products(R, 3, 2, [(1, sq, sq)])


def _ref_wei_D(elem):
    """(1/2) sum_i rho(X^i) dF/dx_i, added up entry by entry."""
    rep = elem.rep
    total = [[MultiPoly.zero(elem.mat.ring)] * rep.dim for _ in range(rep.dim)]
    for i, dual in enumerate(dual_rho(rep)):
        d = mat_diff(elem.mat, "x%d" % i)
        for r in range(rep.dim):
            for c in range(rep.dim):
                for k in range(rep.dim):
                    if dual.a[r][k]:
                        total[r][c] = total[r][c] + d.a[k][c].scale(dual.a[r][k] / 2)
    return total


def test_wei_D_matches_reference(sl3_standard, octet, L3):
    for elem in (
        medium_operator(sl3_standard, 3),
        medium_operator(octet, 3),
        scalar_element(octet, L3.invariant_ck(3)),
    ):
        out = wei_D(elem)
        assert out.mat.a == _ref_wei_D(elem)
        assert out.degree == max(elem.degree - 1, 0)
        assert all(
            type(c) is Fraction and c != 0
            for row in out.mat.a
            for p in row
            for c in p.terms.values()
        )


def _x_polys(ring):
    """Polynomials over a polynomial ring: up to four terms, mixed denominators."""
    exps = st.lists(st.integers(0, 2), min_size=len(ring), max_size=len(ring))
    return st.one_of(
        st.just(MultiPoly.zero(ring)),
        st.dictionaries(exps.map(tuple), _coeffs, max_size=4).map(
            lambda d: MultiPoly(ring, {ring.pack(e): c for e, c in d.items()})
        ),
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wei_D_matches_reference_on_random_elements(sl2_sym4, sl3_standard, data):
    rep = data.draw(st.sampled_from([sl2_sym4, sl3_standard]))
    ring = rep.L.x_ring
    polys = _x_polys(ring)
    mat = PolyMatrix(
        ring, [[data.draw(polys) for _ in range(rep.dim)] for _ in range(rep.dim)]
    )
    elem = KirillovElement(rep, mat)
    out = wei_D(elem)
    assert out.mat.a == _ref_wei_D(elem)
    assert out.degree == (0 if out.mat.is_zero() else out.mat.is_homogeneous())
    assert all(
        type(c) is Fraction and c != 0
        for row in out.mat.a
        for p in row
        for c in p.terms.values()
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims)
def test_gradient_rows_match_diff(data, n, m):
    ring = VarSet(["x", "y", "z"])
    polys = _x_polys(ring)
    mat = PolyMatrix(ring, [[data.draw(polys) for _ in range(m)] for _ in range(n)])
    grads, den = gradient_rows(mat)
    for i, name in enumerate(ring.names):
        ref = mat_diff(mat, name)
        if grads[i] is None:
            assert ref.is_zero()
            continue
        got = [[MultiPoly.zero(ring)] * m for _ in range(n)]
        for r, row in enumerate(grads[i]):
            assert [col for col, _ in row] == sorted({col for col, _ in row})
            for col, d in row:
                assert d
                got[r][col] = MultiPoly(ring, {k: Fraction(v, den) for k, v in d.items()})
        assert got == ref.a


def test_gradient_rows_refuse_laurent_rings():
    with pytest.raises(ValueError):
        gradient_rows(PolyMatrix(R, [[MultiPoly.variable(R, "x")]]))
