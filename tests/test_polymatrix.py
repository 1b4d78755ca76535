"""PolyMatrix operations against the entry-by-entry oracle of ``oracles.py``.

The oracle keeps every entry as a MultiPoly with Fraction coefficients and
adds up MultiPoly products, scales, substitutions and values; each
PolyMatrix result must agree with it and keep its storage normalized.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bigalg.kirillov import wei_D
from bigalg.linalg import QMatrix
from bigalg.multipoly import MultiPoly, VarSet
from bigalg.polymatrix import PolyMatrix, coefficient_columns, derivation_sum, sum_of_products
from oracles import (
    dual_rho,
    entry_evaluate,
    entry_product,
    entry_rows,
    entry_subs,
    entry_sum_of_products,
    is_homogeneous,
    mat_diff,
    medium_operator,
)

R = VarSet(["x", "y", "t"])
# substitution from S into T
S = VarSet(["x", "y", "z"])
T = VarSet(["u", "v"])

_dims = st.integers(0, 4)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_scalars = st.one_of(st.integers(-6, 6), _coeffs)


def _polys_over(ring, exps):
    return st.one_of(
        st.just(MultiPoly.zero(ring)),
        st.dictionaries(exps, _coeffs, max_size=4).map(
            lambda d: MultiPoly(ring, {ring.pack(e): c for e, c in d.items()})
        ),
    )


_polys = _polys_over(R, st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 4)))
_s_polys = _polys_over(S, st.tuples(*[st.integers(0, 2)] * 3))


@st.composite
def _entries(draw, rows, cols, elements):
    """rows x cols entries, sometimes with a whole row and column zeroed."""
    a = [[draw(elements) for _ in range(cols)] for _ in range(rows)]
    zero = Fraction(0)
    if rows and draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [zero] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in a:
            row[j] = zero
    return a


def _pm(a, cols, ring=R):
    return PolyMatrix(ring, a) if a else PolyMatrix.zeros(ring, 0, cols)


def _qm(a, cols):
    return QMatrix(a) if a else QMatrix.zeros(0, cols)


def _assert_normalized(m):
    """den > 0 and coprime to the coefficients; each row lists (col, terms)
    in ascending col order, with terms a nonempty {key: nonzero int}."""
    assert type(m.den) is int and m.den > 0
    assert len(m.num) == m.rows
    coeffs = []
    for row in m.num:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        for _, terms in row:
            assert terms and all(type(v) is int and v for v in terms.values())
            coeffs += terms.values()
    assert gcd(m.den, *coeffs) == 1


def _check(m, rows, cols, ref):
    assert (m.rows, m.cols) == (rows, cols)
    _assert_normalized(m)
    assert m.a == ref
    for row in m.a:
        for p in row:
            assert p.ring is m.ring
            assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_product_matches_reference(data, n, k, m):
    a = _pm(data.draw(_entries(n, k, _polys)), k)
    b = _pm(data.draw(_entries(k, m, _polys)), m)
    _check(a * b, n, m, entry_product(R, a.a, b.a, m))


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims)
def test_commutator_matches_reference(data, n):
    a = _pm(data.draw(_entries(n, n, _polys)), n)
    b = _pm(data.draw(_entries(n, n, _polys)), n)
    ref = entry_sum_of_products(R, n, n, [(1, a, b), (-1, b, a)])
    _check(a.commutator(b), n, n, ref)


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_qmatrix_products_match_reference(data, n, k, m):
    q = _qm(data.draw(_entries(n, k, _coeffs)), k)
    p = _pm(data.draw(_entries(k, m, _polys)), m)
    left = sum_of_products(R, n, m, [(1, q, p)])
    _check(left, n, m, entry_product(R, entry_rows(q, R), p.a, m))
    p = _pm(data.draw(_entries(n, k, _polys)), k)
    q = _qm(data.draw(_entries(k, m, _coeffs)), m)
    _check(p * q, n, m, entry_product(R, p.a, entry_rows(q, R), m))


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
    _check(sum_of_products(R, n, m, terms), n, m, entry_sum_of_products(R, n, m, terms))


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims, _scalars, _polys)
def test_scaling_matches_reference(data, n, m, c, p):
    a = _pm(data.draw(_entries(n, m, _polys)), m)
    scaled = [[x.scale(c) for x in row] for row in a.a]
    _check(a * c, n, m, scaled)
    _check(c * a, n, m, scaled)
    _check(a * p, n, m, [[x * p for x in row] for row in a.a])


def test_scaling_by_a_fraction_divides_out_common_factors():
    # 30x, 20, 2x over 5 share the factor 2 with the denominators of c
    x = MultiPoly.variable(R, "x")
    a = PolyMatrix(R, [[x.scale(6), 4], [0, x.scale(Fraction(2, 5))]])
    for c in (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)):
        _check(a * c, 2, 2, [[p.scale(c) for p in row] for row in a.a])


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims)
def test_sums_match_reference(data, n, m):
    a = _pm(data.draw(_entries(n, m, _polys)), m)
    b = _pm(data.draw(_entries(n, m, _polys)), m)
    _check(a + b, n, m, [[x + y for x, y in zip(r, s)] for r, s in zip(a.a, b.a)])
    _check(a - b, n, m, [[x - y for x, y in zip(r, s)] for r, s in zip(a.a, b.a)])
    _check(-a, n, m, [[-x for x in row] for row in a.a])
    assert (a - a).is_zero() and (a + (-a)) == PolyMatrix.zeros(R, n, m)


def _term_orders(rows):
    return [[list(p.terms.items()) for p in row] for row in rows]


# an image of 0, or of a rational, or of a monomial with coefficient +-1 or
# a rational one, whose denominator scales the terms while the key shifts
_monomial_images = st.one_of(
    st.just(0),
    _coeffs,
    st.tuples(
        st.one_of(st.sampled_from([1, -1]), _coeffs), st.integers(0, 2), st.integers(0, 2)
    ).map(lambda t: MultiPoly.monomial(T, t[1:], t[0])),
)


@settings(max_examples=60, deadline=None)
@given(st.data(), _dims, _dims, st.fixed_dictionaries({nm: _monomial_images for nm in S.names}))
def test_subs_with_monomial_images_matches_reference(data, n, m, mapping):
    # few variables and small coefficients make terms meet, cancel and come
    # back; the terms keep the order of MultiPoly.subs as well
    a = _pm(data.draw(_entries(n, m, _s_polys)), m, S)
    got = a.subs(T, mapping)
    ref = entry_subs(a.a, T, mapping)
    _check(got, n, m, ref)
    assert _term_orders(got.a) == _term_orders(ref)


def test_subs_refuses_a_polynomial_image():
    # an image of two or more terms is refused, never expanded, also for a
    # variable that no entry contains
    u, v = (MultiPoly.variable(T, nm) for nm in T.names)
    x, y, _ = (MultiPoly.variable(S, nm) for nm in S.names)
    a = PolyMatrix(S, [[x * y, 1], [0, x.scale(Fraction(1, 2))]])
    for name in S.names:
        for wide in (u + v, u * u - Fraction(1, 2), v + 3):
            mapping = {nm: u for nm in S.names}
            mapping[name] = wide
            with pytest.raises(ValueError):
                a.subs(T, mapping)


_ints = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    _dims,
    _dims,
    st.fixed_dictionaries({nm: _ints for nm in R.names}),
    st.fixed_dictionaries({nm: _coeffs for nm in R.names}),
)
def test_evaluate_matches_reference(data, n, m, integer_point, rational_point):
    a = _pm(data.draw(_entries(n, m, _polys)), m)
    for point in (integer_point, rational_point):
        got = a.evaluate(point)
        assert (got.rows, got.cols) == (n, m)
        assert got.a == entry_evaluate(a.a, point)


def test_evaluate_names_a_missing_or_extra_variable():
    # Q[x, y, t]: a value for a name outside the ring is not dropped, and a
    # missing value is named, not a bare KeyError
    x = MultiPoly.variable(R, "x")
    a = PolyMatrix(R, [[x]])
    with pytest.raises(ValueError, match=r"missing \[t\], extra \[\]"):
        a.evaluate({"x": 1, "y": 2})
    with pytest.raises(ValueError, match=r"missing \[\], extra \[c9\]"):
        a.evaluate({"x": 1, "y": 2, "t": 3, "c9": 5})
    with pytest.raises(ValueError, match=r"missing \[y, t\], extra \[z\]"):
        a.evaluate({"x": 1, "z": 2})
    assert a.evaluate({"t": 3, "y": 2, "x": 5}) == QMatrix([[5]])
    # subs still takes images of names outside the ring
    assert a.subs(T, {"x": 2, "y": 0, "t": 1, "c3": 0}) == PolyMatrix(T, [[2]])


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _scalars, _polys, _s_polys)
def test_every_operation_keeps_storage_normalized(data, n, c, p, s):
    a = _pm(data.draw(_entries(n, n, _polys)), n)
    b = _pm(data.draw(_entries(n, n, _polys)), n)
    q = _qm(data.draw(_entries(n, n, _coeffs)), n)
    src = _pm(data.draw(_entries(n, n, _s_polys)), n, S)
    mapping = {nm: data.draw(_monomial_images) for nm in S.names}
    results = [
        a, src, PolyMatrix.zeros(R, n, n), PolyMatrix.identity(R, n),
        PolyMatrix.scalar(R, n, p), PolyMatrix.scalar(S, n, s), PolyMatrix.from_qmatrix(R, q),
        a + b, a - b, -a, a * b, a * p, a * c, c * a,
        sum_of_products(R, n, n, [(1, q, a)]), a * q, a.commutator(b),
        sum_of_products(R, n, n, [(c, a, q), (1, q, b)]), src.subs(T, mapping),
        a.transpose(), derivation_sum([q, QMatrix.zeros(n, n), q], a, c),
        derivation_sum([q] * 3, PolyMatrix.scalar(R, n, p), c),
    ]
    for m in results:
        _assert_normalized(m)


def test_transpose_swaps_rows_and_columns():
    x, y, t = (MultiPoly.variable(R, nm) for nm in R.names)
    m = PolyMatrix(R, [[x, Fraction(1, 3)], [y, 0], [0, x * t]])
    _check(m.transpose(), 2, 3, [list(col) for col in zip(*m.a)])
    assert m.transpose().transpose() == m
    # the shape survives a side of length zero
    assert (PolyMatrix.zeros(R, 0, 3).transpose().rows, PolyMatrix.zeros(R, 3, 0).transpose().cols) == (3, 3)


def test_reading_entries_leaves_the_matrix_unchanged():
    x, y, t = (MultiPoly.variable(R, nm) for nm in R.names)
    rows = [[x.scale(Fraction(1, 2)) + 3, y], [MultiPoly.zero(R), t * t]]
    m = PolyMatrix(R, rows)
    before = PolyMatrix(R, rows)
    a = m.a
    a[0][1] = t
    a[1].append(x)
    a[0][0].terms[0] = Fraction(7)
    a[1][0].terms[0] = Fraction(1)
    m[0, 1].terms.clear()
    m.first_nonzero()[2].terms.clear()
    m.trace().terms.clear()
    assert m == before
    assert m.a == before.a
    assert PolyMatrix.identity(R, 2).a[0][0].terms.pop(0) == 1
    assert PolyMatrix.identity(R, 2) == PolyMatrix(R, [[1, 0], [0, 1]])


def test_cancellation_leaves_no_zero_coefficients():
    x, y, t = (MultiPoly.variable(R, nm) for nm in R.names)
    a = PolyMatrix(R, [[x * t, Fraction(1, 3)], [y, t**3]])
    zero = PolyMatrix.zeros(R, 2, 2)
    _check(a.commutator(a), 2, 2, zero.a)
    _check(a.commutator(PolyMatrix.scalar(R, 2, x - y)), 2, 2, zero.a)
    halves = [(Fraction(1, 2), a, a), (Fraction(-1, 2), a, a)]
    _check(sum_of_products(R, 2, 2, halves), 2, 2, zero.a)
    # one entry cancels, the other keeps the surviving term only
    b = PolyMatrix(R, [[x, x + y]])
    c = PolyMatrix(R, [[-x], [x]])
    _check(b * c, 1, 1, [[x * y]])
    # d/dx of row 0 minus d/dy of row 1: 1 - 1 in column 0, 1 + t - 1 in column 1
    f = PolyMatrix(R, [[x, x + x * t], [y, y]])
    mats = [QMatrix([[1, 0]]), QMatrix([[0, -1]]), QMatrix.zeros(1, 2)]
    _check(derivation_sum(mats, f, Fraction(1, 2)), 1, 2, [[MultiPoly.zero(R), t.scale(Fraction(1, 2))]])


def test_empty_shapes_keep_columns():
    z = PolyMatrix.zeros(R, 0, 3)
    assert (z.rows, z.cols) == (0, 3)
    prod = PolyMatrix.zeros(R, 2, 0) * z
    assert (prod.rows, prod.cols) == (2, 3)
    assert prod.is_zero()
    # no entries to carry the denominator of the scalar
    _check(PolyMatrix.scalar(R, 0, MultiPoly.const(R, Fraction(1, 2))), 0, 0, [])


def test_ring_and_shape_errors():
    other = VarSet(["x", "y", "s"])
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
        sum_of_products(R, 2, 2, [(1, QMatrix.zeros(2, 3), sq)])
    with pytest.raises(ValueError):
        sq * QMatrix.zeros(3, 2)
    with pytest.raises(ValueError):
        sum_of_products(R, 3, 2, [(1, sq, sq)])
    with pytest.raises(ValueError):
        sq * MultiPoly.zero(other)
    with pytest.raises(ValueError):
        PolyMatrix.identity(S, 1).subs(T, {"x": 0, "y": 0, "z": MultiPoly.zero(R)})


def _ref_wei_D(rep, mat):
    """(1/2) sum_i rho(X^i) dF/dx_i, added up entry by entry."""
    total = [[MultiPoly.zero(mat.ring)] * rep.dim for _ in range(rep.dim)]
    for i, dual in enumerate(dual_rho(rep)):
        d = mat_diff(mat, "x%d" % i)
        for r in range(rep.dim):
            for c in range(rep.dim):
                for k in range(rep.dim):
                    if dual.a[r][k]:
                        total[r][c] = total[r][c] + d.a[k][c].scale(dual.a[r][k] / 2)
    return total


def test_wei_D_matches_reference(sl3_standard, octet, L3):
    for rep, mat, degree in (
        (sl3_standard, medium_operator(sl3_standard, 3), 2),
        (octet, medium_operator(octet, 3), 2),
        (octet, PolyMatrix.scalar(L3.x_ring, octet.dim, L3.invariant_ck(3)), 3),
    ):
        out = wei_D(rep, mat)
        assert out.a == _ref_wei_D(rep, mat)
        assert is_homogeneous(out) == degree - 1
        _assert_normalized(out)


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
    out = wei_D(rep, mat)
    assert out.a == _ref_wei_D(rep, mat)
    # D lowers the degree of a homogeneous operator by one
    degree = is_homogeneous(mat)
    if degree and not out.is_zero():
        assert is_homogeneous(out) == degree - 1
    _assert_normalized(out)


def _ref_derivation_sum(mats, f, scale):
    """scale * sum_a mats[a] * df/d(variable a), added up entry by entry."""
    rows = mats[0].rows
    total = [[MultiPoly.zero(f.ring)] * f.cols for _ in range(rows)]
    for m, name in zip(mats, f.ring.names):
        d = mat_diff(f, name).a
        for i in range(rows):
            for k in range(f.rows):
                if m.a[i][k]:
                    for j in range(f.cols):
                        total[i][j] = total[i][j] + d[k][j].scale(m.a[i][k] * scale)
    return total


@settings(max_examples=60, deadline=None)
@given(st.data(), _dims, _dims, _dims, _coeffs)
def test_derivation_sum_matches_diff(data, n, m, r, scale):
    # F is n x m, or a scalar n x n whose diagonal shares one dict; the r x n
    # matrices may be zero, and F may lack some variables altogether
    ring = VarSet(["x", "y", "z"])
    present = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
    exps = st.tuples(*[st.integers(0, 2) if p else st.just(0) for p in present])
    polys = _polys_over(ring, exps)
    if data.draw(st.booleans()):
        f = PolyMatrix.scalar(ring, n, data.draw(polys))
        m = n
    else:
        f = _pm(data.draw(_entries(n, m, polys)), m, ring)
    mats = [
        QMatrix.zeros(r, n) if data.draw(st.booleans()) else _qm(data.draw(_entries(r, n, _coeffs)), n)
        for _ in ring.names
    ]
    _check(derivation_sum(mats, f, scale), r, m, _ref_derivation_sum(mats, f, scale))


def test_derivation_sum_refuses_wrong_matrices():
    x = MultiPoly.variable(R, "x")
    f = PolyMatrix(R, [[x, 1], [0, x * x], [1, 0]])  # 3 x 2 over three variables
    good = [QMatrix.identity(3)] * 3
    assert derivation_sum(good, f, 1) == mat_diff(f, "x")
    for mats in (good[:2], good + good[:1], []):
        with pytest.raises(ValueError):
            derivation_sum(mats, f, 1)
    # a matrix with the wrong column count, or a row count unlike the others
    for odd in (QMatrix.zeros(3, 2), QMatrix.zeros(2, 3)):
        with pytest.raises(ValueError):
            derivation_sum([odd] + good[1:], f, 1)
        with pytest.raises(ValueError):
            derivation_sum(good[:2] + [odd], f, 1)


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, _dims, st.integers(0, 4))
def test_coefficient_columns_match_entries(data, n, m, count):
    mats = [_pm(data.draw(_entries(n, m, _polys)), m) for _ in range(count)]
    got = coefficient_columns(mats)
    # one row per (row, col, monomial) in the order first seen
    index = {}
    for mat in mats:
        for i, row in enumerate(mat.a):
            for j, p in enumerate(row):
                for key in p.terms:
                    index.setdefault((i, j, key), len(index))
    ref = [[Fraction(0)] * count for _ in index]
    for col, mat in enumerate(mats):
        for i, row in enumerate(mat.a):
            for j, p in enumerate(row):
                for key, c in p.terms.items():
                    ref[index[i, j, key]][col] = c
    assert (got.rows, got.cols) == (len(index), count)
    assert got.a == ref


def test_packed_exponents_past_the_range_raise():
    # a product key would carry out of t's field into u's
    x = MultiPoly.variable(S, "x")
    t = MultiPoly.monomial(T, (20000, 0))
    square = PolyMatrix(S, [[x * x]])
    with pytest.raises(OverflowError):
        square.subs(T, {"x": t, "y": 0, "z": 1})
    tm = PolyMatrix(T, [[t]])
    with pytest.raises(OverflowError):
        tm * tm
    with pytest.raises(OverflowError):
        tm * t
    # exponents up to 2**15 - 1 are still packed
    u = MultiPoly.monomial(T, (0, 16383))
    assert square.subs(T, {"x": u, "y": 0, "z": 1})[0, 0] == MultiPoly.monomial(T, (0, 32766))
    low, high = (PolyMatrix(T, [[MultiPoly.monomial(T, (e, 0))]]) for e in (16383, 16384))
    assert (low * high)[0, 0] == MultiPoly.monomial(T, (32767, 0))
