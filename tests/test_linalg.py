import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import bigalg.linalg as linalg
from bigalg.linalg import (
    Echelon,
    QMatrix,
    charpoly,
    closure,
    column_solver,
    is_squarefree,
    joint_invariant_decomposition,
    joint_kernel,
    kernel,
    rank,
    rational_roots,
    same_span,
    solve_columns,
    squarefree_decomposition,
    upoly_at_floats,
)
from bigalg.multipoly import ONE, ZERO, rat
from oracles import diagonal, ref_rref, upoly_eval


def upoly_mul(p, q):
    """The product of two univariate polynomials, coefficients low to high."""
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def rref(m):
    """The reduced row echelon form of m and its pivot columns, read off the
    package's fraction-free reduced echelon rows."""
    rows, pivots = linalg._reduced_echelon(m.num)
    red = [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)]
    red += [[ZERO] * m.cols for _ in range(m.rows - len(red))]
    return (QMatrix(red) if red else QMatrix.zeros(0, m.cols)), pivots


def plain_rank(rows):
    return len(ref_rref(rows)[1])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 7), st.integers(0, 7), st.integers(0, 4))
def test_rank_matches_plain_rank_on_tall_wide_and_square(data, rows, indep, dependent):
    # the last columns are integer combinations of the first indep ones, so
    # the rank is at most indep; rows against indep + dependent makes the
    # matrix tall, wide or square
    ints = st.integers(-4, 4)
    base = [[data.draw(ints) for _ in range(indep)] for _ in range(rows)]
    mix = [[data.draw(ints) for _ in range(dependent)] for _ in range(indep)]
    a = [
        row + [sum(x * mix[t][j] for t, x in enumerate(row)) for j in range(dependent)]
        for row in base
    ]
    m = QMatrix.from_ints(a, cols=indep + dependent)
    assert rank(m) == rank(m.transpose()) == plain_rank(a)
    assert rank(m) <= min(rows, indep)


def test_kernel_identity_and_zero():
    assert kernel(QMatrix.identity(3)) == QMatrix.zeros(3, 0)
    assert kernel(QMatrix.zeros(2, 3)) == QMatrix.identity(3)
    # no rows: every column is free
    assert kernel(QMatrix.zeros(0, 3)) == QMatrix.identity(3)


def test_kernel_random_rank5():
    rng = random.Random(7)
    m = QMatrix([[rng.randint(-9, 9) for _ in range(8)] for _ in range(5)])
    r = plain_rank(m.a)
    assert r == 5  # generic draw; oracle = independent row reduction
    vecs = kernel(m)
    assert (vecs.rows, vecs.cols) == (8, 3)
    assert (m * vecs).is_zero()
    assert plain_rank(vecs.a) == 3  # independence


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(8):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = QMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == plain_rank(m.a)
        assert rank(m) + kernel(m).cols == cols


def test_rref_and_solve():
    m = QMatrix([[2, 0], [0, 4], [2, 4]])
    target = m * QMatrix([[1, 2], [3, rat(1, 2)]])
    x = solve_columns(m, target)
    assert m * x == target
    # (1,0,0) is off the plane z = x + y spanned by the columns
    with pytest.raises(ValueError):
        solve_columns(m, QMatrix([[1], [0], [0]]))
    # columns without rows are zero, hence dependent
    with pytest.raises(ValueError, match="dependent"):
        solve_columns(QMatrix.zeros(0, 2), QMatrix.zeros(0, 1))


def test_charpoly_and_roots():
    m = diagonal([1, 2, 3])
    chi = charpoly(m)
    assert chi == [rat(-6), rat(11), rat(-6), rat(1)]
    assert rational_roots(chi) == [(rat(1), 1), (rat(2), 1), (rat(3), 1)]
    chi2 = charpoly(diagonal([1, 2, 2]))
    assert rational_roots(chi2) == [(rat(1), 1), (rat(2), 2)]
    # fractional root
    p = [rat(-1), rat(2)]  # 2t - 1
    assert rational_roots(p) == [(rat(1, 2), 1)]


def test_squarefree_tools():
    lin = [rat(-1), rat(1)]
    square = upoly_mul(lin, lin)
    cubic = upoly_mul(square, [rat(-2), rat(1)])
    assert not is_squarefree(cubic)
    decomp = squarefree_decomposition(cubic)
    assert [(tuple(f), m) for f, m in decomp] == [
        ((rat(-2), rat(1)), 1),
        ((rat(-1), rat(1)), 2),
    ]
    g = linalg._gcd(linalg._int_poly(cubic), linalg._int_poly(square))
    assert len(g) == 3 and upoly_eval(g, rat(1)) == 0


def test_joint_decomposition_diagonal():
    a = diagonal([1, 2])
    b = diagonal([3, 3])
    blocks = joint_invariant_decomposition([a, b])
    labels = sorted(tuple(lab) for _, lab in blocks)
    assert labels == [(rat(1), rat(3)), (rat(2), rat(3))]
    for basis, _ in blocks:
        assert basis.cols == 1


def test_joint_decomposition_irrational_block():
    # chi = t^2 - 48 has no rational root, hence is irreducible over Q
    m = QMatrix([[0, 48], [1, 0]])
    assert rational_roots(charpoly(m)) == []
    blocks = joint_invariant_decomposition([m])
    assert len(blocks) == 1
    basis, labels = blocks[0]
    assert basis.cols == 2
    assert labels[0] == (rat(-48), rat(0), rat(1))


def test_joint_decomposition_generalized_eigenspace():
    # a nilpotent block must stay together under its single eigenvalue
    m = QMatrix([[0, 1], [0, 0]])
    blocks = joint_invariant_decomposition([m])
    assert len(blocks) == 1
    assert blocks[0][0].cols == 2
    assert blocks[0][1] == (rat(0),)


def test_joint_decomposition_refines_irrational_blocks():
    # chi = (t^2 - 2)^2 stays one block until a second matrix splits it
    comp = [[0, 2], [1, 0]]
    a = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            a[i][j] = comp[i][j]
            a[2 + i][2 + j] = comp[i][j]
    m = QMatrix(a)
    alone = joint_invariant_decomposition([m])
    assert len(alone) == 1 and alone[0][0].cols == 4
    assert alone[0][1] == ((rat(-2), rat(0), rat(1)),)
    d = diagonal([1, 1, 2, 2])
    blocks = joint_invariant_decomposition([m, d])
    assert sorted(b.cols for b, _ in blocks) == [2, 2]
    labels = sorted(lab[1] for _, lab in blocks)
    assert labels == [rat(1), rat(2)]
    for basis, _ in blocks:
        solve_columns(basis, m * basis)
        solve_columns(basis, d * basis)


def test_joint_decomposition_rejects_noncommuting():
    a = QMatrix([[0, 1], [0, 0]])
    b = QMatrix([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        joint_invariant_decomposition([a, b])


def test_joint_decomposition_dims_and_invariance():
    rng = random.Random(3)
    d = diagonal([1, 1, 2, 5])
    # conjugate by a random unimodular matrix to hide the splitting
    u = QMatrix.identity(4)
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        e = [[int(r == c) for c in range(4)] for r in range(4)]
        e[i][j] = rat(rng.randint(-3, 3))
        u = u * QMatrix(e)
    m = u * d * solve_columns(u, QMatrix.identity(4))
    blocks = joint_invariant_decomposition([m])
    assert sum(b.cols for b, _ in blocks) == 4
    for basis, _ in blocks:
        image = m * basis
        solve_columns(basis, image)  # raises if not invariant


def test_joint_decomposition_unequal_irrational_multiplicities():
    # chi = (t^2 - 2)^2 (t^2 - 3): the two irrational factors repeat unequally
    a = [[0] * 6 for _ in range(6)]
    for start, c in ((0, 2), (2, 2), (4, 3)):
        a[start][start + 1] = rat(c)
        a[start + 1][start] = rat(1)
    m = QMatrix(a)
    blocks = joint_invariant_decomposition([m])
    assert len(blocks) == 2
    dims = {lab[0]: b.cols for b, lab in blocks}
    assert dims == {(rat(-2), rat(0), rat(1)): 4, (rat(-3), rat(0), rat(1)): 2}
    stacked = [row for b, _ in blocks for row in b.transpose().a]
    assert plain_rank(stacked) == 6


# ---------------------------------------------------------------------------
# the integer product kernel against naive Fraction references
# ---------------------------------------------------------------------------

_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
_dims = st.integers(0, 6)


@st.composite
def _matrices(draw, rows, cols):
    """Rows of mixed ints and Fractions, some rows and columns all zero.

    A single row is never zeroed whole: it is the vector a test draws.
    """
    a = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, 5))) if rows > 1 else set()
    zero_cols = draw(st.sets(st.integers(0, 5)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]


def _qm(a, cols):
    return QMatrix(a) if a else QMatrix.zeros(0, cols)


def _ref_mul(a, b, cols):
    return [
        [
            sum((Fraction(x) * Fraction(b[t][j]) for t, x in enumerate(row)), Fraction(0))
            for j in range(cols)
        ]
        for row in a
    ]


def _ref_det(a):
    a = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims, _dims)
def test_product_matches_reference(data, n, k, m):
    a = data.draw(_matrices(n, k))
    b = data.draw(_matrices(k, m))
    prod = _qm(a, k) * _qm(b, m)
    assert (prod.rows, prod.cols) == (n, m)
    assert prod.a == _ref_mul(a, b, m)
    assert _all_fractions(prod.a)


@settings(max_examples=40, deadline=None)
@given(st.data(), _dims, _dims)
def test_column_product_matches_reference(data, n, k):
    a = data.draw(_matrices(n, k))
    v = data.draw(_matrices(1, k))[0]
    out = _qm(a, k) * _qm([[x] for x in v], 1)
    assert (out.rows, out.cols) == (n, 1)
    assert out.a == _ref_mul(a, [[x] for x in v], 1)
    assert _all_fractions(out.a)


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, st.integers(0, 4))
def test_power_and_charpoly_match_reference(data, n, k):
    a = data.draw(_matrices(n, n))
    m = _qm(a, n)
    ref = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        ref = _ref_mul(ref, a, n)
    p = m.power(k)
    assert p.a == ref
    assert _all_fractions(p.a)
    chi = charpoly(m)
    assert len(chi) == n + 1 and chi[-1] == 1
    assert all(type(c) is Fraction for c in chi)
    # a monic degree-n polynomial is fixed by its values at n points
    for t in range(n):
        shifted = [
            [Fraction(t) * (i == j) - Fraction(x) for j, x in enumerate(row)]
            for i, row in enumerate(a)
        ]
        assert upoly_eval(chi, Fraction(t)) == _ref_det(shifted)


def test_product_shape_errors():
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3) * QMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3) * QMatrix.zeros(2, 1)
    # a vector is a column: a list is no operand
    with pytest.raises(TypeError):
        QMatrix.zeros(2, 3) * [1, 2, 3]
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3).power(2)
    with pytest.raises(ValueError):
        charpoly(QMatrix.zeros(2, 3))


def test_empty_inner_dimension_gives_zero_matrix():
    for n, m in ((3, 4), (0, 2), (2, 0)):
        prod = QMatrix.zeros(n, 0) * QMatrix.zeros(0, m)
        assert prod == QMatrix.zeros(n, m)
        assert (prod.rows, prod.cols) == (n, m)


def test_transpose_keeps_shape_of_empty_matrices():
    for n, m in ((3, 0), (0, 3), (0, 0), (2, 3)):
        t = QMatrix.zeros(n, m).transpose()
        assert (t.rows, t.cols) == (m, n)


# ---------------------------------------------------------------------------
# fraction-free elimination against Fraction oracles
# ---------------------------------------------------------------------------


def _is_reduced_primitive(rows, pivots):
    """Each row primitive, positive at its pivot, zero at the other pivots
    and before its pivot."""
    for row, p in zip(rows, pivots):
        if gcd(*row) != 1 or row[p] <= 0 or any(row[:p]):
            return False
        if any(row[q] for q in pivots if q != p):
            return False
    return True


def _combination(data, vecs, k):
    coeffs = [data.draw(_entries) for _ in vecs]
    return [sum((Fraction(c) * Fraction(v[j]) for c, v in zip(coeffs, vecs)), Fraction(0))
            for j in range(k)]


@settings(max_examples=60, deadline=None)
@given(st.data(), _dims, _dims)
def test_echelon_matches_rank_oracle(data, n, k):
    vecs = data.draw(_matrices(n, k))
    ech = Echelon()
    for i, v in enumerate(vecs):
        grew = ech.add(_qm([v], k))
        assert grew == (plain_rank(vecs[: i + 1]) > plain_rank(vecs[:i]))
        assert ech.dim == plain_rank(vecs[: i + 1])
    stored = sorted(ech._rows.items())
    assert _is_reduced_primitive([row for _, (row, _) in stored], [p for p, _ in stored])
    assert all(pairs == [(j, x) for j, x in enumerate(row) if x] for _, (row, pairs) in stored)
    # membership by rank: the stored rows and v have rank dim iff v is in the span
    rows = [row for _, (row, _) in stored]
    probes = data.draw(_matrices(2, k)) + [_combination(data, vecs, k)]
    for v in probes:
        inside = plain_rank(vecs + [v]) == plain_rank(vecs)
        assert (rank(_qm(rows + [v], k)) == ech.dim) == inside
    assert rank(_qm(rows + [probes[-1]], k)) == ech.dim


@settings(max_examples=60, deadline=None)
@given(st.data(), _dims, _dims)
def test_rref_matches_reference(data, n, k):
    a = data.draw(_matrices(n, k))
    red, pivots = rref(_qm(a, k))
    ref, ref_pivots = ref_rref(a)
    assert pivots == ref_pivots
    assert red.a == ref
    assert _all_fractions(red.a)
    rows, pivots = linalg._reduced_echelon(linalg._int_rows(a)[0])
    assert _is_reduced_primitive(rows, pivots)
    assert pivots == ref_pivots and len(rows) == len(pivots)


@st.composite
def _invertible(draw, n):
    """L * U with L unit lower and U upper triangular, nonzero diagonal."""
    nonzero = _entries.filter(bool)
    lower = [[draw(_entries) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(nonzero) if i == j else draw(_entries) if j > i else 0
              for j in range(n)] for i in range(n)]
    return _ref_mul(lower, upper, n)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
def test_solve_columns_round_trip(data, k, extra, t):
    square = data.draw(_invertible(k))
    rows = square + data.draw(_matrices(extra, k))
    order = data.draw(st.permutations(range(k + extra)))
    basis = [rows[i] for i in order]
    n = k + extra
    m = _qm(basis, k)
    x = data.draw(_matrices(k, t))
    target = _ref_mul(basis, x, t)
    sol = solve_columns(m, _qm(target, t))
    assert (sol.rows, sol.cols) == (k, t)
    assert sol.a == [[Fraction(v) for v in row] for row in x]
    assert _all_fractions(sol.a)
    cols = [[row[j] for row in basis] for j in range(k)]
    for i in range(n):
        unit = [Fraction(int(r == i)) for r in range(n)]
        in_span = plain_rank(cols + [unit]) == k
        if in_span:
            solve_columns(m, _qm([[u] for u in unit], 1))
        else:
            with pytest.raises(ValueError, match="not in span"):
                solve_columns(m, _qm([[u] for u in unit], 1))
    if k:
        doubled = _qm([row + [row[0]] for row in basis], k + 1)
        with pytest.raises(ValueError, match="dependent"):
            solve_columns(doubled, _qm(target, t))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
def test_column_solver_round_trip(data, k, extra, t):
    square = data.draw(_invertible(k))
    rows = square + data.draw(_matrices(extra, k))
    order = data.draw(st.permutations(range(k + extra)))
    basis = [rows[i] for i in order]
    n = k + extra
    solve = column_solver(_qm(basis, k))
    for _ in range(2):  # one elimination serves every target
        x = data.draw(_matrices(k, t))
        sol = solve(_qm(_ref_mul(basis, x, t), t))
        assert (sol.rows, sol.cols) == (k, t)
        assert sol.a == [[Fraction(v) for v in row] for row in x]
    cols = [[row[j] for row in basis] for j in range(k)]
    for i in range(n):
        unit = _qm([[int(r == i)] for r in range(n)], 1)
        if plain_rank(cols + [[Fraction(int(r == i)) for r in range(n)]]) == k:
            assert _ref_mul(basis, solve(unit).a, 1) == unit.a
        else:
            with pytest.raises(ValueError, match="not in span"):
                solve(unit)
    if k:
        doubled = _qm([row + [row[0]] for row in basis], k + 1)
        with pytest.raises(ValueError, match="dependent"):
            column_solver(doubled)


def _ref_kernel(a, k):
    """One vector per free column f of ref_rref: 1 at f, 0 at the other free columns."""
    red, pivots = ref_rref(a)
    ref = []
    for f in range(k):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(k)]
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        ref.append(v)
    return ref


@settings(max_examples=60, deadline=None)
@given(st.data(), _dims, _dims)
def test_kernel_matches_rank_oracle(data, n, k):
    a = data.draw(_matrices(n, k))
    m = _qm(a, k)
    vecs = kernel(m)
    assert rank(m) == plain_rank(a)
    assert (vecs.rows, vecs.cols) == (k, k - plain_rank(a))
    assert all(x == 0 for row in _ref_mul(a, vecs.a, vecs.cols) for x in row)
    assert [c.a for c in vecs.columns()] == [[[x] for x in v] for v in _ref_kernel(a, k)]
    assert vecs == _qm(_ref_kernel(a, k), k).transpose()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(st.integers(0, 4), min_size=1, max_size=3), _dims)
def test_joint_kernel_matches_stacked_oracle(data, heights, k):
    # blocks over different denominators: each is scaled by its own 1/s
    blocks = [data.draw(_matrices(h, k)) for h in heights]
    scales = [data.draw(st.integers(1, 12)) for _ in blocks]
    blocks = [[[Fraction(x) / s for x in row] for row in b] for b, s in zip(blocks, scales)]
    vecs = joint_kernel([_qm(b, k) for b in blocks])
    stacked = [row for b in blocks for row in b]
    assert [c.a for c in vecs.columns()] == [[[x] for x in v] for v in _ref_kernel(stacked, k)]
    assert (vecs.rows, vecs.cols) == (k, k - plain_rank(stacked))
    assert all(x == 0 for row in _ref_mul(stacked, vecs.a, vecs.cols) for x in row)


def _echelon_same_span(a, b):
    """Oracle: the Echelon of a's columns is as big as b's and takes in none of them."""
    ea, eb = Echelon(), Echelon()
    for v in a.columns():
        ea.add(v)
    for v in b.columns():
        eb.add(v)
    return ea.dim == eb.dim and not any(ea.add(v) for v in b.columns())


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_same_span_matches_echelon_oracle(data, n, ka, kb, extra):
    # b's columns are combinations of a's, so the spans often agree; an extra
    # column may leave a's span.  ka or kb == 0 gives a zero-column matrix
    ints = st.integers(-3, 3)
    a = QMatrix.from_ints([[data.draw(ints) for _ in range(ka)] for _ in range(n)], cols=ka)
    c = QMatrix.from_ints([[data.draw(ints) for _ in range(kb)] for _ in range(ka)], cols=kb)
    b = a * c * rat(1, data.draw(st.integers(1, 6)))
    if extra:
        b = b.hstack(QMatrix.from_ints([[data.draw(ints)] for _ in range(n)]))
    expected = _echelon_same_span(a, b)
    assert same_span(a, b) == same_span(b, a) == expected
    assert same_span(a, a) and same_span(b, b)


# ---------------------------------------------------------------------------
# integer storage: every QMatrix is integer rows over one normalized denominator
# ---------------------------------------------------------------------------


def _fracs(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _check_storage(m, ref, cols):
    """m is stored normalized and reads back as the Fraction rows ref."""
    assert (m.rows, m.cols) == (len(ref), cols)
    assert m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert all(type(x) is int for row in m.num for x in row)
    assert m.a == ref
    assert _all_fractions(m.a)
    assert m.to_obj() == [[str(x) for x in row] for row in ref]


def _storage_cases(data, n, k, m):
    """(name, result, Fraction oracle, width) for every QMatrix-returning operation."""
    a, b = (_fracs(data.draw(_matrices(n, k))) for _ in range(2))
    c = _fracs(data.draw(_matrices(k, m)))
    s, s2 = (_fracs(data.draw(_matrices(k, k))) for _ in range(2))
    q = Fraction(data.draw(_entries))
    qa, qb, qc, qs, qs2 = (_qm(x, w) for x, w in ((a, k), (b, k), (c, m), (s, k), (s2, k)))
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    den = data.draw(st.integers(1, 30))
    cases = [
        ("QMatrix", qa, a, k),
        ("from_ints", QMatrix.from_ints([[x.numerator * den for x in r] for r in c], den, m),
         [[Fraction(x.numerator) for x in r] for r in c], m),
        ("zeros", QMatrix.zeros(n, k), [[Fraction(0)] * k for _ in range(n)], k),
        ("identity", QMatrix.identity(k), ident, k),
        ("add", qa + qb, [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)], k),
        ("sub", qa - qb, [[x - y for x, y in zip(r, t)] for r, t in zip(a, b)], k),
        ("neg", -qa, [[-x for x in r] for r in a], k),
        ("mul", qa * qc, _ref_mul(a, c, m), m),
        ("scalar", qa * q, [[x * q for x in r] for r in a], k),
        ("rscalar", q * qa, [[q * x for x in r] for r in a], k),
        ("power", qs.power(2), _ref_mul(s, s, k), k),
        ("transpose", qa.transpose(), [[r[j] for r in a] for j in range(k)], n),
        ("hstack", qa.hstack(qb), [r + t for r, t in zip(a, b)], 2 * k),
        ("commutator", qs.commutator(qs2),
         [[x - y for x, y in zip(r, t)] for r, t in zip(_ref_mul(s, s2, k), _ref_mul(s2, s, k))], k),
    ]
    if k:  # the last column, normalized on its own
        cases.append(("columns", qa.columns()[-1], [[r[-1]] for r in a], 1))
    red, pivots = ref_rref(a)
    cases.append(("rref", rref(qa)[0], red, k))
    square = _fracs(data.draw(_invertible(k)))
    target = _ref_mul(square, c, m)
    cases.append(("solve_columns", solve_columns(_qm(square, k), _qm(target, m)), c, m))
    cases.append(("column_solver", column_solver(_qm(square, k))(_qm(target, m)), c, m))
    return cases


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_storage_is_normalized_and_reads_back(data, n, k, m):
    cases = _storage_cases(data, n, k, m)
    for name, result, ref, cols in cases:
        try:
            _check_storage(result, ref, cols)
        except AssertionError as exc:
            raise AssertionError(name) from exc
    # == agrees with the oracle, also across results reached through
    # different denominators
    for _, x, ref_x, cols_x in cases:
        scale = data.draw(st.integers(1, 12))
        assert x == QMatrix.from_ints([[v * scale for v in r] for r in x.num], x.den * scale, x.cols)
        for _, y, ref_y, cols_y in cases:
            assert (x == y) == ((len(ref_x), cols_x) == (len(ref_y), cols_y) and ref_x == ref_y)


def test_reading_entries_leaves_the_matrix_unchanged():
    m = QMatrix([[1, rat(1, 2)], [0, -3]])
    rows = m.a
    rows[0][0] = rat(7)
    rows[1].append(rat(1))
    m.columns()[1].num[0][0] = 5
    assert m.a == [[1, rat(1, 2)], [0, -3]]
    assert (m.num, m.den) == ([[2, 1], [0, -6]], 2)
    assert m[0, 1] == rat(1, 2) and m.trace() == rat(-2)


def test_from_ints_rejects_bad_input():
    with pytest.raises(ValueError):
        QMatrix.from_ints([[1, 2], [3]])
    with pytest.raises(ValueError):
        QMatrix.from_ints([[1]], 0)
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]])
    assert QMatrix.from_ints([[2, 4]], 6) == QMatrix([[rat(1, 3), rat(2, 3)]])
    assert QMatrix.from_ints([], 1, 3) == QMatrix.zeros(0, 3)


# ---------------------------------------------------------------------------
# span closure against every word in the generators
# ---------------------------------------------------------------------------


def _flat(x):
    return [e for row in x.a for e in row]


_sparse = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def _seeds(draw, dim, make):
    """Seed elements, some zero and some combinations of earlier ones."""
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent"]))
        if kind == "random" or (kind == "dependent" and not seeds):
            seeds.append(make([draw(_sparse) for _ in range(dim)]))
        elif kind == "zero":
            seeds.append(make([0] * dim))
        else:
            coeffs = [draw(_entries) for _ in seeds]
            seeds.append(make([
                sum((Fraction(c) * Fraction(_flat(x)[j]) for c, x in zip(coeffs, seeds)),
                    Fraction(0))
                for j in range(dim)
            ]))
    return seeds


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.integers(0, 3))
def test_closure_matches_word_oracle(data, matrices, ngens):
    # sparse generators leave proper invariant subspaces, so the closure
    # often stops short of the whole space
    if matrices:
        n = data.draw(st.integers(1, 2))
        dim = n * n
        make = lambda flat: QMatrix([flat[i * n:(i + 1) * n] for i in range(n)])

        def act(x, g):
            return x * g
    else:
        n = dim = data.draw(st.integers(1, 4))
        make = lambda flat: QMatrix([[x] for x in flat])

        def act(x, g):
            return g * x
    gens = [QMatrix([[data.draw(_sparse) for _ in range(n)] for _ in range(n)])
            for _ in range(ngens)]
    seeds = data.draw(_seeds(dim, make))
    ech, elements = closure(seeds, gens, act)

    # oracle: all words of length <= dim applied to every seed
    level, words = list(seeds), list(seeds)
    for _ in range(dim):
        level = [act(x, g) for x in level for g in gens]
        words += level
    closed = plain_rank([_flat(x) for x in words])
    flat = [_flat(x) for x in elements]
    assert ech.dim == len(elements) == closed
    assert plain_rank(flat) == len(flat)
    assert plain_rank(flat + [_flat(x) for x in words]) == closed
    rows = [row for row, _ in ech._rows.values()]
    assert plain_rank(rows + [_flat(x) for x in words]) == ech.dim
    # the independent seeds come first, in order
    independent = [
        x for i, x in enumerate(seeds)
        if plain_rank([_flat(y) for y in seeds[: i + 1]])
        > plain_rank([_flat(y) for y in seeds[:i]])
    ]
    assert elements[: len(independent)] == independent


def test_closure_expands_every_new_element():
    # three independent seeds, each with its own image under one shift
    shift = QMatrix([[int(i == j + 3) for j in range(6)] for i in range(6)])
    seeds = [QMatrix([[int(i == k)] for i in range(6)]) for k in range(3)]
    ech, elements = closure(seeds, [shift], lambda v, g: g * v)
    assert ech.dim == 6
    assert elements == seeds + [QMatrix([[int(i == k + 3)] for i in range(6)]) for k in range(3)]


# ---------------------------------------------------------------------------
# commuting-family decomposition and rational roots on random inputs
# ---------------------------------------------------------------------------

_small = st.integers(-3, 3)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_joint_decomposition_partitions_random_commuting_family(data, n, count):
    base = QMatrix([[data.draw(_small) for _ in range(n)] for _ in range(n)])
    mats = []
    for _ in range(count):
        coeffs = data.draw(st.lists(_small, min_size=1, max_size=3))
        m = QMatrix.zeros(n, n)
        power = QMatrix.identity(n)
        for c in coeffs:
            m = m + power * c
            power = power * base
        mats.append(m)
    blocks = joint_invariant_decomposition(mats)
    assert sum(basis.cols for basis, _ in blocks) == n
    stacked = [row for basis, _ in blocks for row in basis.transpose().a]
    assert plain_rank(stacked) == n
    for basis, labels in blocks:
        assert len(labels) == count
        for m in mats:
            solve_columns(basis, m * basis)  # raises unless invariant


def _divide_by_root(p, r):
    """Synthetic division of p (low to high) by t - r: (quotient, remainder)."""
    acc = Fraction(0)
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _has_rational_root(p):
    """Brute force over every a/b with a | constant term and b | lead."""
    ints = [int(c * lcm(*(x.denominator for x in p))) for c in p]
    if ints[0] == 0:
        return True
    nums = [a for a in range(1, abs(ints[0]) + 1) if ints[0] % a == 0]
    dens = [b for b in range(1, abs(ints[-1]) + 1) if ints[-1] % b == 0]
    return any(
        upoly_eval(p, Fraction(s * a, b)) == 0 for a in nums for b in dens for s in (1, -1)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(-4, 4, max_denominator=3), st.integers(1, 3)), max_size=3),
    st.lists(st.integers(-4, 4), max_size=4),
    st.integers(1, 4),
)
def test_rational_roots_against_evaluation(factors, cofactor, lead):
    p = [Fraction(c) for c in cofactor] + [Fraction(lead)]
    for r, k in factors:
        for _ in range(k):
            p = upoly_mul(p, [-r, Fraction(1)])
    roots = rational_roots(p)
    assert [r for r, _ in roots] == sorted({r for r, _ in roots})
    rest = p
    for r, m in roots:
        for _ in range(m):
            rest, rem = _divide_by_root(rest, r)
            assert rem == 0
        assert _divide_by_root(rest, r)[1] != 0  # exactly multiplicity m
    assert len(rest) >= 1 and rest[-1] != 0
    assert not _has_rational_root(rest)
    for r, k in factors:
        assert dict(roots).get(r, 0) >= k


# ---------------------------------------------------------------------------
# the exact root layer, on polynomials built from known roots
# ---------------------------------------------------------------------------

_root_factors = st.tuples(
    st.lists(st.tuples(st.fractions(-4, 4, max_denominator=4), st.integers(1, 3)), max_size=3),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 2)), max_size=2),
    st.integers(1, 6).flatmap(lambda c: st.sampled_from([c, -c])),
)


def _built(linears, quadratics, lead):
    """lead * prod (x - r)^k * prod (x^2 - D)^k, and its real roots as
    {root: multiplicity}, each root a Fraction or ("sqrt", D) / ("-sqrt", D)."""
    p = [Fraction(lead)]
    roots = {}
    for r, k in linears:
        p = upoly_mul(p, _power([-r, Fraction(1)], k))
        roots[r] = roots.get(r, 0) + k
    for d, k in quadratics:
        p = upoly_mul(p, _power([Fraction(-d), Fraction(0), Fraction(1)], k))
        if d >= 0 and math.isqrt(d) ** 2 == d:
            s = math.isqrt(d)
            for r in {Fraction(s), Fraction(-s)}:  # one root 0, of multiplicity 2k
                roots[r] = roots.get(r, 0) + k * (2 if d == 0 else 1)
        elif d > 0:
            for r in (("sqrt", d), ("-sqrt", d)):
                roots[r] = roots.get(r, 0) + k
    return p, roots


def _power(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = upoly_mul(out, p)
    return out


def _approx(root):
    if isinstance(root, Fraction):
        return root
    return Fraction((1 if root[0] == "sqrt" else -1) * root[1] ** 0.5)


@settings(max_examples=80, deadline=None)
@given(_root_factors)
def test_real_roots_are_correctly_rounded(factors):
    p, roots = _built(*factors)
    expected = sorted(roots.items(), key=lambda t: _approx(t[0]))
    got = linalg.real_roots(p)
    assert [m for _, m in got] == [m for _, m in expected]
    for (x, _), (root, _) in zip(got, expected):
        if isinstance(root, Fraction):
            assert x == float(root)
            continue
        # x^2 - D changes sign between the midpoints to x's neighbours, so
        # the root lies strictly between them and x is its nearest double
        d = root[1]
        below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
        above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        assert (below * below - d) * (above * above - d) < 0
        assert (x > 0) == (root[0] == "sqrt")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(-10**6, 10**6, max_denominator=10**4), min_size=1, max_size=8),
    st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6)),
        max_size=6,
    ),
)
def test_upoly_at_floats_is_the_rounded_exact_value(p, xs):
    assert upoly_at_floats(p, xs) == [float(upoly_eval(p, Fraction(x))) for x in xs]


@settings(max_examples=80, deadline=None)
@given(_root_factors)
def test_rational_roots_match_construction(factors):
    p, roots = _built(*factors)
    expected = sorted((r, m) for r, m in roots.items() if isinstance(r, Fraction))
    assert rational_roots(p) == expected


@settings(max_examples=80, deadline=None)
@given(_root_factors)
def test_squarefree_decomposition_rebuilds_the_polynomial(factors):
    p, roots = _built(*factors)
    decomp = squarefree_decomposition(p)
    rebuilt = [p[-1]]
    for f, m in decomp:
        assert f[-1] == 1 and len(f) > 1 and is_squarefree(f)
        rebuilt = upoly_mul(rebuilt, _power(f, m))
    assert rebuilt == p
    for i, (f, _) in enumerate(decomp):
        for g, _ in decomp[i + 1:]:
            assert linalg._gcd(linalg._int_poly(f), linalg._int_poly(g)) == [1]
    # every multiplicity of the construction is at least one factor's
    assert set(roots.values()) <= {m for _, m in decomp}
    assert is_squarefree(p) == all(m == 1 for _, m in decomp)


def test_rational_roots_need_no_factoring():
    # the constant term has a large semiprime factor; no divisor search runs
    p = upoly_mul([Fraction(-2), Fraction(1)], [Fraction(-1048583 * 1048601), ZERO, ONE])
    assert rational_roots(p) == [(Fraction(2), 1)]
