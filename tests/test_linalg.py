import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigalg.linalg import (
    Echelon,
    QMatrix,
    charpoly,
    is_squarefree,
    joint_invariant_decomposition,
    kernel,
    rank,
    rational_roots,
    rref,
    simple_spectrum_check,
    solve_columns,
    squarefree_decomposition,
    upoly_eval,
    upoly_gcd,
    upoly_mul,
)
from bigalg.multipoly import rat


def plain_rank(rows):
    """Independent oracle: textbook Gaussian elimination over Fractions."""
    a = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_kernel_identity_and_zero():
    assert kernel(QMatrix.identity(3)) == []
    assert len(kernel(QMatrix.zeros(2, 3))) == 3


def test_kernel_random_rank5():
    rng = random.Random(7)
    m = QMatrix([[rng.randint(-9, 9) for _ in range(8)] for _ in range(5)])
    r = plain_rank(m.a)
    assert r == 5  # generic draw; oracle = independent row reduction
    vecs = kernel(m)
    assert len(vecs) == 3
    for v in vecs:
        assert all(x == 0 for x in m.mul_vec(v))
    ech = Echelon()
    for v in vecs:
        assert ech.add(v)  # independence


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(8):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = QMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == plain_rank(m.a)
        assert rank(m) + len(kernel(m)) == cols


def test_rref_and_solve():
    m = QMatrix([[2, 0], [0, 4], [2, 4]])
    target = m * QMatrix([[1, 2], [3, rat(1, 2)]])
    x = solve_columns(m, target)
    assert m * x == target
    # (1,0,0) is off the plane z = x + y spanned by the columns
    with pytest.raises(ValueError):
        solve_columns(m, QMatrix([[1], [0], [0]]))


def test_charpoly_and_roots():
    m = QMatrix.diagonal([1, 2, 3])
    chi = charpoly(m)
    assert chi == [rat(-6), rat(11), rat(-6), rat(1)]
    assert rational_roots(chi) == [(rat(1), 1), (rat(2), 1), (rat(3), 1)]
    chi2 = charpoly(QMatrix.diagonal([1, 2, 2]))
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
    g = upoly_gcd(cubic, square)
    assert upoly_eval(g, rat(1)) == 0


def test_simple_spectrum_check():
    assert not simple_spectrum_check(QMatrix.identity(2))
    assert simple_spectrum_check(QMatrix.diagonal([1, 2, 3]))


def test_joint_decomposition_diagonal():
    a = QMatrix.diagonal([1, 2])
    b = QMatrix.diagonal([3, 3])
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
    comp = QMatrix([[0, 2], [1, 0]])
    m = QMatrix.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            m.a[i][j] = comp.a[i][j]
            m.a[2 + i][2 + j] = comp.a[i][j]
    alone = joint_invariant_decomposition([m])
    assert len(alone) == 1 and alone[0][0].cols == 4
    assert alone[0][1] == ((rat(-2), rat(0), rat(1)),)
    d = QMatrix.diagonal([1, 1, 2, 2])
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
    d = QMatrix.diagonal([1, 1, 2, 5])
    # conjugate by a random unimodular matrix to hide the splitting
    u = QMatrix.identity(4)
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        e = QMatrix.identity(4)
        e.a[i][j] = rat(rng.randint(-3, 3))
        u = u * e
    m = u * d * solve_columns(u, QMatrix.identity(4))
    blocks = joint_invariant_decomposition([m])
    assert sum(b.cols for b, _ in blocks) == 4
    for basis, _ in blocks:
        image = m * basis
        solve_columns(basis, image)  # raises if not invariant


def test_joint_decomposition_unequal_irrational_multiplicities():
    # chi = (t^2 - 2)^2 (t^2 - 3): the two irrational factors repeat unequally
    m = QMatrix.zeros(6, 6)
    for start, c in ((0, 2), (2, 2), (4, 3)):
        m.a[start][start + 1] = rat(c)
        m.a[start + 1][start] = rat(1)
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
    """Rows of mixed ints and Fractions, some rows and columns all zero."""
    a = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, 5)))
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
def test_mul_vec_matches_reference(data, n, k):
    a = data.draw(_matrices(n, k))
    v = data.draw(_matrices(1, k))[0]
    out = _qm(a, k).mul_vec(v)
    assert out == [row[0] for row in _ref_mul(a, [[x] for x in v], 1)]
    assert _all_fractions([out])
    assert _qm(a, k) * v == out


@settings(max_examples=30, deadline=None)
@given(st.data(), _dims, _dims, _dims, _dims)
def test_kron_matches_reference(data, n1, m1, n2, m2):
    a = data.draw(_matrices(n1, m1))
    b = data.draw(_matrices(n2, m2))
    out = _qm(a, m1).kron(_qm(b, m2))
    ref = [
        [Fraction(x) * Fraction(y) for x in r for y in s] for r in a for s in b
    ]
    assert out.rows == n1 * n2
    assert out.a == ref
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
        QMatrix.zeros(2, 3).mul_vec([1, 2])
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3) * [1, 2, 3, 4]
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3).power(2)
    with pytest.raises(ValueError):
        charpoly(QMatrix.zeros(2, 3))


def test_empty_inner_dimension_gives_zero_matrix():
    for n, m in ((3, 4), (0, 2), (2, 0)):
        prod = QMatrix.zeros(n, 0) * QMatrix.zeros(0, m)
        assert prod == QMatrix.zeros(n, m)
        assert (prod.rows, prod.cols) == (n, m)
