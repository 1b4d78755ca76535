"""Independent reference computations that only the tests use.

Each one recomputes, the slow and direct way, something the package
computes another way or writes down: the trace form, the basis names and
the structure constants of sl_n, ad(x) and the centralizer of x as the
kernel of ad(x), the outer involution by conjugating each basis matrix
with w0, the JSON of polynomials and polynomial matrices,
polynomial-matrix products, substitutions and values
entry by entry with Fraction coefficients, polynomials at commuting
matrices through cached powers, the small and medium operators from their
defining formulas, equivariance and homogeneity as exact polynomial
identities, the common total degree of polynomial entries, rho of the
Killing-dual basis as dense matrices, formal derivatives term by term, the
q-partition function by explicit enumeration, weight spaces by joint
eigenspace decomposition, the freeness report with the span closure run
at every point, the companion matrix entry by entry, the reduced row
echelon form by textbook Gauss-Jordan over Fractions and the inverse of a
square matrix read off it, sl_n's inverse Cartan matrix through that
inverse, with the root coordinates, diagonal
coordinates and pairings of weights read through it, and a module built
in the tensor product of exterior powers with one factor per unit of mu
(the ambient before symmetrization), with its vectors folded into the
symmetric ambient and its rho solved against the whole of that ambient.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod
from operator import mul

from bigalg import lie
from bigalg.bigalgebra import _PROBE_POOL, _image, random_c_point
from bigalg.linalg import (
    Echelon,
    QMatrix,
    charpoly,
    closure,
    flat_columns,
    is_squarefree,
    joint_invariant_decomposition,
    kernel,
    solve_columns,
)
from bigalg.multipoly import ZERO, MultiPoly, VarSet, rat
from bigalg.polymatrix import PolyMatrix
from bigalg.qpoly import QPoly


def ref_rref(rows):
    """Textbook Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    a = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    r = 0
    pivots = []
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
        pivots.append(c)
        r += 1
    return a, pivots


def inverse(m):
    """The inverse of a square QMatrix, read off ref_rref of [m | I].

    ValueError when m is not square or is singular.
    """
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of non-square matrix")
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = ref_rref([row + e for row, e in zip(m.a, ident)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return QMatrix([row[n:] for row in red])


def upoly_eval(p, x):
    """p(x) for coefficients p low to high, in Fraction arithmetic."""
    total = ZERO
    for c in reversed(p):
        total = total * x + c
    return total


def column(values):
    """The QMatrix column with the given entries."""
    return QMatrix([[x] for x in values])


def column_entries(col):
    """The entries of a QMatrix column, as Fractions."""
    return [x for (x,) in col.a]


def diagonal(entries):
    """The diagonal QMatrix with the given entries."""
    n = len(entries)
    return QMatrix([[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)])


def companion(cvals):
    """Rows of the companion matrix of lambda^n + c_2 lambda^(n-2) + ... + c_n
    at cvals = (c_2, ..., c_n): 1 below the diagonal, and minus the
    coefficient of lambda^i in row i of the last column."""
    n = len(cvals) + 1
    # the coefficient of lambda^i for i < n is c_(n-i), with c_1 = 0
    low = list(reversed(cvals)) + [0]
    return [
        [1 if i == j + 1 else (-low[i] if j == n - 1 else 0) for j in range(n)]
        for i in range(n)
    ]


def symbolic_section(L):
    """The ring Q[c_2..c_n] and the section coordinates over it."""
    ring = VarSet(["c%d" % k for k in range(2, L.n + 1)])
    cvars = [MultiPoly.variable(ring, nm) for nm in ring.names]
    return ring, lie.section_coords(L, cvars)


def basis_names(L):
    """Names of the basis of sl_n in its order: E_ij (i != j), then H_k."""
    n = L.n
    return ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n) if i != j] + [
        "H%d" % (k + 1) for k in range(n - 1)
    ]


def trace_form(L):
    """The Gram matrix tr(X_i X_j) of the trace form on the basis of sl_n."""
    return QMatrix([[(x * y).trace() for y in L.basis] for x in L.basis])


def _sparse_basis(n):
    """The basis of sl_n as {(row, col): int} maps: E_ij (i != j), then H_k."""
    basis = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    return basis + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]


def _sparse_product(x, y):
    """The product of two matrices given as {(row, col): value} maps."""
    out = {}
    for (r, k), u in x.items():
        for (k2, c), v in y.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) + u * v
    return out


def _sparse_coords(n, m):
    """Basis coordinates of a trace-zero {(row, col): int} matrix.

    Off-diagonal entries are coordinates as they stand; H_k carries the
    diagonal's running sum m_11 + ... + m_kk.
    """
    coords = [m.get((i, j), 0) for i in range(n) for j in range(n) if i != j]
    acc = 0
    for k in range(n - 1):
        acc += m.get((k, k), 0)
        coords.append(acc)
    assert acc + m.get((n - 1, n - 1), 0) == 0
    return coords


_STRUCTURE = {}


def structure_constants(n):
    """c[i][j]: integer coordinates of [X_i, X_j] in the basis of sl_n, from
    products of the sparse basis matrices; cached per n."""
    if n not in _STRUCTURE:
        basis = _sparse_basis(n)
        c = []
        for x in basis:
            row = []
            for y in basis:
                xy, yx = _sparse_product(x, y), _sparse_product(y, x)
                bracket = {k: xy.get(k, 0) - yx.get(k, 0) for k in set(xy) | set(yx)}
                row.append(_sparse_coords(n, bracket))
            c.append(row)
        _STRUCTURE[n] = c
    return _STRUCTURE[n]


def killing_by_structure(n):
    """kappa(X_i, X_j) = tr(ad X_i ad X_j) = sum_{k,l} c^k_il c^l_jk."""
    c = structure_constants(n)
    dim = len(c)
    return QMatrix(
        [
            [
                sum(c[i][l][k] * c[j][k][l] for k in range(dim) for l in range(dim))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    )


def bracket_by_structure(n, x, y):
    """Coordinates of [x, y] = sum_{i,j} x_i y_j [X_i, X_j] for coordinate
    vectors given as lists."""
    c = structure_constants(n)
    out = [ZERO] * len(c)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, v in enumerate(c[i][j]):
                    out[k] += xi * yj * v
    return out


def bracket_coords(L, x, y):
    """The coordinate column of the commutator [x, y] of two n x n matrices."""
    return L.coords_of(x * y - y * x)


def ad_matrix(L, coords):
    """ad(x) on coordinate columns: column j is [x, X_j], from matrix
    commutators."""
    x = L.matrix_of(coords)
    return flat_columns([bracket_coords(L, x, b) for b in L.basis])


def centralizer(L, coords):
    """The centralizer of x inside sl_n: the kernel of ad(x)."""
    return kernel(ad_matrix(L, coords))


def pinning_w0(n):
    """The antidiagonal matrix with entry (-1)^i in row i."""
    return QMatrix.from_ints(
        [[(-1) ** i if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]
    )


def sigma_on_matrix(L, x):
    """sigma(x) = -w0 x^T w0^-1; w0 is a signed permutation matrix, so its
    inverse is its transpose."""
    w0 = pinning_w0(L.n)
    return -(w0 * x.transpose() * w0.transpose())


def sigma_coord_matrix(L):
    """sigma on coordinate columns: column i is sigma(X_i), each basis
    matrix conjugated by w0 and its coordinates read back."""
    return flat_columns([L.coords_of(sigma_on_matrix(L, b)) for b in L.basis])


def poly_obj(p):
    """A MultiPoly as JSON: its variables and its (exponents, coefficient)
    terms in ascending exponent order."""
    terms = [[list(e), str(c)] for e, c in sorted(
        ((p.ring.unpack(k), c) for k, c in p.terms.items()),
        key=lambda t: t[0],
    )]
    return {"variables": list(p.ring.names), "terms": terms}


def polymatrix_obj(m):
    """A PolyMatrix as JSON: its variables and the terms of each entry."""
    return {
        "variables": list(m.ring.names),
        "entries": [[poly_obj(p)["terms"] for p in row] for row in m.a],
    }


def is_homogeneous(p):
    """The common total degree of the terms of a MultiPoly, or of every entry
    of a PolyMatrix; 0 for zero and None when the degrees differ."""
    rows = p.a if isinstance(p, PolyMatrix) else [[p]]
    degs = {sum(q.ring.unpack(k)) for row in rows for q in row for k in q.terms}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def diff(poly, name):
    """Formal partial derivative of a MultiPoly with respect to one variable."""
    ring = poly.ring
    if name not in ring.index:
        raise ValueError("unknown variable %r" % name)
    i = ring.index[name]
    unit = ring._units[i]
    out = {}
    for k, c in poly.terms.items():
        e = ring.unpack(k)[i]
        if e:
            out[k - unit] = c * e
    return MultiPoly(ring, out, _trusted=True)


def mat_diff(mat, name):
    """The entrywise partial derivative of a PolyMatrix."""
    return PolyMatrix(mat.ring, [[diff(p, name) for p in row] for row in mat.a])


# ---------------------------------------------------------------------------
# polynomial matrices as rows of MultiPoly entries with Fraction coefficients
# ---------------------------------------------------------------------------


def entry_rows(m, ring):
    """The entries of a PolyMatrix, or of a QMatrix as constants in ring."""
    if isinstance(m, QMatrix):
        return [[MultiPoly.const(ring, x) for x in row] for row in m.a]
    return m.a


def entry_product(ring, a, b, cols):
    """The product of two matrices given as rows of MultiPoly, entry by entry."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = MultiPoly.zero(ring)
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def entry_sum_of_products(ring, rows, cols, terms):
    """The sum of s * A * B over terms [(s, A, B)], entry by entry."""
    out = [[MultiPoly.zero(ring)] * cols for _ in range(rows)]
    for s, a, b in terms:
        prod = entry_product(ring, entry_rows(a, ring), entry_rows(b, ring), cols)
        out = [[x + y.scale(s) for x, y in zip(r, p)] for r, p in zip(out, prod)]
    return out


def entry_subs(a, target_ring, mapping):
    """MultiPoly.subs on every entry."""
    return [[p.subs(target_ring, mapping) for p in row] for row in a]


def evaluate(poly, values):
    """Evaluate a MultiPoly at a rational point given as {name: value}."""
    point = [rat(values[nm]) for nm in poly.ring.names]
    total = ZERO
    for k, c in poly.terms.items():
        v = c
        for i, e in enumerate(poly.ring.unpack(k)):
            if e:
                v = v * point[i] ** e
        total += v
    return total


def poly_of_commuting(poly, mats):
    """Evaluate a polynomial at commuting matrices named by its variables."""
    ring = poly.ring
    dim = next(iter(mats.values())).rows
    powers = {nm: {0: QMatrix.identity(dim)} for nm in ring.names}

    def power(nm, e):
        cache = powers[nm]
        if e not in cache:
            cache[e] = power(nm, e - 1) * mats[nm]
        return cache[e]

    total = QMatrix.zeros(dim, dim)
    for key, c in poly.terms.items():
        term = QMatrix.identity(dim)
        for nm, e in zip(ring.names, ring.unpack(key)):
            if e:
                term = term * power(nm, e)
        total = total + term * c
    return total


def entry_evaluate(a, values):
    """evaluate on every entry."""
    return [[evaluate(p, values) for p in row] for row in a]


# ---------------------------------------------------------------------------
# operator-valued polynomials on sl_n
# ---------------------------------------------------------------------------


def small_operator(rep):
    """A |-> rho(A): the tautological degree-one element, over L.x_ring."""
    L = rep.L
    ring = L.x_ring
    mat = PolyMatrix.zeros(ring, rep.dim, rep.dim)
    for i in range(L.dim):
        xi = MultiPoly.variable(ring, "x%d" % i)
        mat = mat + PolyMatrix.from_qmatrix(ring, rep.rho[i]) * xi
    return mat


def medium_operator(rep, k):
    """rho of the traceless trace-form gradient of c_k; degree k - 1.

    The gradient G of c_k along sl_n satisfies tr(G X_j) = dc_k/dx_j for the
    whole basis, which already encodes the projection away from the trace.
    """
    L = rep.L
    if not 2 <= k <= L.n:
        raise ValueError("invariant index k must satisfy 2 <= k <= n")
    ck = L.invariant_ck(k)
    partials = [diff(ck, "x%d" % j) for j in range(L.dim)]
    # g = T^{-1} * partials with T the trace-form Gram matrix
    trace_inv = inverse(trace_form(L))
    mat = PolyMatrix.zeros(L.x_ring, rep.dim, rep.dim)
    for i, row in enumerate(trace_inv.a):
        gi = MultiPoly.zero(L.x_ring)
        for c, partial in zip(row, partials):
            if c and partial.terms:
                gi = gi + partial.scale(c)
        if gi.terms:
            mat = mat + PolyMatrix.from_qmatrix(L.x_ring, rep.rho[i]) * gi
    return mat


def dual_rho(rep):
    """rho(X^i) for the Killing-dual basis, cached on the representation."""
    if not hasattr(rep, "_dual_rho"):
        L = rep.L
        duals = []
        for row in L.killing_inv.a:
            m = QMatrix.zeros(rep.dim, rep.dim)
            for j, c in enumerate(row):
                if c:
                    m = m + rep.rho[j] * c
            duals.append(m)
        rep._dual_rho = duals
    return rep._dual_rho


def equivariance_check(rep, mat):
    """Infinitesimal equivariance: dF along [X, x] equals [rho(X), F(x)].

    Checked as an exact polynomial-matrix identity for every basis element,
    with the brackets read off the oracle's structure constants.
    """
    L = rep.L
    ring = L.x_ring
    c = structure_constants(L.n)
    partials = [mat_diff(mat, "x%d" % j) for j in range(L.dim)]
    for a in range(L.dim):
        lhs = PolyMatrix.zeros(ring, rep.dim, rep.dim)
        for j in range(L.dim):
            if partials[j].is_zero():
                continue
            # j-th coordinate of [X_a, x] as a linear form in x
            form = MultiPoly.zero(ring)
            for i in range(L.dim):
                if c[a][i][j]:
                    form = form + MultiPoly.variable(ring, "x%d" % i).scale(c[a][i][j])
            if form.terms:
                lhs = lhs + partials[j] * form
        rho_a = PolyMatrix.from_qmatrix(ring, rep.rho[a])
        if lhs != rho_a.commutator(mat):
            return False
    return True


def homogeneity_check(mat, degree, fresh_scale=7):
    """F(t*x) = t^degree F(x) verified at a generic rational scale factor."""
    ring = mat.ring
    t = rat(fresh_scale)
    mapping = {
        nm: MultiPoly.variable(ring, nm).scale(t) for nm in ring.names
    }
    scaled = mat.subs(ring, mapping)
    return scaled == mat * (t ** degree)


# ---------------------------------------------------------------------------
# pairings of weights
# ---------------------------------------------------------------------------


def cartan_inv(n):
    """The inverse of sl_n's tridiagonal Cartan matrix, by elimination."""
    r = n - 1
    return inverse(
        QMatrix([[2 if i == j else -int(abs(i - j) == 1) for j in range(r)] for i in range(r)])
    )


def root_coords_rational(pi):
    """The simple-root coordinates C^-1 pi of a weight, as Fractions."""
    c = cartan_inv(len(pi) + 1)
    return [sum((c[i, j] * p for j, p in enumerate(pi)), ZERO) for i in range(len(pi))]


def eps(lam):
    """lam's diagonal coordinates: sum_i lam_i omega_i, where omega_i is
    e_1 + ... + e_i - (i/n)(e_1 + ... + e_n)."""
    n = len(lam) + 1
    return [
        sum((c * (int(k < i) - rat(i, n)) for i, c in enumerate(lam, 1)), ZERO)
        for k in range(n)
    ]


def ip(lam, mu):
    """The basic inner product of two weights, through the inverse Cartan
    matrix."""
    c = cartan_inv(len(lam) + 1)
    return sum((x * y * c[i, j] for i, x in enumerate(lam) for j, y in enumerate(mu)), ZERO)


def h_pairing(lam):
    """lam(h) for the principal h = diag(n - 1, n - 3, ..., 1 - n), read off
    lam's diagonal coordinates."""
    n = len(lam) + 1
    return sum(v * (n - 1 - 2 * k) for k, v in enumerate(eps(lam)))


# ---------------------------------------------------------------------------
# q-partition counts and weight spaces
# ---------------------------------------------------------------------------


def qkostant_bruteforce(pi):
    """Independent oracle: explicit enumeration of root multisets."""
    coords = root_coords_rational(pi)
    if any(x.denominator != 1 or x < 0 for x in coords):
        return QPoly()
    target = tuple(int(x) for x in coords)
    r = len(pi)
    roots_rc = []
    for i in range(r):
        for j in range(i, r):
            vec = [0] * r
            for k in range(i, j + 1):
                vec[k] += 1
            roots_rc.append(tuple(vec))

    counts = {}

    def rec(idx, remaining, parts):
        if idx == len(roots_rc):
            if all(x == 0 for x in remaining):
                counts[parts] = counts.get(parts, 0) + 1
            return
        r = roots_rc[idx]
        rem = list(remaining)
        m = 0
        while all(x >= 0 for x in rem):
            rec(idx + 1, tuple(rem), parts + m)
            rem = [a - b for a, b in zip(rem, r)]
            m += 1

    rec(0, target, 0)
    return QPoly(counts)


def weight_spaces(rep, torus_elements):
    """Simultaneous eigenspace decomposition under commuting semisimple ops.

    torus_elements are Lie-algebra elements as coordinate columns; their
    images must commute and act with rational joint spectrum.
    """
    mats = [rep.op(x) for x in torus_elements]
    blocks = joint_invariant_decomposition(mats)
    for _, labels in blocks:
        for lab in labels:
            if isinstance(lab, tuple):
                raise ValueError("irrational spectrum")
    return blocks


def freeness_by_closure(rep, gens, seed=0):
    """freeness_and_rank_check with the fiber span always read off the span
    closure of the point values (vectors of length dim^2), never off a
    cyclic vector.  It draws from the seeded generator in the same order."""
    rng = random.Random(seed)
    n = rep.L.n
    report = {"points": [], "fiber_cyclic": None, "fiber_simple": None}
    for _ in range(3):
        cvals = random_c_point(rng, n)
        mats = [op.evaluate(cvals) for op in gens]
        span, _ = closure([QMatrix.identity(rep.dim)], mats, mul)
        vec = QMatrix.from_ints([[rng.choice(_PROBE_POOL)] for _ in range(rep.dim)])
        orbit, _ = closure([vec], mats, _image)
        combo = QMatrix.zeros(rep.dim, rep.dim)
        for m in mats:
            combo = combo + m * rng.choice(_PROBE_POOL)
        report["points"].append(
            {
                "cvals": cvals,
                "span_dim": span.dim,
                "span_ok": span.dim == rep.dim,
                "cyclic": orbit.dim == rep.dim,
                "simple_spectrum": is_squarefree(charpoly(combo)),
            }
        )
    zeros = [0] * (n - 1)
    mats0 = [op.evaluate(zeros) for op in gens]
    vec = QMatrix.from_ints([[rng.choice(_PROBE_POOL)] for _ in range(rep.dim)])
    report["fiber_cyclic"] = closure([vec], mats0, _image)[0].dim == rep.dim
    combo0 = QMatrix.zeros(rep.dim, rep.dim)
    for m in mats0:
        combo0 = combo0 + m * rng.choice(_PROBE_POOL)
    report["fiber_simple"] = is_squarefree(charpoly(combo0))
    report["ok"] = all(
        p["span_ok"] and p["cyclic"] and p["simple_spectrum"]
        for p in report["points"]
    ) and report["fiber_cyclic"]
    return report


def _wedge_move(x, s):
    """x . e_s on the exterior power, for a sorted subset s and an integer
    matrix x: each point b of s replaced by every a with x[a][b] != 0, and
    the subset sorted with the sign of its permutation."""
    out = {}
    for i, b in enumerate(s):
        for a, row in enumerate(x.num):
            if row[b] and (a == b or a not in s):
                t = s[:i] + (a,) + s[i + 1:]
                inversions = sum(u > v for j, u in enumerate(t) for v in t[j + 1:])
                key = tuple(sorted(t))
                out[key] = out.get(key, 0) + (-1) ** inversions * row[b]
    return out


def _old_action(x, vec):
    """x . vec on the tensor product of exterior powers, factor by factor."""
    out = {}
    for key, coef in vec.items():
        for f, s in enumerate(key):
            for t, c in _wedge_move(x, s).items():
                k = key[:f] + (t,) + key[f + 1:]
                out[k] = out.get(k, 0) + coef * c
    return {k: c for k, c in out.items() if c}


def old_ambient_module(L, mu):
    """V^mu inside the tensor product of exterior powers with one factor
    Lambda^k per unit of mu_k and no symmetry between the factors: the
    highest-weight vector closed under lowering, echelonized per weight.

    Returns the lowering words, the weights, the sparse tensor vectors and
    the position of each key in the Kronecker order of the ambient.
    """
    factors = [k for k, m in enumerate(mu, 1) for _ in range(m)]
    keys = product(*(combinations(range(L.n), k) for k in factors))
    index = {key: i for i, key in enumerate(keys)}
    vectors = [{tuple(tuple(range(k)) for k in factors): 1}]
    words, weights = [()], [tuple(mu)]
    spans = {weights[0]: Echelon()}
    spans[weights[0]].add(_column(vectors[0], index))
    lowering = [L.basis[j] for j in L.lowering_index]
    i = 0
    while i < len(vectors):
        for li, x in enumerate(lowering, 1):
            cand = _old_action(x, vectors[i])
            w = tuple(a - b for a, b in zip(weights[i], lie.simple_root(L.n, li)))
            if cand and spans.setdefault(w, Echelon()).add(_column(cand, index)):
                vectors.append(cand)
                words.append(words[i] + (li,))
                weights.append(w)
        i += 1
    return words, weights, vectors, index


def _column(vec, index):
    col = [0] * len(index)
    for key, c in vec.items():
        col[index[key]] = c
    return col


def _dense(vectors, index):
    """The sparse tensor vectors as the columns of a QMatrix."""
    cols = [_column(v, index) for v in vectors]
    return QMatrix.from_ints([list(row) for row in zip(*cols)], 1, len(vectors))


def _run_sorted(key, mu):
    """The key with each run of equal exterior powers sorted."""
    out, lo = [], 0
    for m in mu:
        out += sorted(key[lo:lo + m])
        lo += m
    return tuple(out)


def folded(vectors, mu):
    """Old-ambient tensor vectors in the symmetric ambient: each key's
    coefficient added to its run-sorted key."""
    out = []
    for vec in vectors:
        fold = {}
        for key, c in vec.items():
            k = _run_sorted(key, mu)
            fold[k] = fold.get(k, 0) + c
        out.append({k: c for k, c in fold.items() if c})
    return out


def unfolded(rep):
    """The module's tensor basis in the ambient with one unordered factor per
    unit of mu, in its Kronecker order: the coefficient of a key is that of
    its run-sorted key over the number of keys that sort to it."""
    mu, n = rep.mu, rep.L.n
    factors = [k for k, m in enumerate(mu, 1) for _ in range(m)]
    num = []
    for key in product(*(combinations(range(n), k) for k in factors)):
        folded_key = _run_sorted(key, mu)
        orbit, lo = 1, 0  # the number of keys that sort to folded_key
        for m in mu:
            counts = Counter(folded_key[lo:lo + m]).values()
            orbit *= factorial(m) // prod(map(factorial, counts))
            lo += m
        num.append([rat(vec.get(folded_key, 0), orbit) for vec in rep.vectors])
    return QMatrix(num)


def rho_over_the_old_ambient(L, mu):
    """Each rho(X_b) from one solve_columns of its images against the whole
    tensor basis of the old ambient (old_ambient_module), every tensor row
    at once."""
    _, _, vectors, index = old_ambient_module(L, mu)
    basis = _dense(vectors, index)
    return [
        solve_columns(basis, _dense([_old_action(x, v) for v in vectors], index))
        for x in L.basis
    ]
