"""Structure data for sl_n: basis, forms, roots, Weyl group, principal triple.

The basis is the elementary matrices E_ij (i != j, row-major) followed by
H_k = E_kk - E_{k+1,k+1}; every coordinate vector in the package is a
dim x 1 QMatrix column in this order.  Weights are integer tuples in
fundamental-weight coordinates.
"""

from __future__ import annotations

from itertools import permutations
from math import prod

from .multipoly import MultiPoly, VarSet, rat
from .linalg import QMatrix, charpoly, kernel
from .polymatrix import PolyMatrix


class TypeA:
    """sl_n with its basis matrices, Killing form, and principal triple."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rank parameter must satisfy n >= 2")
        self.n = n
        self.dim = n * n - 1

        # the basis as sparse {(row, col): int} maps
        sparse = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
        sparse += [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
        self._sparse = sparse
        self.basis = [_from_sparse(n, x) for x in sparse]
        self._offdiag_index = {}
        idx = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    self._offdiag_index[(i, j)] = idx
                    idx += 1
        # basis index of the lowering operator E_{i+1,i} of each simple root
        self.lowering_index = [self._offdiag_index[(i + 1, i)] for i in range(n - 1)]

        # the inverse of the Killing form kappa(X, Y) = 2n tr(XY): kappa pairs
        # E_ij only with E_ji, to 2n, and H_k with H_l to 2n C_kl, so its
        # inverse is 1/(2n) at each (E_ij, E_ji) and n C^-1 / (2n^2) on the
        # H block
        inv = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), idx in self._offdiag_index.items():
            inv[idx][self._offdiag_index[(j, i)]] = n
        base = self.dim - (n - 1)
        for k, row in enumerate(_n_cartan_inv(n)):
            inv[base + k][base:] = row
        self.killing_inv = QMatrix.from_ints(inv, 2 * n * n)

        # principal triple e = sum E_{i,i+1}, f = sum i(n-i) E_{i+1,i},
        # h = diag(n-1, n-3, ..., 1-n)
        e = _from_sparse(n, {(i, i + 1): 1 for i in range(n - 1)})
        f = _from_sparse(n, {(i + 1, i): (i + 1) * (n - i - 1) for i in range(n - 1)})
        h = _from_sparse(n, {(i, i): n - 1 - 2 * i for i in range(n)})
        self.e, self.f, self.h = e, f, h
        self.e_coords = self.coords_of(e)
        self.h_coords = self.coords_of(h)

        # values computed from the structure data, kept per algebra: see cached
        self._memo = {}

    def cached(self, key, compute):
        """compute(), kept on this algebra under key."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # ---------- coordinates ----------

    def _expand(self, rows):
        """Basis coordinates of the square integer matrix with the given rows.

        Off-diagonal entries are coordinates as they stand; the diagonal's
        running sums give the H-coordinates.  The last diagonal entry is
        not read, so the caller checks the trace.
        """
        n = self.n
        coords = [0] * self.dim
        for (i, j), idx in self._offdiag_index.items():
            coords[idx] = rows[i][j]
        acc = 0
        base = self.dim - (n - 1)
        for k in range(n - 1):
            acc += rows[k][k]
            coords[base + k] = acc
        return coords

    def coords_of(self, m):
        """The coordinate column of a trace-zero n x n matrix, exactly."""
        num = m.num
        coords = self._expand(num)
        if coords[-1] + num[-1][-1]:
            raise ValueError("matrix has nonzero trace")
        return QMatrix.from_ints([[c] for c in coords], m.den)

    def coord_ints(self, coords):
        """The integer entries of a coordinate column, over coords.den.

        Raises ValueError unless coords is a dim x 1 QMatrix.
        """
        if coords.rows != self.dim or coords.cols != 1:
            raise ValueError(
                "coordinates must be a %d x 1 column, got %d x %d"
                % (self.dim, coords.rows, coords.cols)
            )
        return [c for (c,) in coords.num]

    def matrix_of(self, coords):
        """The n x n matrix sum_i coords[i] X_i; inverse to coords_of."""
        num = [[0] * self.n for _ in range(self.n)]
        for c, x in zip(self.coord_ints(coords), self._sparse):
            if c:
                for (i, j), v in x.items():
                    num[i][j] += c * v
        return QMatrix.from_ints(num, coords.den)

    def ad_matrix(self, coords):
        """Matrix of ad(x) acting on coordinate vectors; column j is [x, X_j].

        The columns are integer coordinates over the denominator of x's
        matrix, each read off the commutator with one sparse basis matrix.
        """
        x = self.matrix_of(coords)
        a, n = x.num, self.n
        cols = []
        for basis_map in self._sparse:
            m = [[0] * n for _ in range(n)]
            for (r, c), v in basis_map.items():
                # x X_j adds v * (column r of x) to column c; X_j x
                # subtracts v * (row c of x) from row r
                for row_m, row_a in zip(m, a):
                    row_m[c] += v * row_a[r]
                target = m[r]
                for j, w in enumerate(a[c]):
                    target[j] -= v * w
            cols.append(self._expand(m))
        return QMatrix.from_ints([list(row) for row in zip(*cols)], x.den)

    def centralizer(self, coords):
        """The centralizer of x inside sl_n, its coordinate columns spanning it."""
        return kernel(self.ad_matrix(coords))

    # ---------- the polynomial coordinate ring of sl_n ----------

    @property
    def x_ring(self):
        return self.cached("x_ring", lambda: VarSet(["x%d" % i for i in range(self.dim)]))

    def generic_matrix(self):
        """The tautological matrix sum_i x_i X_i over the coordinate ring."""
        ring = self.x_ring
        out = [[MultiPoly.zero(ring)] * self.n for _ in range(self.n)]
        for i, b in enumerate(self.basis):
            xi = MultiPoly.variable(ring, "x%d" % i)
            for r in range(self.n):
                for c in range(self.n):
                    if b.num[r][c]:
                        out[r][c] = out[r][c] + xi.scale(b[r, c])
        return PolyMatrix(ring, out)

    def invariant_ck(self, k):
        """c_k = coefficient of lambda^(n-k) in det(lambda*I - A), A generic."""
        if not 2 <= k <= self.n:
            raise ValueError("invariant index k must satisfy 2 <= k <= n")
        ck = self.cached(
            "ck", lambda: dict(enumerate(charpoly_coeffs_poly(self.generic_matrix())))
        )
        return ck[k]


def _from_sparse(n, entries):
    """The n x n integer QMatrix with the given {(row, col): int} entries."""
    num = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        num[i][j] = v
    return QMatrix.from_ints(num)


def charpoly_coeffs_poly(pm):
    """Faddeev-LeVerrier over a polynomial ring: c_0=1, c_1, ..., c_n with
    det(lambda*I - A) = sum_k c_k lambda^(n-k)."""
    n = pm.rows
    ring = pm.ring
    coeffs = [MultiPoly.const(ring, 1)]
    mk = PolyMatrix.identity(ring, n)
    for k in range(1, n + 1):
        mk = pm * mk
        c = mk.trace().scale(rat(-1, k))
        coeffs.append(c)
        if k < n:
            mk = mk + PolyMatrix.scalar(ring, n, c)
    return coeffs


# ---------------------------------------------------------------------------
# weights and roots: a weight of sl_n is a tuple of n - 1 integers, so each
# function reads n off its weight
# ---------------------------------------------------------------------------


def _n_cartan_inv(n):
    """The integer matrix n C^-1 for the Cartan matrix C of sl_n: its (i, j)
    entry is min(i, j) (n - max(i, j)), 1-based (Bourbaki, Lie Groups,
    ch. VI, plate I)."""
    return [[min(i, j) * (n - max(i, j)) for j in range(1, n)] for i in range(1, n)]


def positive_roots(n):
    """The positive roots alpha_i + ... + alpha_j (i <= j) of sl_n as 0/1
    tuples of simple-root coordinates."""
    r = n - 1
    return [tuple(int(i <= k <= j) for k in range(r)) for i in range(r) for j in range(i, r)]


def simple_root(n, i):
    """alpha_i (1-based) in fundamental-weight coordinates: row i of the
    Cartan matrix."""
    return tuple(2 if k == i else -int(abs(k - i) == 1) for k in range(1, n))


def is_dominant(lam):
    return all(c >= 0 for c in lam)


def weyl_factors(mu):
    """The lists <mu + rho, alpha^v> and <rho, alpha^v> over the positive
    roots; <lam, alpha^v> is the sum of lam's coordinates on alpha's support."""
    roots = positive_roots(len(mu) + 1)
    return (
        [sum(m + 1 for m, a in zip(mu, root) if a) for root in roots],
        [sum(root) for root in roots],
    )


def weyl_dim(mu):
    """dim V^mu by Weyl's product formula."""
    numer, denom = weyl_factors(mu)
    return prod(numer) // prod(denom)


def root_coords(pi):
    """Simple-root coordinates (n C^-1) pi / n; None unless all are
    nonnegative integers."""
    n = len(pi) + 1
    out = []
    for row in _n_cartan_inv(n):
        x, rest = divmod(sum(c * p for c, p in zip(row, pi)), n)
        if rest or x < 0:
            return None
        out.append(x)
    return tuple(out)


class RootData:
    """The dominance test as perfbench/selftest.py reads it:
    RootData(n).is_dominant(lam)."""

    def __init__(self, n):
        self.n = n

    is_dominant = staticmethod(is_dominant)


def weyl_group(n):
    """All Weyl elements of sl_n as (permutation, sign) pairs.

    The permutation p acts on diagonal coordinates by v -> (v[p[0]], ...).
    """
    if n > 7:
        raise ValueError("Weyl group guard: n <= 7")
    out = []
    for p in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        out.append((p, sign))
    return out


def weyl_act(perm, lam):
    """The Weyl element perm applied to lam.

    Up to a common shift, lam's diagonal coordinates are the partial sums
    v_k = lam_k + ... + lam_{n-1} (v_n = 0), and lam_k = v_k - v_{k+1}, in
    which the shift cancels.
    """
    v = [sum(lam[k:]) for k in range(len(lam) + 1)]
    w = [v[p] for p in perm]
    return tuple(a - b for a, b in zip(w, w[1:]))


def minuscule_min(mu):
    """The unique dominant weight in mu + Q that is zero or minuscule.

    omega_k lies in class k of P/Q = Z/n, so mu lies in class sum k mu_k.
    """
    if not is_dominant(mu):
        raise ValueError("weight must be dominant")
    c = sum(k * m for k, m in enumerate(mu, 1)) % (len(mu) + 1)
    return tuple(int(k == c) for k in range(1, len(mu) + 1))


# ---------------------------------------------------------------------------
# Kostant section as companion matrices
# ---------------------------------------------------------------------------


def section_coords(L, cvals):
    """Coordinates of the companion matrix at cvals = (c_2, ..., c_n).

    Its characteristic polynomial is lambda^n + c_2 lambda^(n-2) + ... + c_n.
    The pattern has 1 at E_{i+1,i}, -c_{n-i} at E_{i,n-1} and a zero
    diagonal, so every other coordinate, the H-coordinates included, is 0.
    The values may be numbers or polynomials.
    """
    n = L.n
    if len(cvals) != n - 1:
        raise ValueError("need %d invariant values" % (n - 1))
    coords = [0] * L.dim
    for i in range(n - 1):
        coords[L.lowering_index[i]] = 1
        coords[L._offdiag_index[(i, n - 1)]] = -cvals[n - 2 - i]
    return coords


def principal_point(L):
    """Invariant values at the principal semisimple element h."""
    chi = charpoly(L.h)  # low to high; chi[n] = 1
    n = L.n
    # c_k is the coefficient of lambda^(n-k)
    return [chi[n - k] for k in range(2, n + 1)]
