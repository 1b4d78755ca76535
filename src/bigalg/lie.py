"""Structure data for sl_n: basis, forms, roots, Weyl group, principal triple.

The basis is the elementary matrices E_ij (i != j, row-major) followed by
H_k = E_kk - E_{k+1,k+1}; every coordinate vector in the package is a
dim x 1 QMatrix column in this order.  Weights are integer tuples in
fundamental-weight coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .multipoly import MultiPoly, VarSet, rat
from .linalg import QMatrix, charpoly, invert, kernel
from .polymatrix import PolyMatrix


class TypeA:
    """sl_n with its basis matrices, Killing form, and principal triple."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rank parameter must satisfy n >= 2")
        self.n = n
        self.rank = n - 1
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

        # Killing form kappa(X, Y) = 2n tr(XY), read off the sparse basis maps
        self.killing_form = QMatrix.from_ints(
            [
                [
                    2 * n * sum(u * y.get((c, r), 0) for (r, c), u in x.items())
                    for y in sparse
                ]
                for x in sparse
            ]
        )
        self.killing_inv = invert(self.killing_form)

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
# weights and roots
# ---------------------------------------------------------------------------


class RootData:
    """Root-lattice combinatorics for sl_n in fundamental-weight coordinates."""

    def __init__(self, n):
        self.n = n
        self.rank = n - 1
        r = self.rank
        self.cartan = QMatrix(
            [
                [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
                for i in range(r)
            ]
        )
        self.cartan_inv = invert(self.cartan)
        # positive roots alpha_i + ... + alpha_j as index pairs (1-based)
        self.positive = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
        self.rho = (1,) * r

    def root_weight(self, ij):
        """A positive root in fundamental-weight coordinates."""
        i, j = ij
        out = [0] * self.rank
        for k in range(i, j + 1):
            for l in range(self.rank):
                out[l] += int(self.cartan[l, k - 1])
        return tuple(out)

    def simple_root(self, i):
        return self.root_weight((i, i))

    def pairing_root(self, lam, ij):
        """(lam, alpha) with the basic normalization; always an integer."""
        i, j = ij
        return sum(lam[k - 1] for k in range(i, j + 1))

    def is_dominant(self, lam):
        return all(c >= 0 for c in lam)

    def weyl_dim(self, mu):
        num = 1
        den = 1
        for ij in self.positive:
            num *= self.pairing_root(tuple(m + 1 for m in mu), ij)
            den *= self.pairing_root(self.rho, ij)
        assert num % den == 0
        return num // den

    def to_eps(self, lam):
        """Coordinates in the diagonal basis: v_k - v_{k+1} = lam_k, sum v = 0."""
        partial = [Fraction(0)]
        for c in reversed(lam):
            partial.append(partial[-1] + c)
        v = list(reversed(partial))  # v_k - v_{k+1} = lam_k, v_n = 0
        shift = sum(v) / self.n
        return [x - shift for x in v]

    def from_eps(self, v):
        out = []
        for k in range(self.n - 1):
            d = v[k] - v[k + 1]
            assert d.denominator == 1
            out.append(int(d))
        return tuple(out)

    def weight_lattice_class(self, lam):
        """Class of the weight in P/Q = Z/n."""
        return sum((k + 1) * c for k, c in enumerate(lam)) % self.n

    def root_coords_rational(self, lam):
        """Simple-root coordinates as Fractions."""
        v = [Fraction(0)] * self.rank
        for i in range(self.rank):
            for j in range(self.rank):
                v[i] += lam[j] * self.cartan_inv[i, j]
        return v

    def root_coords(self, lam):
        """Simple-root coordinates; None unless all are nonnegative integers."""
        out = []
        for x in self.root_coords_rational(lam):
            if x.denominator != 1 or x < 0:
                return None
            out.append(int(x))
        return tuple(out)


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


def weyl_act(rd, perm, lam):
    v = rd.to_eps(lam)
    return rd.from_eps([v[perm[i]] for i in range(rd.n)])


def minuscule_min(rd, mu):
    """The unique dominant weight in mu + Q that is zero or minuscule."""
    if not rd.is_dominant(mu):
        raise ValueError("weight must be dominant")
    c = rd.weight_lattice_class(mu)
    if c == 0:
        return (0,) * rd.rank
    out = [0] * rd.rank
    out[c - 1] = 1
    return tuple(out)


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
