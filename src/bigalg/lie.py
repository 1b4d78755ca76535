"""Structure data for sl_n: basis, forms, roots, Weyl group, principal triple.

The basis is the elementary matrices E_ij (i != j, row-major) followed by
H_k = E_kk - E_{k+1,k+1}; every coordinate vector in the package refers to
this order.  Weights are integer tuples in fundamental-weight coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .multipoly import MultiPoly, VarSet, rat, ZERO, ONE
from .linalg import QMatrix, invert, kernel
from .polymatrix import PolyMatrix


class TypeA:
    """sl_n with cached structure constants, forms, and principal triple."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rank parameter must satisfy n >= 2")
        self.n = n
        self.rank = n - 1
        self.dim = n * n - 1

        names = []
        basis = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    m = QMatrix.zeros(n, n)
                    m.a[i][j] = ONE
                    basis.append(m)
                    names.append("E%d%d" % (i + 1, j + 1))
        for k in range(n - 1):
            m = QMatrix.zeros(n, n)
            m.a[k][k] = ONE
            m.a[k + 1][k + 1] = -ONE
            basis.append(m)
            names.append("H%d" % (k + 1))
        self.basis = basis
        self.basis_names = names
        self._offdiag_index = {}
        idx = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    self._offdiag_index[(i, j)] = idx
                    idx += 1

        # structure constants as coordinate vectors of [X_i, X_j]
        self.structure = [
            [
                self.coords_of(basis[i].commutator(basis[j]))
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]

        self.trace_form = QMatrix(
            [
                [(basis[i] * basis[j]).trace() for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )
        self.killing_form = QMatrix(
            [
                [
                    sum(
                        (
                            self.structure[i][k][l] * self.structure[j][l][k]
                            for k in range(self.dim)
                            for l in range(self.dim)
                        ),
                        ZERO,
                    )
                    for j in range(self.dim)
                ]
                for i in range(self.dim)
            ]
        )
        self.killing_inv = invert(self.killing_form)
        self.trace_inv = invert(self.trace_form)

        # principal triple e = sum E_{i,i+1}, f = sum i(n-i) E_{i+1,i},
        # h = diag(n-1, n-3, ..., 1-n)
        e = QMatrix.zeros(n, n)
        f = QMatrix.zeros(n, n)
        h = QMatrix.zeros(n, n)
        for i in range(n - 1):
            e.a[i][i + 1] = ONE
            f.a[i + 1][i] = rat((i + 1) * (n - i - 1))
        for i in range(n):
            h.a[i][i] = rat(n - 1 - 2 * i)
        self.e, self.f, self.h = e, f, h
        self.e_coords = self.coords_of(e)
        self.f_coords = self.coords_of(f)
        self.h_coords = self.coords_of(h)

        self._x_ring = None
        self._ck = {}

    # ---------- coordinates ----------

    def coords_of(self, m):
        """Expand a trace-zero n x n matrix over the basis, exactly."""
        n = self.n
        coords = [ZERO] * self.dim
        for i in range(n):
            for j in range(n):
                if i != j:
                    coords[self._offdiag_index[(i, j)]] = m.a[i][j]
        # diagonal: partial sums give the H-coordinates
        acc = ZERO
        base = self.dim - (n - 1)
        for k in range(n - 1):
            acc += m.a[k][k]
            coords[base + k] = acc
        if sum((m.a[i][i] for i in range(n)), ZERO) != 0:
            raise ValueError("matrix has nonzero trace")
        return coords

    def bracket_coords(self, x, y):
        """Coordinates of [x, y] from the structure constants."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.structure[i]
            for j, yj in enumerate(y):
                if yj:
                    v = row[j]
                    c = xi * yj
                    for k in range(self.dim):
                        if v[k]:
                            out[k] += c * v[k]
        return out

    def ad_matrix(self, coords):
        """Matrix of ad(x) acting on coordinate vectors."""
        cols = []
        for j in range(self.dim):
            y = [ZERO] * self.dim
            y[j] = ONE
            cols.append(self.bracket_coords(coords, y))
        return QMatrix.from_cols(cols, rows=self.dim)

    def centralizer(self, coords):
        """Basis of the centralizer of x inside sl_n, as coordinate vectors."""
        return kernel(self.ad_matrix(coords))

    # ---------- the polynomial coordinate ring of sl_n ----------

    @property
    def x_ring(self):
        if self._x_ring is None:
            self._x_ring = VarSet(["x%d" % i for i in range(self.dim)])
        return self._x_ring

    def generic_matrix(self):
        """The tautological matrix sum_i x_i X_i over the coordinate ring."""
        ring = self.x_ring
        out = PolyMatrix.zeros(ring, self.n, self.n)
        for i, b in enumerate(self.basis):
            xi = MultiPoly.variable(ring, "x%d" % i)
            for r in range(self.n):
                for c in range(self.n):
                    if b.a[r][c]:
                        out.a[r][c] = out.a[r][c] + xi.scale(b.a[r][c])
        return out

    def invariant_ck(self, k):
        """c_k = coefficient of lambda^(n-k) in det(lambda*I - A), A generic."""
        if not 2 <= k <= self.n:
            raise ValueError("invariant index k must satisfy 2 <= k <= n")
        if not self._ck:
            self._ck = dict(enumerate(charpoly_coeffs_poly(self.generic_matrix())))
        return self._ck[k]

    def coords_of_polymatrix(self, pm):
        """Coordinates of a trace-zero polynomial matrix (entries are polys)."""
        n = self.n
        ring = pm.ring
        coords = [MultiPoly.zero(ring)] * self.dim
        for i in range(n):
            for j in range(n):
                if i != j:
                    coords[self._offdiag_index[(i, j)]] = pm.a[i][j]
        acc = MultiPoly.zero(ring)
        base = self.dim - (n - 1)
        for k in range(n - 1):
            acc = acc + pm.a[k][k]
            coords[base + k] = acc
        if not pm.trace().is_zero():
            raise ValueError("polynomial matrix has nonzero trace")
        return coords


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
            for i in range(n):
                mk.a[i][i] = mk.a[i][i] + c
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
        self.degrees = list(range(2, n + 1))

    def root_weight(self, ij):
        """A positive root in fundamental-weight coordinates."""
        i, j = ij
        out = [0] * self.rank
        for k in range(i, j + 1):
            for l in range(self.rank):
                out[l] += int(self.cartan.a[l][k - 1])
        return tuple(out)

    def simple_root(self, i):
        return self.root_weight((i, i))

    def pairing_root(self, lam, ij):
        """(lam, alpha) with the basic normalization; always an integer."""
        i, j = ij
        return sum(lam[k - 1] for k in range(i, j + 1))

    def ip(self, lam, mu):
        """Basic inner product of two weights (rational)."""
        total = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                if lam[i] and mu[j]:
                    c = self.cartan_inv.a[i][j]
                    total += lam[i] * mu[j] * Fraction(int(c.numerator), int(c.denominator))
        return total

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
                c = self.cartan_inv.a[i][j]
                v[i] += lam[j] * Fraction(int(c.numerator), int(c.denominator))
        return v

    def root_coords(self, lam):
        """Simple-root coordinates; None unless all are nonnegative integers."""
        out = []
        for x in self.root_coords_rational(lam):
            if x.denominator != 1 or x < 0:
                return None
            out.append(int(x))
        return tuple(out)

    def h_pairing(self, lam):
        """lam(h) for the principal semisimple h; equals 2(lam, rho)."""
        two_rho = self.ip(lam, self.rho) * 2
        assert two_rho.denominator == 1
        return int(two_rho)

    def dominant_weights_leq(self, mu):
        """Dominant weights lam with mu - lam a nonnegative root combination.

        These are exactly the dominant weights of V^mu.  Enumeration walks the
        finite box of root coordinates (dominant weights have nonnegative
        root coordinates, bounded by those of mu).
        """
        if not self.is_dominant(mu):
            raise ValueError("weight must be dominant")
        bounds = [int(x) for x in self.root_coords_rational(mu)]
        out = []

        def rec(i, acc):
            if i == self.rank:
                lam = tuple(mu[k] - acc[k] for k in range(self.rank))
                if self.is_dominant(lam):
                    out.append(lam)
                return
            alpha = self.simple_root(i + 1)
            for m in range(bounds[i] + 1):
                rec(i + 1, [a + m * b for a, b in zip(acc, alpha)])

        rec(0, [0] * self.rank)
        out.sort(reverse=True)
        return out


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


def c_ring(n):
    return VarSet(["c%d" % k for k in range(2, n + 1)])


def companion_symbolic(n):
    """Companion matrix with char poly lambda^n + c_2 lambda^(n-2) + ... + c_n."""
    ring = c_ring(n)
    m = PolyMatrix.zeros(ring, n, n)
    one = MultiPoly.const(ring, 1)
    for i in range(n - 1):
        m.a[i + 1][i] = one
    for i in range(n - 1):
        # row i of the last column carries -c_{n-i}
        m.a[i][n - 1] = -MultiPoly.variable(ring, "c%d" % (n - i))
    return ring, m


def companion_point(n, cvals):
    """Companion matrix at rational invariant values (c_2, ..., c_n)."""
    if len(cvals) != n - 1:
        raise ValueError("need %d invariant values" % (n - 1))
    m = QMatrix.zeros(n, n)
    for i in range(n - 1):
        m.a[i + 1][i] = ONE
    for i in range(n - 1):
        m.a[i][n - 1] = -rat(cvals[n - 2 - i])
    return m


def section_coords(L):
    """Coordinates of the symbolic companion matrix over Q[c_2..c_n]."""
    ring, m = companion_symbolic(L.n)
    return ring, L.coords_of_polymatrix(m)


def principal_point(L):
    """Invariant values at the principal semisimple element h."""
    from .linalg import charpoly

    chi = charpoly(L.h)  # low to high; chi[n] = 1
    n = L.n
    # c_k is the coefficient of lambda^(n-k)
    return [chi[n - k] for k in range(2, n + 1)]
