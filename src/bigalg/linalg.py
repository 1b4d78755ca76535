"""Dense exact linear algebra over the rationals.

Matrix entries are stored as ``Fraction``s, but products run on integer
numerators over one common denominator per operand and skip zero entries.
Row reduction for rank/kernel questions goes through fraction-free
Bareiss elimination on the same integer rows; subspace bookkeeping uses a
reduced echelon structure with smallest-index pivots so every derived
basis is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .multipoly import rat, ZERO, ONE


def _int_rows(a):
    """Integer rows and one positive denominator d with a == rows / d."""
    den = lcm(*{x.denominator for row in a for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in a], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _fractions(ints, den):
    """The row ints / den as Fractions, sharing ZERO for zero entries."""
    if den == 1:
        return [Fraction(v) if v else ZERO for v in ints]
    return [Fraction(v, den) if v else ZERO for v in ints]


class QMatrix:
    """A dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, a, _trusted=False):
        if _trusted:
            self.a = a
        else:
            self.a = [[rat(x) for x in row] for row in a]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        if any(len(row) != self.cols for row in self.a):
            raise ValueError("ragged matrix")

    # ---------- constructors ----------

    @classmethod
    def zeros(cls, rows, cols):
        m = cls([[ZERO] * cols for _ in range(rows)], _trusted=True)
        m.cols = cols  # kept when rows == 0
        return m

    @classmethod
    def identity(cls, n):
        return cls(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
            _trusted=True,
        )

    @classmethod
    def from_cols(cls, cols, rows=None):
        if not cols:
            if rows is None:
                raise ValueError("cannot infer row count")
            return cls([[] for _ in range(rows)], _trusted=True)
        n = len(cols[0])
        return cls([[rat(col[i]) for col in cols] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        m = cls.zeros(n, n)
        for i, x in enumerate(entries):
            m.a[i][i] = rat(x)
        return m

    # ---------- accessors ----------

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def row(self, i):
        return list(self.a[i])

    def col(self, j):
        return [self.a[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    # ---------- arithmetic ----------

    def __add__(self, other):
        self._shape_check(other)
        return QMatrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)],
            _trusted=True,
        )

    def __sub__(self, other):
        self._shape_check(other)
        return QMatrix(
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)],
            _trusted=True,
        )

    def __neg__(self):
        return QMatrix([[-x for x in r] for r in self.a], _trusted=True)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            a, da = _int_rows(self.a)
            b, db = _int_rows(other.a)
            den = da * db
            width = other.cols
            # row k of b as its nonzero (j, value) pairs
            sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
            out = []
            for row in a:
                acc = [0] * width
                for x, brow in zip(row, sparse_b):
                    if x:
                        for j, y in brow:
                            acc[j] += x * y
                out.append(_fractions(acc, den))
            prod = QMatrix(out, _trusted=True)
            prod.cols = width
            return prod
        if isinstance(other, (list, tuple)):
            return self.mul_vec(other)
        c = rat(other)
        return QMatrix([[x * c for x in r] for r in self.a], _trusted=True)

    def __rmul__(self, other):
        c = rat(other)
        return QMatrix([[c * x for x in r] for r in self.a], _trusted=True)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        a, da = _int_rows(self.a)
        (w,), dv = _int_rows([v])
        nonzero = [(j, y) for j, y in enumerate(w) if y]
        return _fractions(
            [sum(row[j] * y for j, y in nonzero) for row in a], da * dv
        )

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = QMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def transpose(self):
        return QMatrix([list(r) for r in zip(*self.a)], _trusted=True)

    def trace(self):
        return sum((self.a[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self):
        return all(x == 0 for row in self.a for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.a == other.a
        )

    def commutator(self, other):
        return self * other - other * self

    def kron(self, other):
        a, da = _int_rows(self.a)
        b, db = _int_rows(other.a)
        den = da * db
        zero_block = [0] * other.cols
        out = []
        for r in a:
            for s in b:
                ints = []
                for x in r:
                    ints.extend([x * y for y in s] if x else zero_block)
                out.append(_fractions(ints, den))
        return QMatrix(out, _trusted=True)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return QMatrix(
            [r + s for r, s in zip(self.a, other.a)], _trusted=True
        )

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.a)

    __repr__ = __str__

    # ---------- serialization ----------

    def to_obj(self):
        return [[str(x) for x in row] for row in self.a]

    @classmethod
    def from_obj(cls, obj):
        return cls([[rat(x) for x in row] for row in obj])


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------


def bareiss_echelon(rows):
    """Fraction-free row echelon of integer rows; returns (rows, pivot_cols).

    Exact integer divisions follow the Bareiss identity; no rationals appear.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            ri = rows[i]
            rr = rows[r]
            for j in range(c + 1, ncols):
                ri[j] = (ri[j] * p - ric * rr[j]) // prev
            ri[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m):
    if m.rows == 0 or m.cols == 0:
        return 0
    # kernel and rank are invariant under scaling by the common denominator
    _, pivots = bareiss_echelon(_int_rows(m.a)[0])
    return len(pivots)


def kernel(m):
    """Basis of the right null space, as a list of rational vectors.

    Vectors are exact: m * v == 0 identically, and the count equals
    cols - rank.  Each free column contributes one deterministic vector.
    """
    ncols = m.cols
    if m.rows == 0 or ncols == 0:
        return [
            [ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols)
        ]
    rows, pivots = bareiss_echelon(_int_rows(m.a)[0])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            if c > f:
                continue
            s = sum((rat(rows[i][j]) * v[j] for j in range(c + 1, ncols) if v[j]), ZERO)
            v[c] = -s / rows[i][c]
        basis.append(v)
    return basis


def joint_kernel(mats):
    """Intersection of the kernels of several same-width matrices."""
    if not mats:
        raise ValueError("need at least one matrix")
    stacked = QMatrix([row for m in mats for row in m.a])
    return kernel(stacked)


# ---------------------------------------------------------------------------
# reduced echelon bookkeeping over Q
# ---------------------------------------------------------------------------


class Echelon:
    """A growing reduced basis of a subspace, pivoting on smallest indices."""

    def __init__(self):
        self.pivots = {}  # pivot index -> reduced row
        self._order = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, vec):
        v = list(vec)
        for p in self._order:
            if v[p]:
                c = v[p]
                row = self.pivots[p]
                for j in range(p, len(v)):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def add(self, vec):
        """Insert a vector; True iff it enlarged the span."""
        v = self.reduce(vec)
        p = None
        for i, x in enumerate(v):
            if x:
                p = i
                break
        if p is None:
            return False
        inv = ONE / v[p]
        v = [x * inv for x in v]
        for q, row in self.pivots.items():
            if row[p]:
                c = row[p]
                self.pivots[q] = [x - c * y for x, y in zip(row, v)]
        self.pivots[p] = v
        self._order = sorted(self.pivots)
        return True

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def basis(self):
        return [self.pivots[p] for p in self._order]


def same_span(vecs_a, vecs_b):
    ea = Echelon()
    for v in vecs_a:
        ea.add(v)
    eb = Echelon()
    for v in vecs_b:
        eb.add(v)
    if ea.dim != eb.dim:
        return False
    return all(ea.contains(v) for v in vecs_b)


def rref(m):
    """Reduced row echelon over Q; returns (QMatrix, pivot columns)."""
    a = [row[:] for row in m.a]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = None
        for i in range(r, nrows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return QMatrix(a, _trusted=True), pivots


def invert(m):
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    red, pivots = rref(m.hstack(QMatrix.identity(m.rows)))
    if pivots[: m.rows] != list(range(m.rows)):
        raise ValueError("singular matrix")
    return QMatrix([row[m.rows:] for row in red.a], _trusted=True)


def solve_columns(basis, target):
    """Solve basis * X = target for a full-column-rank basis, exactly.

    Raises ValueError when some target column leaves the span.
    """
    red, pivots = rref(basis.hstack(target))
    if len(pivots) > basis.cols or any(p >= basis.cols for p in pivots):
        raise ValueError("target not in span of basis")
    if len(pivots) < basis.cols:
        raise ValueError("basis columns are dependent")
    x = QMatrix.zeros(basis.cols, target.cols)
    for i, p in enumerate(pivots):
        for j in range(target.cols):
            x.a[p][j] = red.a[i][basis.cols + j]
    if basis * x != target:
        raise ValueError("inconsistent solve")
    return x


# ---------------------------------------------------------------------------
# characteristic polynomials and univariate helpers
# ---------------------------------------------------------------------------


def charpoly(m):
    """Monic characteristic polynomial, coefficients low to high.

    Faddeev-LeVerrier recursion; all divisions are by integers, hence exact.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [ZERO] * n + [ONE]  # index k holds coefficient of lambda^k
    mk = QMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                mk.a[i][i] = mk.a[i][i] + c
    return coeffs


def upoly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def upoly_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                if y:
                    out[i + j] += x * y
    return upoly_trim(out)


def upoly_scale(p, c):
    c = rat(c)
    return upoly_trim([x * c for x in p])


def upoly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(p) - len(q), -1, -1):
        c = p[i + len(q) - 1] / lead
        if c:
            quot[i] = c
            for j, y in enumerate(q):
                p[i + j] -= c * y
    return upoly_trim(quot), upoly_trim(p)


def upoly_gcd(p, q):
    """Monic gcd over Q."""
    p, q = upoly_trim(list(p)), upoly_trim(list(q))
    while q:
        _, r = upoly_divmod(p, q)
        p, q = q, r
    if p:
        p = upoly_scale(p, ONE / p[-1])
    return p


def upoly_derivative(p):
    return upoly_trim([p[i] * i for i in range(1, len(p))])


def upoly_eval(p, x):
    total = ZERO
    for c in reversed(p):
        total = total * x + c
    return total


def is_squarefree(p):
    g = upoly_gcd(p, upoly_derivative(p))
    return len(g) == 1


def squarefree_decomposition(p):
    """Monic squarefree factors with multiplicities: p ~ prod f_i^(m_i)."""
    p = upoly_trim(list(p))
    if len(p) <= 1:
        return []
    g = upoly_gcd(p, upoly_derivative(p))
    w, r = upoly_divmod(p, g)
    assert not r
    if w:
        w = upoly_scale(w, ONE / w[-1])
    out = []
    i = 1
    while len(w) > 1:
        y = upoly_gcd(w, g)
        f, rr = upoly_divmod(w, y)
        assert not rr
        if len(f) > 1:
            out.append((f, i))
        w = y
        g, rr = upoly_divmod(g, y)
        assert not rr
        i += 1
    return out


def simple_spectrum_check(m):
    """True iff the characteristic polynomial is squarefree over Q."""
    return is_squarefree(charpoly(m))


# ---------------------------------------------------------------------------
# rational roots (desk-scale spectra: trial division plus Miller-Rabin)
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 1 << 20


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin bases for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n):
    n = abs(n)
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += wheel[w]
        w = (w + 1) % 8
    if n > 1:
        if f * f > n or _is_probable_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            raise ArithmeticError("coefficient too hard to factor: %d" % n)
    return factors


def _divisors(n):
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(set(divs))


def rational_roots(p):
    """All rational roots with multiplicities, as (root, multiplicity) pairs."""
    p = upoly_trim(list(p))
    if len(p) <= 1:
        return []
    roots = []
    # strip zero roots
    z = 0
    while p and p[0] == 0:
        p = p[1:]
        z += 1
    if z:
        roots.append((ZERO, z))
    if len(p) <= 1:
        return roots
    (ip,), _ = _int_rows([p])
    g = gcd(*ip)
    if g > 1:
        ip = [c // g for c in ip]
    candidates = []
    for pn in _divisors(ip[0]):
        for qd in _divisors(ip[-1]):
            candidates.append(rat(pn, qd))
            candidates.append(rat(-pn, qd))
    seen = set()
    cur = [rat(c) for c in ip]
    for cand in sorted(set(candidates)):
        if cand in seen:
            continue
        seen.add(cand)
        mult = 0
        while len(cur) > 1 and upoly_eval(cur, cand) == 0:
            cur, r = upoly_divmod(cur, [-cand, ONE])
            assert not r
            mult += 1
        if mult:
            roots.append((cand, mult))
        if len(cur) <= 1:
            break
    roots.sort(key=lambda t: t[0])
    return roots


# ---------------------------------------------------------------------------
# joint invariant decomposition of commuting matrices
# ---------------------------------------------------------------------------


def restrict_to_block(m, basis):
    """Matrix of m on an invariant column-span, in the given basis."""
    return solve_columns(basis, m * basis)


def _eval_poly_at_matrix(p, m):
    out = QMatrix.zeros(m.rows, m.rows)
    power = QMatrix.identity(m.rows)
    for i, c in enumerate(p):
        if c:
            out = out + power * c
        if i + 1 < len(p):
            power = power * m
    return out


def joint_invariant_decomposition(mats):
    """Split the ambient space under a commuting family of matrices.

    Returns a list of (basis, labels): basis columns span a common invariant
    subspace, labels holds one entry per input matrix -- the rational
    eigenvalue on that block, or the monic squarefree characteristic factor
    (tuple of coefficients, low to high) when the eigenvalues are irrational.
    Splitting uses rational-root extraction and squarefree factors only, so
    irrational blocks stay unsplit.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].rows
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ValueError("matrices must be square of equal size")
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if not a.commutator(b).is_zero():
                raise ValueError("matrices do not commute")

    blocks = [(QMatrix.identity(n), [])]
    for m in mats:
        refined = []
        for basis, labels in blocks:
            mb = restrict_to_block(m, basis)
            chi = charpoly(mb)
            roots = rational_roots(chi)
            # deflate rational roots to find the non-rational cofactor
            remainder = list(chi)
            for r, k in roots:
                for _ in range(k):
                    remainder, rr = upoly_divmod(remainder, [-r, ONE])
                    assert not rr
            for r, k in roots:
                shifted = mb - QMatrix.identity(mb.rows) * r
                vecs = kernel(shifted.power(k))
                sub = QMatrix.from_cols(vecs, rows=mb.rows)
                refined.append((basis * sub, labels + [r]))
            # split the irrational part along its squarefree factors
            for sf, k in squarefree_decomposition(remainder):
                vecs = kernel(_eval_poly_at_matrix(sf, mb).power(k))
                sub = QMatrix.from_cols(vecs, rows=mb.rows)
                refined.append((basis * sub, labels + [tuple(sf)]))
        blocks = refined
    # deterministic order: by labels as strings, then leave as-is
    blocks.sort(key=lambda t: [str(x) for x in t[1]])
    return [(basis, tuple(labels)) for basis, labels in blocks]
