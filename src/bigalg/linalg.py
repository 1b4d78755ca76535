"""Dense exact linear algebra over the rationals.

A ``QMatrix`` stores integer rows ``num`` over one positive denominator
``den``, normalized so that gcd(den, every entry) == 1 (the zero matrix has
den 1); equal matrices have equal storage.  Rationals become integers only
where a matrix is built from them, in the constructor.
Arithmetic, ``hstack`` and every elimination read and write the integer
rows, and ``Fraction``s are built only when a caller reads entries
(``m[i, j]``, ``to_obj``, ``str`` and the read-only ``a``).

Products skip zero entries.  Every elimination is one fraction-free
reduced echelon form: ``Echelon`` keeps primitive integer rows, positive at
their smallest-index pivots and zero at the other pivots, and ``rank``,
``kernel``, ``joint_kernel`` and ``column_solver`` read their answers off
the rows an ``Echelon`` holds after taking in the integer rows of the
matrix.  ``column_solver`` is the one solve: ``solve_columns`` (and
``restrict_to_block`` through it) is one call of it, and a caller with many
targets against one basis keeps the solver it returns.  ``charpoly`` runs
Faddeev-LeVerrier on the integer matrix.  ``closure`` grows an ``Echelon``
into the span of seeds under a set of generators.

A vector is a rows x 1 QMatrix, and ``columns`` reads a matrix as such
columns.  A subspace is one QMatrix whose columns span it: ``kernel``
returns the null space that way, and span questions compare ranks
(``same_span``).

Roots are exact too: gcds, squarefree factors and Sturm sequences of
primitive integer polynomials come from one pseudo-remainder, and every
real root is isolated by Sturm counts at dyadic points, then bisected on
the sign of its squarefree factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm

from .multipoly import rat, ZERO, ONE


def _int_rows(a):
    """Integer rows and one positive denominator d with a == rows / d.

    Taking d as the lcm of the denominators leaves gcd(d, rows) == 1.
    """
    den = lcm(*{x.denominator for row in a for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in a], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _fractions(ints, den):
    """The row ints / den as Fractions, sharing ZERO for zero entries."""
    if den == 1:
        return [Fraction(v) if v else ZERO for v in ints]
    return [Fraction(v, den) if v else ZERO for v in ints]


def _width(rows):
    """The common length of the rows; ValueError when they differ."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged matrix")
    return cols


def _reduced(num, den, cols):
    """The QMatrix num / den, for integer rows and den > 0, normalized."""
    if den != 1:
        g = den
        for row in num:
            g = gcd(g, *row)
            if g == 1:
                break
        else:
            num = [[x // g for x in row] for row in num]
            den //= g
    return QMatrix._of(num, den, cols)


class QMatrix:
    """A dense matrix of exact rationals: integer rows num over den > 0."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, a):
        # Fractions integerize as they are; only other entries need rat
        a = [[x if type(x) is Fraction else rat(x) for x in row] for row in a]
        cols = _width(a)
        self.num, self.den = _int_rows(a)
        self.rows = len(a)
        self.cols = cols

    @classmethod
    def _of(cls, num, den, cols):
        """The matrix num / den; the caller guarantees it is normalized."""
        m = object.__new__(cls)
        m.num = num
        m.den = den
        m.rows = len(num)
        m.cols = cols  # kept when num has no rows
        return m

    # ---------- constructors ----------

    @classmethod
    def from_ints(cls, num, den=1, cols=0):
        """The matrix num / den of integer rows and a positive integer den.

        cols is the width when num has no rows.  The rows are not copied.
        """
        if num:
            cols = _width(num)
        if den <= 0:
            raise ValueError("denominator must be positive")
        return _reduced(num, den, cols)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n):
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    # ---------- accessors ----------

    @property
    def a(self):
        """The entries as fresh rows of Fractions; writing to them changes nothing."""
        den = self.den
        return [_fractions(row, den) for row in self.num]

    def __getitem__(self, ij):
        i, j = ij
        v = self.num[i][j]
        return Fraction(v, self.den) if v else ZERO

    def columns(self):
        """The columns, each a rows x 1 QMatrix."""
        return [
            _reduced([[row[j]] for row in self.num], self.den, 1)
            for j in range(self.cols)
        ]

    # ---------- arithmetic ----------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._shape_check(other)
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = sign * (den // other.den)
        num = [
            [x * fa + y * fb for x, y in zip(r, s)]
            for r, s in zip(self.num, other.num)
        ]
        return _reduced(num, den, self.cols)

    def __neg__(self):
        return QMatrix._of([[-x for x in r] for r in self.num], self.den, self.cols)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            width = other.cols
            # each nonzero row k of other as k and its nonzero (j, value)
            # pairs, so a sparse column costs its nonzero entries
            sparse_b = [
                (k, pairs) for k, pairs in enumerate(map(_pairs, other.num)) if pairs
            ]
            out = []
            for row in self.num:
                acc = [0] * width
                for k, brow in sparse_b:
                    x = row[k]
                    if x:
                        for j, y in brow:
                            acc[j] += x * y
                out.append(acc)
            return _reduced(out, self.den * other.den, width)
        return self._scaled(rat(other))

    def __rmul__(self, other):
        return self._scaled(rat(other))

    def _scaled(self, c):
        p = c.numerator
        num = [[x * p for x in r] for r in self.num]
        return _reduced(num, self.den * c.denominator, self.cols)

    def power(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if not k:
            return QMatrix.identity(self.rows)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base  # the lowest set bit of k, so no product with the identity
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
            k >>= 1
        return out

    def transpose(self):
        if not self.rows:
            return QMatrix._of([[] for _ in range(self.cols)], 1, 0)
        return QMatrix._of([list(r) for r in zip(*self.num)], self.den, self.rows)

    def trace(self):
        t = sum(self.num[i][i] for i in range(self.rows))
        return Fraction(t, self.den) if t else ZERO

    def is_zero(self):
        return not any(map(any, self.num))

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def commutator(self, other):
        return self * other - other * self

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        # over the lcm of the denominators; gcd(lcm, entries) stays 1
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = [
            [x * fa for x in r] + [y * fb for y in s]
            for r, s in zip(self.num, other.num)
        ]
        return QMatrix._of(num, den, self.cols + other.cols)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.a)

    __repr__ = __str__

    # ---------- serialization ----------

    def to_obj(self):
        return [[str(x) for x in row] for row in self.a]


# ---------------------------------------------------------------------------
# fraction-free reduced echelon form
# ---------------------------------------------------------------------------


def _pairs(row):
    """The nonzero (j, value) pairs of a row."""
    return [(j, x) for j, x in enumerate(row) if x]


def _primitive(row, p):
    """An integer row over its content, with a nonnegative entry at p."""
    g = gcd(*row)
    if row[p] < 0:
        g = -g
    return row if g in (0, 1) else [x // g for x in row]


def _eliminate(row, c, prow, ppairs):
    """An integer combination of row and prow that is zero at column c.

    prow[c] must be nonzero and ppairs must be the nonzero pairs of prow;
    the result is (d * row - row[c] * prow) / gcd(d, row[c]), d = prow[c].
    """
    d, f = prow[c], row[c]
    g = gcd(d, f)
    d //= g
    f //= g
    out = [x * d for x in row] if d != 1 else list(row)
    for j, y in ppairs:
        out[j] -= f * y
    return out


class Echelon:
    """A growing basis of a subspace in fraction-free reduced echelon form.

    ``add`` takes a list of integers, or a QMatrix taken row-major as its
    integer rows, without its denominator.  Each pivot row is a primitive
    integer row, positive at its pivot (the smallest index where it is
    nonzero) and zero at every other pivot.
    """

    def __init__(self):
        self._rows = {}  # pivot index -> (row, nonzero pairs of row)

    @property
    def dim(self):
        return len(self._rows)

    def _reduce(self, v):
        """An integer multiple of v minus its projection on the span.

        v is an integer list, which this may change.  The result is zero at
        every pivot, and zero everywhere iff v lies in the span.
        """
        rows = self._rows
        hits = [p for p in rows if v[p]]
        if not hits:
            return v
        scale = lcm(*(rows[p][0][p] for p in hits))
        if scale != 1:
            v = [x * scale for x in v]
        # rows are zero at each other's pivots, so v[p] stays scale times its input
        for p in hits:
            row, pairs = rows[p]
            c = v[p] // row[p]
            for j, y in pairs:
                v[j] -= c * y
        return v

    def _insert(self, v):
        """Insert a reduced integer list; True iff it is nonzero."""
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        v = _primitive(v, p)
        pairs = _pairs(v)
        rows = self._rows
        for q in [q for q, (row, _) in rows.items() if row[p]]:
            row = _primitive(_eliminate(rows[q][0], p, v, pairs), q)
            rows[q] = (row, _pairs(row))
        rows[p] = (v, pairs)
        return True

    def add(self, vec):
        """Insert a vector; True iff it enlarged the span."""
        ints = chain.from_iterable(vec.num) if isinstance(vec, QMatrix) else vec
        return self._insert(self._reduce(list(ints)))


def _reduced_echelon(rows):
    """The reduced echelon form of integer rows, as (rows, pivot columns).

    Row i is primitive, positive at pivots[i], zero before it and at every
    other pivot: dividing it by its pivot entry gives row i of the reduced
    row echelon form, which is unique.
    """
    ech = Echelon()
    for row in rows:
        ech._insert(ech._reduce(list(row)))
    pivots = sorted(ech._rows)
    return [ech._rows[p][0] for p in pivots], pivots


def rank(m):
    # rank is invariant under scaling by the common denominator and under
    # transposition, so the shorter side is eliminated
    return len(_reduced_echelon(m.num if m.rows <= m.cols else zip(*m.num))[1])


def kernel(m):
    """Basis of the right null space, as the columns of a QMatrix.

    m * kernel(m) is zero and it has cols - rank columns.  Free column f
    contributes the column that is 1 at f, 0 at the other free columns and
    -row[f] / row[p] at each pivot p, over the lcm of the pivot entries.
    """
    rows, pivots = _reduced_echelon(m.num)
    pivot_set = set(pivots)
    free = [f for f in range(m.cols) if f not in pivot_set]
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    num = [[den if i == f else 0 for f in free] for i in range(m.cols)]
    for row, p in zip(rows, pivots):
        s = -(den // row[p])
        num[p] = [s * row[f] for f in free]
    # normalized already: a prime dividing den divides some row[p] as often,
    # and that primitive row has an entry it does not divide at a free column
    return QMatrix._of(num, den, len(free))


def joint_kernel(mats):
    """Intersection of the kernels of several same-width matrices."""
    if not mats:
        raise ValueError("need at least one matrix")
    # each block's kernel ignores its scale, so its integer rows serve
    stacked = [row for m in mats for row in m.num]
    return kernel(QMatrix.from_ints(stacked, cols=mats[0].cols))


def flat_columns(mats):
    """The QMatrix whose column j holds the entries of mats[j], row-major."""
    den = lcm(*(m.den for m in mats))
    cols = [[x * (den // m.den) for row in m.num for x in row] for m in mats]
    return _reduced([list(row) for row in zip(*cols)], den, len(mats))


def independent_columns(m):
    """The columns of m that are independent of the columns before them."""
    ech = Echelon()
    keep = [j for j, col in enumerate(zip(*m.num)) if ech._insert(ech._reduce(list(col)))]
    return _reduced([[row[j] for j in keep] for row in m.num], m.den, len(keep))


def closure(seeds, gens, act):
    """The span of the seeds under repeated act(element, generator).

    Returns (echelon, elements).  The elements are the seeds that enlarged
    the span, then the products that did, found breadth first: frontier by
    frontier, generators in the given order.  They are independent and span
    the closure.
    """
    ech = Echelon()
    elements = []
    frontier = seeds
    while True:
        grown = [x for x in frontier if ech.add(x)]
        if not grown:
            return ech, elements
        elements += grown
        # lazy, so only the products that enlarge the span stay alive
        frontier = (act(x, g) for x in grown for g in gens)


def same_span(a, b):
    """Whether the columns of a and of b span the same subspace."""
    r = rank(a)
    return r == rank(b) == rank(a.hstack(b))


def column_solver(basis):
    """The map target -> X with basis * X == target, for a basis of
    independent columns; one elimination serves every target.

    The reduced echelon form of the integer rows of basis^T, each followed
    by the unit row that records it, is read off at its pivots: row r is
    u_r * basis^T followed by u_r, with the entry d_r at the r-th pivot and
    zero at the others.  So basis is invertible at the pivot rows, with the
    inverse whose column r is basis.den * u_r / d_r, and X is that inverse
    times target at those rows.  basis * X then equals target at the pivot
    rows, and at the other rows iff target lies in the span; the map raises
    ValueError when it does not, and column_solver when the columns are
    dependent.
    """
    n, k = basis.rows, basis.cols
    unit = [0] * k
    rows, pivots = _reduced_echelon(
        [*col, *unit[:i], 1, *unit[i + 1:]] for i, col in enumerate(basis.transpose().num)
    )
    if pivots and pivots[-1] >= n:
        raise ValueError("basis columns are dependent")
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    scales = [basis.den * (den // row[p]) for row, p in zip(rows, pivots)]
    inverse = _reduced(
        [[s * row[n + i] for row, s in zip(rows, scales)] for i in range(k)], den, k
    )
    rest = sorted(set(range(n)) - set(pivots))
    below = _reduced([basis.num[i] for i in rest], basis.den, k)

    def solve(target):
        num, den, cols = target.num, target.den, target.cols
        # the product normalizes what it returns, so the pivot rows of target
        # enter it as they are
        x = inverse * QMatrix._of([num[p] for p in pivots], den, cols)
        # exact at the pivot rows by construction; without other rows
        # there is nothing left to check
        if rest and below * x != _reduced([num[i] for i in rest], den, cols):
            raise ValueError("target not in span of basis")
        return x

    return solve


def solve_columns(basis, target):
    """Solve basis * X = target for a full-column-rank basis, exactly: one
    ``column_solver`` of the basis, applied once.

    Raises ValueError when the basis columns are dependent or some target
    column leaves their span.
    """
    return column_solver(basis)(target)


# ---------------------------------------------------------------------------
# characteristic polynomials and univariate helpers
# ---------------------------------------------------------------------------


def charpoly(m):
    """Monic characteristic polynomial, coefficients low to high.

    Faddeev-LeVerrier recursion on the integer matrix a = d * m, whose
    coefficients e_k are integers; coefficient n - k of m's is e_k / d^k.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    a, d = m.num, m.den
    sparse_a = [_pairs(row) for row in a]
    coeffs = [ZERO] * n + [ONE]  # index k holds coefficient of lambda^k
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    for k in range(1, n + 1):
        prod = []
        for arow in sparse_a:
            acc = [0] * n
            for t, x in arow:
                acc = [u + x * y for u, y in zip(acc, mk[t])]
            prod.append(acc)
        e, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert not rem, "Faddeev-LeVerrier division is not exact"
        scale *= d
        coeffs[n - k] = Fraction(e, scale) if e else ZERO
        for i in range(n):
            prod[i][i] += e
        mk = prod
    return coeffs


def upoly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


# ---------------------------------------------------------------------------
# exact roots, on integer polynomials (coefficients low to high)
# ---------------------------------------------------------------------------


def _int_poly(p):
    """The primitive integer polynomial proportional to p; [] for zero."""
    ints = _int_rows([upoly_trim(list(p))])[0][0]
    return _primitive(ints, -1) if ints else []


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _prem(f, g):
    """A positive multiple of the remainder of f on division by g, over its
    content, so each coefficient keeps the remainder's sign."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    for top in range(len(r) - 1, dg - 1, -1):
        c = r.pop()
        if c:
            # s * c == t * lg with s > 0 clears the top coefficient
            h = gcd(lg, c)
            s, t = abs(lg) // h, (c if lg > 0 else -c) // h
            if s != 1:
                r = [x * s for x in r]
            for j, y in enumerate(g[:-1], top - dg):
                r[j] -= t * y
    upoly_trim(r)
    h = gcd(*r)
    return [x // h for x in r] if h > 1 else r


def _gcd(f, g):
    """The primitive gcd, by the primitive remainder sequence."""
    while g:
        f, g = g, _prem(f, g)
    return _primitive(f, -1) if f else []


def _exact_quotient(f, g):
    """f / g for an integer polynomial g that divides f in Z[x]."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * (len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r.pop(), lg)
        assert not rem, "inexact polynomial division"
        q[k] = c
        for j, y in enumerate(g[:-1], k):
            r[j] -= c * y
    assert not any(r), "inexact polynomial division"
    return q


def _squarefree_factors(f):
    """Yun's decomposition of f, of positive degree: [(factor, multiplicity)]
    with f == prod factor^multiplicity, each factor squarefree."""
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _exact_quotient(f, a), _exact_quotient(df, a)
    out = []
    i = 1
    while len(b) > 1:
        d = upoly_trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        i += 1
    return out


def _homogenized(f, u, v):
    """v^deg f(u / v) for an integer polynomial f of degree deg and integers u, v."""
    h, w = 0, 1
    for c in reversed(f):
        h = h * u + c * w
        w *= v
    return h


def _sign(f, u, v):
    """The sign of f(u / v) for integers u and v > 0."""
    h = _homogenized(f, u, v)
    return (h > 0) - (h < 0)


def _variations(seq, u, v):
    """Sign changes along the Sturm sequence at u / v, zeros skipped."""
    signs = [s for s in (_sign(f, u, v) for f in seq) if s]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _isolate(f):
    """(a, b, k) per real root of a squarefree f, increasing: the root is
    the only one in (a / 2^k, b / 2^k].  By Sturm's theorem the number of
    roots in (x, y] is the drop in sign changes from x to y."""
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        seq.append([-x for x in _prem(seq[-2], seq[-1])])
    # the Cauchy bound: every root lies in (-bound, bound)
    bound = 1 << (max(map(abs, f[:-1])) // f[-1] + 1).bit_length()
    out = []
    stack = [(-bound, bound, 0, _variations(seq, -bound, 1), _variations(seq, bound, 1))]
    while stack:
        a, b, k, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b, k))
        elif va > vb:
            m, k = a + b, k + 1
            vm = _variations(seq, m, 1 << k)
            stack += [(m, 2 * b, k, vm, vb), (2 * a, m, k, va, vm)]
    return out


def _roots(p, wide):
    """(g, multiplicity, a, b, k) per real root of p: g is its squarefree
    factor, and (a / 2^k, b / 2^k] holds it, bisected on the sign of g while
    wide(g, a, b, k); a == b on an exact hit."""
    f = _int_poly(p)
    for g, mult in _squarefree_factors(f) if len(f) > 1 else []:
        for a, b, k in _isolate(g):
            sb = _sign(g, b, 1 << k)
            while sb and wide(g, a, b, k):
                a, m, b, k = 2 * a, a + b, 2 * b, k + 1
                sm = _sign(g, m, 1 << k)
                # the root is simple: it lies in (m, b) iff g(m) has the other sign
                if sm == -sb:
                    a = m
                else:
                    b, sb = m, sm
            if not sb:
                a = b
            yield g, mult, a, b, k


def real_roots(p):
    """The real roots of p with multiplicities, as (root, multiplicity)
    pairs in increasing order, each root the nearest double: int / int
    rounds correctly, so bisection stops when both ends round alike."""
    def wide(g, a, b, k):
        return a / (1 << k) != b / (1 << k)

    return sorted((b / (1 << k), mult) for _, mult, _, b, k in _roots(p, wide))


def upoly_at_floats(p, xs):
    """p(x) for each float x, exact and then rounded to the nearest double:
    p's denominators are cleared once, and each x = u / v is evaluated on
    integers (int / int rounds correctly)."""
    (f,), d = _int_rows([p])
    deg = len(f) - 1
    out = []
    for x in xs:
        u, v = x.as_integer_ratio()
        out.append(_homogenized(f, u, v) / (d * v**deg))
    return out


def rational_roots(p):
    """All rational roots with multiplicities, as (root, multiplicity) pairs."""
    # a root u/v of g has v | lead, and two such differ by >= 1/lead^2:
    # within 1/(4 lead^2) of the midpoint only the root itself fits
    def wide(g, a, b, k):
        return (b - a) * 2 * g[-1] ** 2 >= 1 << k

    roots = []
    for g, mult, a, b, k in _roots(p, wide):
        lo, hi = Fraction(a, 1 << k), Fraction(b, 1 << k)
        x = ((lo + hi) / 2).limit_denominator(g[-1])
        # x in (lo, hi], or the exact hit lo == hi
        if (x == hi or lo < x < hi) and not _sign(g, x.numerator, x.denominator):
            roots.append((x, mult))
    return sorted(roots)


def is_squarefree(p):
    f = _int_poly(p)
    return bool(f) and len(_gcd(f, _derivative(f))) == 1


def squarefree_decomposition(p):
    """Monic squarefree factors with multiplicities: p ~ prod f_i^(m_i)."""
    f = _int_poly(p)
    factors = _squarefree_factors(f) if len(f) > 1 else []
    return [([Fraction(c, g[-1]) for c in g], mult) for g, mult in factors]


# ---------------------------------------------------------------------------
# joint invariant decomposition of commuting matrices
# ---------------------------------------------------------------------------


def restrict_to_block(m, basis):
    """Matrix of m on an invariant column-span, in the given basis."""
    return solve_columns(basis, m * basis)


def _divide_out_root(p, r):
    """p / (x - r) for a root r of p, by synthetic division."""
    out = [p[-1]]
    for c in reversed(p[1:-1]):
        out.append(out[-1] * r + c)
    return out[::-1]


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
            for sf, k in squarefree_decomposition(charpoly(mb)):
                # each rational root of sf is an eigenvalue of multiplicity k
                for r, _ in rational_roots(sf):
                    sf = _divide_out_root(sf, r)
                    shifted = mb - QMatrix.identity(mb.rows) * r
                    refined.append((basis * kernel(shifted.power(k)), labels + [r]))
                # the irrational cofactor stays one block
                if len(sf) > 1:
                    sub = kernel(_eval_poly_at_matrix(sf, mb).power(k))
                    refined.append((basis * sub, labels + [tuple(sf)]))
        blocks = refined
    # deterministic order: by labels as strings, then leave as-is
    blocks.sort(key=lambda t: [str(x) for x in t[1]])
    return [(basis, tuple(labels)) for basis, labels in blocks]
