"""Matrices whose entries are exact multivariate polynomials.

A ``PolyMatrix`` stores sparse integer rows ``num`` over one positive
denominator ``den``: row i lists (col, {packed key: int}) for each nonzero
entry, in ascending col order, with no zero coefficient, and
gcd(den, every coefficient) == 1 (the zero matrix has den 1); equal
matrices have equal storage.  Every operation reads and writes these
integers, and no other module does.  ``MultiPoly`` entries with ``Fraction``
coefficients are built only when a caller reads entries (``m[i, j]``,
``first_nonzero``, ``trace`` and the read-only ``a``).

Every product of matrices goes through ``sum_of_products``: output entries
accumulate Python ints over the product of the operands' denominators.
``derivation_sum`` gives sum_a M_a * df/dx_a in one pass over f's terms,
reading the constant M_a through a ``SparseColumns`` view of their nonzero
columns that a caller builds once and keeps; ``coefficient_columns`` gives
the coefficients of several matrices as columns.
``subs`` puts a monomial in place of each variable, finding the image of
each distinct monomial once; ``evaluate`` is ``subs`` into the constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm
from operator import or_

from .multipoly import MultiPoly, VarSet, rat
from .linalg import QMatrix


def _rational(x):
    """x itself when it is an int or a Fraction (both have numerator and
    denominator), else x as the coefficient type."""
    return x if isinstance(x, (int, Fraction)) else rat(x)


_CONSTANTS = VarSet(())  # the ring of the values at a point


def _add_terms(acc, terms, f):
    """acc += f * terms in place, dropping a key whose coefficient cancels."""
    get = acc.get
    for k, v in terms.items():
        s = get(k, 0) + f * v
        if s:
            acc[k] = s
        else:
            del acc[k]


def _content(num, g):
    """gcd of g and every coefficient of the rows num; stops early at 1."""
    for row in num:
        for _, terms in row:
            g = gcd(g, *terms.values())
            if g == 1:
                return 1
    return g


def _reduced(ring, num, den, cols):
    """The PolyMatrix num / den, for valid rows and den > 0, normalized."""
    if den != 1:
        g = _content(num, den)
        if g != 1:
            num = [[(j, {k: v // g for k, v in terms.items()}) for j, terms in row] for row in num]
            den //= g
    return PolyMatrix._of(ring, num, den, cols)


def _sparse_int_rows(m):
    """m as rows of nonzero (k, {key: int}) pairs and one positive denominator."""
    if isinstance(m, QMatrix):
        rows = [[(k, {0: v}) for k, v in enumerate(row) if v] for row in m.num]
        return rows, m.den
    return m.num, m.den


def sum_of_products(ring, rows, cols, terms):
    """The rows x cols PolyMatrix sum of s * A * B over terms [(s, A, B)].

    A and B are PolyMatrix or QMatrix; each PolyMatrix must be over ``ring``
    and each product must have shape rows x cols.  Each operand is converted
    once, even when it appears in several terms; zero entries are skipped on
    both sides.  Each output entry's keys are checked against the packing
    range once, not each term pair's.
    """
    converted = {}
    weighted = []
    for s, a, b in terms:
        for m in (a, b):
            if isinstance(m, PolyMatrix) and m.ring is not ring and m.ring != ring:
                raise ValueError("variable-set mismatch")
        if a.cols != b.rows:
            raise ValueError("shape mismatch in product")
        if a.rows != rows or b.cols != cols:
            raise ValueError("shape mismatch")
        for m in (a, b):
            if id(m) not in converted:
                converted[id(m)] = _sparse_int_rows(m)
        s = _rational(s)
        (ra, da), (rb, db) = converted[id(a)], converted[id(b)]
        weighted.append((s.numerator, s.denominator * da * db, ra, rb))
    den = lcm(*(d for _, d, _, _ in weighted))
    # the integer weight of each term over the common denominator den
    weighted = [(num * (den // d), ra, rb) for num, d, ra, rb in weighted if num]

    out = []
    seen = 0  # the bitwise or of every output key
    for i in range(rows):
        acc = [{} for _ in range(cols)]
        for scale, ra, rb in weighted:
            for k, x in ra[i]:
                for j, y in rb[k]:
                    entry = acc[j]
                    get = entry.get
                    for k1, c1 in x.items():
                        c1 *= scale
                        for k2, c2 in y.items():
                            key = k1 + k2
                            entry[key] = get(key, 0) + c1 * c2
        row = []
        for j, entry in enumerate(acc):
            if entry:
                if 0 in entry.values():
                    entry = {key: v for key, v in entry.items() if v}
                    if not entry:
                        continue
                seen = reduce(or_, entry, seen)
                row.append((j, entry))
        out.append(row)
    ring.check_key(seen)
    return _reduced(ring, out, den, cols)


class SparseColumns:
    """Constant matrices mats[a], one per variable a of ring, read by column.

    ``columns[k][a]`` is a tuple of the nonzero (i, v) of column k of mats[a],
    each v an int over the common denominator ``den``; the matrices share one
    shape rows x cols.  Everything is a tuple, so a view kept beside its
    module is never changed by a reader.  With no variables there are no
    matrices, rows and cols are None, and the view fits every shape.
    """

    __slots__ = ("ring", "rows", "cols", "den", "columns")

    def __init__(self, ring, mats):
        if len(mats) != len(ring):
            raise ValueError("need %d matrices, one per variable" % len(ring))
        rows = cols = None
        if mats:
            rows, cols = mats[0].rows, mats[0].cols
            if any(m.rows != rows or m.cols != cols for m in mats):
                raise ValueError("shape mismatch")
        den = lcm(*(m.den for m in mats))
        ks = range(cols or 0)
        columns = [[[] for _ in mats] for _ in ks]
        for a, m in enumerate(mats):
            f = den // m.den
            # most rows of a rho(X^a) are zero, and any() skips them at C speed
            for i, r in enumerate(m.num):
                if any(r):
                    for k in compress(ks, r):
                        columns[k][a].append((i, r[k] * f))
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.den = den
        self.columns = tuple(tuple(map(tuple, col)) for col in columns)


def derivation_sum(view, f, scale):
    """The PolyMatrix scale * sum_a mats[a] * df/d(variable a), in one pass.

    view is the ``SparseColumns`` of the mats over f.ring, with f.rows
    columns.  Each term c * x^e of entry (k, j) of f is read once: for every
    variable a of x^e whose column k is nonzero, it adds v * c * e_a at key
    e - u_a to entry (i, j) for each nonzero (i, v) of that column.  The
    support of each distinct key is read once per call.  No partial
    derivative is formed, and the result is normalized once.
    """
    ring = f.ring
    if view.ring is not ring and view.ring != ring:
        raise ValueError("variable-set mismatch")
    if view.rows is None:  # no variables: f is constant
        return PolyMatrix.zeros(ring, f.rows, f.cols)
    if view.cols != f.rows:
        raise ValueError("shape mismatch")
    s = _rational(scale)
    w = s.numerator
    units = ring._units
    support_of = ring.support
    triples = {}  # key -> [(a, e_a, key - u_a)]; a monomial recurs across entries
    acc = [{} for _ in range(view.rows)]  # output row i: {j: {key: int}}
    for column, row in zip(view.columns, f.num):
        for j, terms in row:
            for key, c in terms.items():
                lowered = triples.get(key)
                if lowered is None:
                    lowered = triples[key] = [(a, e, key - units[a]) for a, e in support_of(key)]
                c *= w
                for a, e, low in lowered:
                    pairs = column[a]
                    if pairs:
                        ce = c * e
                        for i, v in pairs:
                            out = acc[i].get(j)
                            if out is None:
                                acc[i][j] = {low: v * ce}
                            else:
                                out[low] = out.get(low, 0) + v * ce
    num = []
    for entries in acc:
        row = []
        for j in sorted(entries):
            out = entries[j]
            if 0 in out.values():
                out = {key: v for key, v in out.items() if v}
            if out:
                row.append((j, out))
        num.append(row)
    return _reduced(ring, num, f.den * view.den * s.denominator, f.cols)


def coefficient_columns(mats):
    """The QMatrix whose column j holds the coefficients of mats[j].

    There is one row per (row, col, monomial) that some matrix has, in the
    order first seen going through the matrices, then their rows, entries
    and terms; each column is over the common denominator of the matrices.
    """
    index = {}
    for m in mats:
        for i, row in enumerate(m.num):
            for j, terms in row:
                for key in terms:
                    index.setdefault((i, j, key), len(index))
    den = lcm(*(m.den for m in mats))
    out = [[0] * len(mats) for _ in index]
    for col, m in enumerate(mats):
        f = den // m.den
        for i, row in enumerate(m.num):
            for j, terms in row:
                for key, c in terms.items():
                    out[index[i, j, key]][col] = c * f
    return QMatrix.from_ints(out, den, len(mats))


class PolyMatrix:
    """A matrix over a fixed polynomial ring: sparse integer rows num over den > 0."""

    __slots__ = ("ring", "rows", "cols", "num", "den")

    def __init__(self, ring, a):
        """The matrix of the given rows of MultiPoly or rational entries."""
        entries = []
        for row in a:
            out = []
            for p in row:
                if not isinstance(p, MultiPoly):
                    p = MultiPoly.const(ring, p)
                elif p.ring is not ring and p.ring != ring:
                    raise ValueError("entry in wrong ring")
                out.append(p)
            entries.append(out)
        # the lcm of the denominators leaves gcd(den, coefficients) == 1
        den = lcm(*{c.denominator for row in entries for p in row for c in p.terms.values()})
        self.ring = ring
        self.num = [
            [
                (j, {k: c.numerator * (den // c.denominator) for k, c in p.terms.items()})
                for j, p in enumerate(row)
                if p.terms
            ]
            for row in entries
        ]
        self.den = den
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    @classmethod
    def _of(cls, ring, num, den, cols):
        """The matrix num / den; the caller guarantees it is normalized."""
        m = object.__new__(cls)
        m.ring = ring
        m.num = num
        m.den = den
        m.rows = len(num)
        m.cols = cols  # kept when num has no rows
        return m

    # ---------- constructors ----------

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls._of(ring, [[] for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring, n, MultiPoly.const(ring, 1))

    @classmethod
    def scalar(cls, ring, n, poly):
        den = lcm(*{c.denominator for c in poly.terms.values()})
        terms = {k: c.numerator * (den // c.denominator) for k, c in poly.terms.items()}
        if not terms or not n:
            return cls.zeros(ring, n, n)
        # the diagonal entries share one dict: stored terms are never mutated
        return cls._of(ring, [[(i, terms)] for i in range(n)], den, n)

    @classmethod
    def from_qmatrix(cls, ring, qm):
        rows, den = _sparse_int_rows(qm)
        return cls._of(ring, rows, den, qm.cols)

    # ---------- entries ----------

    def _entry(self, terms):
        den = self.den
        return MultiPoly(self.ring, {k: Fraction(v, den) for k, v in terms.items()}, _trusted=True)

    @property
    def a(self):
        """The entries as fresh rows of MultiPoly; writing to them changes nothing."""
        out = []
        for row in self.num:
            entries = [MultiPoly.zero(self.ring) for _ in range(self.cols)]
            for j, terms in row:
                entries[j] = self._entry(terms)
            out.append(entries)
        return out

    def __getitem__(self, ij):
        i, j = ij
        for col, terms in self.num[i]:
            if col == j:
                return self._entry(terms)
        return MultiPoly.zero(self.ring)

    def first_nonzero(self):
        for i, row in enumerate(self.num):
            if row:
                j, terms = row[0]
                return i, j, self._entry(terms)
        return None

    def trace(self):
        acc = {}
        for i, row in enumerate(self.num):
            for j, terms in row:
                if j == i:
                    _add_terms(acc, terms, 1)
        return self._entry(acc)

    # ---------- arithmetic ----------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = sign * (den // other.den)
        out = []
        for r, s in zip(self.num, other.num):
            merged = {j: {k: v * fa for k, v in terms.items()} for j, terms in r}
            for j, terms in s:
                entry = merged.get(j)
                if entry is None:
                    merged[j] = {k: v * fb for k, v in terms.items()}
                else:
                    _add_terms(entry, terms, fb)
            out.append([(j, merged[j]) for j in sorted(merged) if merged[j]])
        return _reduced(self.ring, out, den, self.cols)

    def __neg__(self):
        num = [[(j, {k: -v for k, v in terms.items()}) for j, terms in row] for row in self.num]
        return PolyMatrix._of(self.ring, num, self.den, self.cols)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("variable-set mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, (PolyMatrix, QMatrix)):
            return sum_of_products(self.ring, self.rows, other.cols, [(1, self, other)])
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("variable-set mismatch")
            scalar = PolyMatrix.scalar(self.ring, self.cols, other)
            return sum_of_products(self.ring, self.rows, self.cols, [(1, self, scalar)])
        return self._scaled(_rational(other))

    def __rmul__(self, other):
        return self * other

    def _scaled(self, c):
        """self * c for a rational c; normalizing reads the coefficients only
        when c has a denominator."""
        p, q = c.numerator, c.denominator
        if not p:
            return PolyMatrix.zeros(self.ring, self.rows, self.cols)
        # c * v / den over (den / a) * q with a = gcd(p, den); the only factor
        # left in common is g = gcd(q, every v), as den was normalized
        a = gcd(p, self.den)
        p //= a
        g = _content(self.num, q) if q != 1 else 1
        num = [
            [(j, {k: v // g * p for k, v in terms.items()}) for j, terms in row]
            for row in self.num
        ]
        return PolyMatrix._of(self.ring, num, self.den // a * q // g, self.cols)

    def transpose(self):
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.num):
            for j, terms in row:
                out[j].append((i, terms))
        return PolyMatrix._of(self.ring, out, self.den, self.rows)

    def commutator(self, other):
        return sum_of_products(
            self.ring, self.rows, other.cols, [(1, self, other), (-1, other, self)]
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def is_zero(self):
        return not any(self.num)

    # ---------- substitution ----------

    def subs(self, target_ring, mapping):
        """Substitute each variable by a monomial of target_ring.

        mapping[name] is a rational (zero included) or a MultiPoly over
        target_ring with at most one term; an image of two or more terms
        raises ValueError.  Terms add up in the order the entry's terms
        come, a key dropping out where its coefficient cancels.
        """
        num, den = self._substituted(target_ring, mapping)
        return _reduced(target_ring, num, den, self.cols)

    def evaluate(self, values):
        """The QMatrix of values at a rational point given as {name: value}:
        the substitution of ``subs`` into the constant ring.  values must
        name each variable once and nothing else; ValueError names a
        missing or an extra one."""
        if values.keys() != self.ring.index.keys():
            missing = [nm for nm in self.ring.names if nm not in values]
            extra = sorted(str(nm) for nm in values if nm not in self.ring.index)
            raise ValueError(
                "evaluate needs a value for each of %s: missing [%s], extra [%s]"
                % (", ".join(self.ring.names), ", ".join(missing), ", ".join(extra))
            )
        num, den = self._substituted(_CONSTANTS, values)
        ints = [[0] * self.cols for _ in num]
        for out, row in zip(ints, num):
            for j, terms in row:
                out[j] = terms[0]
        return QMatrix.from_ints(ints, den, self.cols)

    def _substituted(self, target_ring, mapping):
        """The rows and denominator of ``subs``, not yet normalized.

        Each distinct monomial of self goes to one key and one integer over
        scale = prod q_i^top_i, with q_i the denominator of variable i's
        coefficient and top_i its highest exponent.  The key is packed from
        the image's exponents, so one past the packing range raises
        OverflowError.
        """
        images = []  # (support of key, p, q) for the image p/q * x^key of each variable
        for nm in self.ring.names:
            img = mapping[nm]
            key = 0
            if isinstance(img, MultiPoly):
                if img.ring is not target_ring and img.ring != target_ring:
                    raise ValueError("substitution image in wrong ring")
                if len(img.terms) > 1:
                    raise ValueError("substitution image %s of %s is not a monomial" % (img, nm))
                key, img = next(iter(img.terms.items()), (0, 0))
            img = _rational(img)
            images.append((target_ring.support(key), img.numerator, img.denominator))
        support_of = self.ring.support
        pack = target_ring.pack
        width = len(target_ring)
        # scale is 1 when the images are integral; each monomial's image is
        # then found as its terms come, without a pass for the tops
        scale = 1
        if any(q != 1 for _, _, q in images):
            keys = set()
            for row in self.num:
                for _, terms in row:
                    keys.update(terms)
            tops = [0] * len(images)
            for key in keys:
                for i, e in support_of(key):
                    tops[i] = max(tops[i], e)
            for (_, _, q), top in zip(images, tops):
                scale *= q**top
        image = {}
        out = []
        for row in self.num:
            out_row = []
            for j, terms in row:
                acc = {}
                get = acc.get
                for key, c in terms.items():
                    img = image.get(key)
                    if img is None:
                        exps, v = [0] * width, scale
                        for i, e in support_of(key):
                            support, p, q = images[i]
                            v = v // q**e * p**e
                            if not v:  # a zero image: no key to pack
                                break
                            for t, f in support:
                                exps[t] += e * f
                        img = image[key] = (pack(exps) if v else 0), v
                    k, v = img
                    if v:
                        s = get(k, 0) + c * v
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
                if acc:
                    out_row.append((j, acc))
            out.append(out_row)
        return out, self.den * scale
