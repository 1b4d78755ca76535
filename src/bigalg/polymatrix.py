"""Matrices whose entries are exact multivariate polynomials.

Every product of matrices goes through ``sum_of_products``: operands become
sparse integer rows over one common denominator, output entries accumulate
Python ints, and each surviving term becomes one ``Fraction`` at the end.
``int_sum_of_products`` is the integer core on its own, for callers that
build the integer rows themselves (``gradient_rows`` and the Kirillov
derivation D).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .multipoly import MultiPoly, rat
from .linalg import QMatrix


def _sparse_int_rows(m, origin):
    """m as rows of nonzero (k, {key: int}) pairs and one positive denominator."""
    if isinstance(m, QMatrix):
        rows = [[(k, {origin: v}) for k, v in enumerate(row) if v] for row in m.num]
        return rows, m.den
    den = lcm(*{c.denominator for row in m.a for p in row for c in p.terms.values()})
    return [
        [
            (k, {key: c.numerator * (den // c.denominator) for key, c in p.terms.items()})
            for k, p in enumerate(row)
            if p.terms
        ]
        for row in m.a
    ], den


def sum_of_products(ring, rows, cols, terms):
    """The rows x cols PolyMatrix sum of s * A * B over terms [(s, A, B)].

    A and B are PolyMatrix or QMatrix; each PolyMatrix must be over ``ring``
    and each product must have shape rows x cols.  Each operand is converted
    once, even when it appears in several terms; zero entries are skipped on
    both sides.
    """
    converted = {}
    plan = []
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
                converted[id(m)] = _sparse_int_rows(m, ring.origin)
        plan.append((s, converted[id(a)], converted[id(b)]))
    return int_sum_of_products(ring, rows, cols, plan)


def int_sum_of_products(ring, rows, cols, plan):
    """sum_of_products on operands already converted by ``_sparse_int_rows``.

    plan is [(s, (rows_a, den_a), (rows_b, den_b))]; shapes are not checked.
    """
    origin = ring.origin
    weighted = []
    for s, (ra, da), (rb, db) in plan:
        s = rat(s)
        weighted.append((s.numerator, s.denominator * da * db, ra, rb))
    den = lcm(*(d for _, d, _, _ in weighted))
    # the integer weight of each term over the common denominator den
    weighted = [(num * (den // d), ra, rb) for num, d, ra, rb in weighted if num]

    zero = MultiPoly.zero(ring)
    out = []
    for i in range(rows):
        acc = [{} for _ in range(cols)]
        for scale, ra, rb in weighted:
            for k, x in ra[i]:
                for j, y in rb[k]:
                    entry = acc[j]
                    get = entry.get
                    for k1, c1 in x.items():
                        k0 = k1 - origin
                        c1 *= scale
                        for k2, c2 in y.items():
                            key = k0 + k2
                            entry[key] = get(key, 0) + c1 * c2
        row = []
        for entry in acc:
            fracs = {key: Fraction(v, den) for key, v in entry.items() if v}
            row.append(MultiPoly(ring, fracs, _trusted=True) if fracs else zero)
        out.append(row)
    prod = PolyMatrix(ring, out, _trusted=True)
    prod.cols = cols  # kept when rows == 0
    return prod


def gradient_rows(m):
    """Every partial derivative of m in one pass over its terms.

    Returns (grads, den): grads[i] holds d m / d(variable i) as sparse integer
    rows in the form of ``_sparse_int_rows``, or None when that derivative
    is zero; all of them share the one positive denominator den.  Each term
    c * x^e adds c * e_i to grads[i] for every variable x_i it contains.
    Only polynomial rings are supported (``VarSet.support``).
    """
    ring = m.ring
    den = lcm(*{c.denominator for row in m.a for p in row for c in p.terms.values()})
    units = ring._units
    grads = [None] * len(units)
    supports = {}  # a monomial recurs across entries; walk its key once
    partials = {}  # id of an entry polynomial -> {i: its d/dx_i}, shared
    for r, row in enumerate(m.a):
        for col, p in enumerate(row):
            entry = partials.get(id(p))
            if entry is None:
                entry = partials[id(p)] = {}
                for key, c in p.terms.items():
                    num = c.numerator * (den // c.denominator)
                    support = supports.get(key)
                    if support is None:
                        support = supports[key] = ring.support(key)
                    for i, e in support:
                        d = entry.get(i)
                        if d is None:
                            d = entry[i] = {}
                        d[key - units[i]] = num * e
            for i, d in entry.items():
                if grads[i] is None:
                    grads[i] = [[] for _ in range(m.rows)]
                grads[i][r].append((col, d))
    return grads, den


class PolyMatrix:
    """A dense matrix over a fixed polynomial ring."""

    __slots__ = ("ring", "rows", "cols", "a")

    def __init__(self, ring, a, _trusted=False):
        self.ring = ring
        if _trusted:
            self.a = a
        else:
            self.a = [
                [
                    p if isinstance(p, MultiPoly) else MultiPoly.const(ring, p)
                    for p in row
                ]
                for row in a
            ]
        for row in self.a:
            for p in row:
                if p.ring is not ring and p.ring != ring:
                    raise ValueError("entry in wrong ring")
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0

    # ---------- constructors ----------

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = MultiPoly.zero(ring)
        m = cls(ring, [[z] * cols for _ in range(rows)], _trusted=True)
        m.cols = cols  # kept when rows == 0
        return m

    @classmethod
    def identity(cls, ring, n):
        m = cls.zeros(ring, n, n)
        p = MultiPoly.const(ring, 1)
        for i in range(n):
            m.a[i][i] = p
        return m

    @classmethod
    def scalar(cls, ring, n, poly):
        m = cls.zeros(ring, n, n)
        for i in range(n):
            m.a[i][i] = poly
        return m

    @classmethod
    def from_qmatrix(cls, ring, qm):
        zero = MultiPoly.zero(ring)
        origin, den = ring.origin, qm.den
        return cls(
            ring,
            [
                [MultiPoly(ring, {origin: Fraction(x, den)}, _trusted=True) if x else zero
                 for x in row]
                for row in qm.num
            ],
            _trusted=True,
        )

    # ---------- arithmetic ----------

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __add__(self, other):
        self._check(other)
        return PolyMatrix(
            self.ring,
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)],
            _trusted=True,
        )

    def __sub__(self, other):
        self._check(other)
        return PolyMatrix(
            self.ring,
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)],
            _trusted=True,
        )

    def __neg__(self):
        return PolyMatrix(
            self.ring, [[-x for x in r] for r in self.a], _trusted=True
        )

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("variable-set mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            return sum_of_products(self.ring, self.rows, other.cols, [(1, self, other)])
        if isinstance(other, MultiPoly):
            return PolyMatrix(
                self.ring, [[x * other for x in r] for r in self.a], _trusted=True
            )
        c = rat(other)
        return PolyMatrix(
            self.ring, [[x.scale(c) for x in r] for r in self.a], _trusted=True
        )

    def __rmul__(self, other):
        if isinstance(other, MultiPoly):
            return self * other
        return self * rat(other)

    def mul_qmatrix_left(self, qm):
        """Constant-matrix times polynomial-matrix product."""
        if qm.cols != self.rows:
            raise ValueError("shape mismatch")
        return sum_of_products(self.ring, qm.rows, self.cols, [(1, qm, self)])

    def mul_qmatrix_right(self, qm):
        if self.cols != qm.rows:
            raise ValueError("shape mismatch")
        return sum_of_products(self.ring, self.rows, qm.cols, [(1, self, qm)])

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
            and self.a == other.a
        )

    def is_zero(self):
        return all(p.is_zero() for row in self.a for p in row)

    def first_nonzero(self):
        for i, row in enumerate(self.a):
            for j, p in enumerate(row):
                if not p.is_zero():
                    return i, j, p
        return None

    def trace(self):
        t = MultiPoly.zero(self.ring)
        for i in range(self.rows):
            t = t + self.a[i][i]
        return t

    # ---------- evaluation ----------

    def evaluate(self, values):
        return QMatrix([[p.evaluate(values) for p in row] for row in self.a])

    def subs(self, target_ring, mapping):
        return PolyMatrix(
            target_ring,
            [[p.subs(target_ring, mapping) for p in row] for row in self.a],
            _trusted=True,
        )

    def is_homogeneous(self):
        """Common total degree of all nonzero entries, or None."""
        degs = set()
        for row in self.a:
            for p in row:
                if p.terms:
                    d = p.is_homogeneous()
                    if d is None:
                        return None
                    degs.add(d)
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def to_obj(self):
        return {
            "variables": list(self.ring.names),
            "entries": [[p.to_obj()["terms"] for p in row] for row in self.a],
        }
