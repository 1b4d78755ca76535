"""Matrices whose entries are exact multivariate polynomials."""

from __future__ import annotations

from .multipoly import MultiPoly, rat
from .linalg import QMatrix


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
                if p.ring != ring:
                    raise ValueError("entry in wrong ring")
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0

    # ---------- constructors ----------

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = MultiPoly.zero(ring)
        return cls(ring, [[z] * cols for _ in range(rows)], _trusted=True)

    @classmethod
    def identity(cls, ring, n, scale=1):
        m = cls.zeros(ring, n, n)
        p = MultiPoly.const(ring, scale)
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
        return cls(
            ring,
            [[MultiPoly.const(ring, x) for x in row] for row in qm.a],
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
            if self.ring != other.ring:
                raise ValueError("variable-set mismatch")
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            bt = list(zip(*other.a))
            zero = MultiPoly.zero(self.ring)
            out = []
            for row in self.a:
                out_row = []
                for col in bt:
                    acc = zero
                    for x, y in zip(row, col):
                        if x.terms and y.terms:
                            acc = acc + x * y
                    out_row.append(acc)
                out.append(out_row)
            return PolyMatrix(self.ring, out, _trusted=True)
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
        zero = MultiPoly.zero(self.ring)
        out = []
        for i in range(qm.rows):
            out_row = []
            for j in range(self.cols):
                acc = zero
                for k in range(self.rows):
                    c = qm.a[i][k]
                    if c and self.a[k][j].terms:
                        acc = acc + self.a[k][j].scale(c)
                out_row.append(acc)
            out.append(out_row)
        return PolyMatrix(self.ring, out, _trusted=True)

    def mul_qmatrix_right(self, qm):
        if self.cols != qm.rows:
            raise ValueError("shape mismatch")
        zero = MultiPoly.zero(self.ring)
        out = []
        for i in range(self.rows):
            out_row = []
            for j in range(qm.cols):
                acc = zero
                for k in range(self.cols):
                    c = qm.a[k][j]
                    if c and self.a[i][k].terms:
                        acc = acc + self.a[i][k].scale(c)
                out_row.append(acc)
            out.append(out_row)
        return PolyMatrix(self.ring, out, _trusted=True)

    def commutator(self, other):
        return self * other - other * self

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

    # ---------- calculus / evaluation ----------

    def diff(self, name):
        return PolyMatrix(
            self.ring, [[p.diff(name) for p in row] for row in self.a], _trusted=True
        )

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
