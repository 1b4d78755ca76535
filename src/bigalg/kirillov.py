"""Operator-valued polynomials on sl_n and the iterated derivation D.

Everything here is an End(V)-valued polynomial in the Lie-algebra
coordinates x_0..x_{N-1}.  The derivation D sends F to
(1/2) sum_i rho(X^i) dF/dx_i with {X^i} the Killing-dual basis; iterating
it on the invariant coefficients c_k produces the commuting families
studied downstream.
"""

from __future__ import annotations

from math import lcm

from .multipoly import rat
from .polymatrix import PolyMatrix, _sparse_int_rows, gradient_rows, int_sum_of_products

_HALF = rat(1, 2)


class KirillovElement:
    """An equivariant-by-construction matrix of polynomials on sl_n."""

    __slots__ = ("rep", "mat", "degree")

    def __init__(self, rep, mat, degree=None):
        self.rep = rep
        self.mat = mat
        if degree is None:
            degree = mat.is_homogeneous()
        self.degree = degree

    def scale(self, c):
        return KirillovElement(self.rep, self.mat * c, self.degree)

    def __mul__(self, other):
        _same_rep(self, other)
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
        return KirillovElement(self.rep, self.mat * other.mat, deg)

    def is_zero(self):
        return self.mat.is_zero()


def _same_rep(a, b):
    if a.rep is not b.rep:
        raise ValueError("operands live on different representations")


def scalar_element(rep, poly):
    ring = rep.L.x_ring
    return KirillovElement(
        rep, PolyMatrix.scalar(ring, rep.dim, poly), poly.is_homogeneous()
    )


def _dual_rho_rows(rep):
    """rho(X^i) as sparse integer rows over one denominator each.

    rho(X^i) = sum_j killing_inv[i][j] rho(X_j) for the Killing-dual basis,
    in the operand form of ``int_sum_of_products``; built once from the
    integer rows of rho and cached on the representation.
    """
    cached = getattr(rep, "_dual_rho_rows", None)
    if cached is None:
        L = rep.L
        sparse = [_sparse_int_rows(m) for m in rep.rho]
        cached = []
        for coeffs in map(L.killing_inv.row, range(L.dim)):
            terms = [(c, sparse[j]) for j, c in enumerate(coeffs) if c]
            den = lcm(*(c.denominator * d for c, (_, d) in terms))
            acc = [{} for _ in range(rep.dim)]
            for c, (rows, d) in terms:
                w = c.numerator * (den // (c.denominator * d))
                for out, row in zip(acc, rows):
                    for k, x in row:
                        out[k] = out.get(k, 0) + w * x[0]
            rows = [
                [(k, {0: v}) for k, v in sorted(out.items()) if v] for out in acc
            ]
            cached.append((rows, den))
        rep._dual_rho_rows = cached
    return cached


def wei_D(elem):
    """D(F) = (1/2) sum_i rho(X^i) dF/dx_i; drops homogeneity degree by one.

    All partials come from one ``gradient_rows`` pass and go, with the
    integer rows of rho(X^i), straight into the integer product core.
    """
    rep = elem.rep
    duals = _dual_rho_rows(rep)
    grads, den = gradient_rows(elem.mat)
    plan = [(_HALF, duals[i], (g, den)) for i, g in enumerate(grads) if g is not None]
    total = int_sum_of_products(rep.L.x_ring, rep.dim, rep.dim, plan)
    deg = None if elem.degree is None else max(elem.degree - 1, 0)
    if total.is_zero():
        return KirillovElement(rep, total, None)
    return KirillovElement(rep, total, deg)


def derivation_chain(rep, k, steps):
    """[D^1(c_k Id), ..., D^steps(c_k Id)]; D^i is homogeneous of degree k - i.

    Each power is one application of D to the one before it.
    """
    elem = scalar_element(rep, rep.L.invariant_ck(k))
    chain = []
    for i in range(1, steps + 1):
        elem = KirillovElement(rep, wei_D(elem).mat, k - i)
        chain.append(elem)
    return chain


def commutator(a, b):
    _same_rep(a, b)
    deg = None
    if a.degree is not None and b.degree is not None:
        deg = a.degree + b.degree
    return KirillovElement(a.rep, a.mat.commutator(b.mat), deg)
