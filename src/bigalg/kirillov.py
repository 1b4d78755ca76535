"""Operator-valued polynomials on sl_n: small, medium, and iterated-D operators.

Everything here is an End(V)-valued polynomial in the Lie-algebra
coordinates x_0..x_{N-1}.  The derivation D sends F to
(1/2) sum_i rho(X^i) dF/dx_i with {X^i} the Killing-dual basis; iterating
it on the invariant coefficients c_k produces the commuting families
studied downstream.
"""

from __future__ import annotations

from math import lcm

from .multipoly import MultiPoly, rat
from .linalg import QMatrix
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

    def evaluate(self, coords):
        values = {
            "x%d" % i: coords[i] for i in range(self.rep.L.dim)
        }
        return self.mat.evaluate(values)

    def scale(self, c):
        return KirillovElement(self.rep, self.mat * rat(c), self.degree)

    def __add__(self, other):
        _same_rep(self, other)
        return KirillovElement(self.rep, self.mat + other.mat)

    def __sub__(self, other):
        _same_rep(self, other)
        return KirillovElement(self.rep, self.mat - other.mat)

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


def small_operator(rep):
    """A |-> rho(A): the tautological degree-one element."""
    L = rep.L
    ring = L.x_ring
    mat = PolyMatrix.zeros(ring, rep.dim, rep.dim)
    for i in range(L.dim):
        xi = MultiPoly.variable(ring, "x%d" % i)
        mat = mat + PolyMatrix.from_qmatrix(ring, rep.rho[i]) * xi
    return KirillovElement(rep, mat, 1)


def invariant_ck(L, k):
    """The degree-k invariant: coefficient of lambda^(n-k) in det(lambda*I - A)."""
    return L.invariant_ck(k)


def scalar_element(rep, poly):
    ring = rep.L.x_ring
    return KirillovElement(
        rep, PolyMatrix.scalar(ring, rep.dim, poly), poly.is_homogeneous()
    )


def medium_operator(rep, k):
    """rho of the traceless trace-form gradient of c_k; degree k - 1.

    The gradient G of c_k along sl_n satisfies tr(G X_j) = dc_k/dx_j for the
    whole basis, which already encodes the projection away from the trace.
    """
    L = rep.L
    if not 2 <= k <= L.n:
        raise ValueError("invariant index k must satisfy 2 <= k <= n")
    ck = L.invariant_ck(k)
    partials = [ck.diff("x%d" % j) for j in range(L.dim)]
    # g = T^{-1} * partials with T the trace-form Gram matrix
    mat = PolyMatrix.zeros(L.x_ring, rep.dim, rep.dim)
    for i in range(L.dim):
        gi = MultiPoly.zero(L.x_ring)
        for c, partial in zip(L.trace_inv.row(i), partials):
            if c and partial.terms:
                gi = gi + partial.scale(c)
        if gi.terms:
            mat = mat + PolyMatrix.from_qmatrix(L.x_ring, rep.rho[i]) * gi
    return KirillovElement(rep, mat, k - 1)


def _dual_rho(rep):
    """rho(X^i) for the Killing-dual basis, cached on the representation."""
    if not hasattr(rep, "_dual_rho"):
        L = rep.L
        duals = []
        for i in range(L.dim):
            m = QMatrix.zeros(rep.dim, rep.dim)
            for j, c in enumerate(L.killing_inv.row(i)):
                if c:
                    m = m + rep.rho[j] * c
            duals.append(m)
        rep._dual_rho = duals
    return rep._dual_rho


def _dual_rho_rows(rep):
    """rho(X^i) as sparse integer rows over one denominator each.

    The same matrices as ``_dual_rho``, in the operand form of
    ``int_sum_of_products``; built once from the integer rows of rho and
    cached on the representation.
    """
    cached = getattr(rep, "_dual_rho_rows", None)
    if cached is None:
        L = rep.L
        origin = L.x_ring.origin
        sparse = [_sparse_int_rows(m, origin) for m in rep.rho]
        cached = []
        for coeffs in map(L.killing_inv.row, range(L.dim)):
            terms = [(c, sparse[j]) for j, c in enumerate(coeffs) if c]
            den = lcm(*(c.denominator * d for c, (_, d) in terms))
            acc = [{} for _ in range(rep.dim)]
            for c, (rows, d) in terms:
                w = c.numerator * (den // (c.denominator * d))
                for out, row in zip(acc, rows):
                    for k, x in row:
                        out[k] = out.get(k, 0) + w * x[origin]
            rows = [
                [(k, {origin: v}) for k, v in sorted(out.items()) if v] for out in acc
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


def big_operator(rep, i, k):
    """D^i applied to c_k * Id; homogeneous of degree k - i."""
    if not 0 < i < k <= rep.L.n:
        raise ValueError("indices must satisfy 0 < i < k <= n")
    return derivation_chain(rep, k, i)[-1]


def equivariance_check(elem):
    """Infinitesimal equivariance: dF along [X, x] equals [rho(X), F(x)].

    Checked as an exact polynomial-matrix identity for every basis element.
    """
    rep = elem.rep
    L = rep.L
    ring = L.x_ring
    partials = [elem.mat.diff("x%d" % j) for j in range(L.dim)]
    for a in range(L.dim):
        lhs = PolyMatrix.zeros(ring, rep.dim, rep.dim)
        for j in range(L.dim):
            if partials[j].is_zero():
                continue
            # j-th coordinate of [X_a, x] as a linear form in x
            form = MultiPoly.zero(ring)
            for i in range(L.dim):
                c = L.structure[a][i][j]
                if c:
                    form = form + MultiPoly.variable(ring, "x%d" % i).scale(c)
            if form.terms:
                lhs = lhs + partials[j] * form
        rho_a = PolyMatrix.from_qmatrix(ring, rep.rho[a])
        if lhs != rho_a.commutator(elem.mat):
            return False
    return True


def commutator(a, b):
    _same_rep(a, b)
    deg = None
    if a.degree is not None and b.degree is not None:
        deg = a.degree + b.degree
    return KirillovElement(a.rep, a.mat.commutator(b.mat), deg)


def homogeneity_check(elem, fresh_scale=7):
    """F(t*x) = t^deg F(x) verified at a generic rational scale factor."""
    if elem.degree is None:
        return False
    ring = elem.rep.L.x_ring
    t = rat(fresh_scale)
    mapping = {
        nm: MultiPoly.variable(ring, nm).scale(t) for nm in ring.names
    }
    scaled = elem.mat.subs(ring, mapping)
    return scaled == elem.mat * (t ** elem.degree)
