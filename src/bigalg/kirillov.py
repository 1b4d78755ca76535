"""Operator-valued polynomials on sl_n and the iterated derivation D.

Everything here is an End(V)-valued polynomial in the Lie-algebra
coordinates x_0..x_{N-1}, stored as a ``PolyMatrix`` over ``L.x_ring``.
The derivation D sends F to
(1/2) sum_i rho(X^i) dF/dx_i with {X^i} the Killing-dual basis; iterating
it on the invariant coefficients c_k produces the commuting families
studied downstream.
"""

from __future__ import annotations

from .multipoly import rat
from .polymatrix import PolyMatrix, derivation_sum

_HALF = rat(1, 2)


def _dual_rho(rep):
    """rho(X^i) as QMatrix, once per module; the coordinates of X^i are
    column i of the symmetric killing_inv."""
    return rep.cached("dual_rho", lambda: [rep.op(c) for c in rep.L.killing_inv.columns()])


def wei_D(rep, mat):
    """D(F) = (1/2) sum_i rho(X^i) dF/dx_i; lowers the degree by one.

    F is a rep.dim x rep.dim PolyMatrix over rep.L.x_ring; D is one
    ``derivation_sum`` pass over its terms.
    """
    if mat.ring != rep.L.x_ring:
        raise ValueError("variable-set mismatch")
    if mat.rows != rep.dim or mat.cols != rep.dim:
        raise ValueError("shape mismatch")
    return derivation_sum(_dual_rho(rep), mat, _HALF)


def derivation_chain(rep, k, steps):
    """[D^1(c_k Id), ..., D^steps(c_k Id)]; D^i is homogeneous of degree k - i.

    Each power is one application of D to the one before it.
    """
    mat = PolyMatrix.scalar(rep.L.x_ring, rep.dim, rep.L.invariant_ck(k))
    chain = []
    for _ in range(steps):
        mat = wei_D(rep, mat)
        chain.append(mat)
    return chain
