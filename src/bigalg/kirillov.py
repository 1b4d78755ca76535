"""Operator-valued polynomials on sl_n and the iterated derivation D.

Everything here is an End(V)-valued polynomial in the Lie-algebra
coordinates x_0..x_{N-1}, stored as a ``PolyMatrix`` over ``L.x_ring``.
The derivation D sends F to
(1/2) sum_i rho(X^i) dF/dx_i with {X^i} the Killing-dual basis; iterating
it on the invariant coefficients c_k produces the commuting families
studied downstream.
"""

from __future__ import annotations

from math import lcm

from .multipoly import rat
from .polymatrix import PolyMatrix, _sparse_int_rows, gradient_rows, int_sum_of_products

_HALF = rat(1, 2)


def _dual_rho_rows(rep):
    """rho(X^i) as sparse integer rows over one denominator each.

    rho(X^i) = sum_j killing_inv[i][j] rho(X_j) for the Killing-dual basis,
    in the operand form of ``int_sum_of_products``; built once per module
    from the integer rows of killing_inv and of rho, and kept in its memo.
    """

    def compute():
        kinv = rep.L.killing_inv
        sparse = [_sparse_int_rows(m) for m in rep.rho]
        duals = []
        for coeffs in kinv.num:
            terms = [(c, sparse[j]) for j, c in enumerate(coeffs) if c]
            den = lcm(*(d for _, (_, d) in terms))
            acc = [{} for _ in range(rep.dim)]
            for c, (rows, d) in terms:
                w = c * (den // d)
                for out, row in zip(acc, rows):
                    for k, x in row:
                        out[k] = out.get(k, 0) + w * x[0]
            rows = [
                [(k, {0: v}) for k, v in sorted(out.items()) if v] for out in acc
            ]
            duals.append((rows, kinv.den * den))
        return duals

    return rep.cached("dual_rho_rows", compute)


def wei_D(rep, mat):
    """D(F) = (1/2) sum_i rho(X^i) dF/dx_i; lowers the degree by one.

    F is a rep.dim x rep.dim PolyMatrix over rep.L.x_ring.  All partials
    come from one ``gradient_rows`` pass and go, with the integer rows of
    rho(X^i), straight into the integer product core.
    """
    ring = rep.L.x_ring
    if mat.ring != ring:
        raise ValueError("variable-set mismatch")
    if mat.rows != rep.dim or mat.cols != rep.dim:
        raise ValueError("shape mismatch")
    duals = _dual_rho_rows(rep)
    grads, den = gradient_rows(mat)
    plan = [(_HALF, duals[i], (g, den)) for i, g in enumerate(grads) if g is not None]
    return int_sum_of_products(ring, rep.dim, rep.dim, plan)


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
