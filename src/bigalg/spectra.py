"""Principal-line specializations, principal spectra, quantum-number
identities, and CSV emission for the skeleton figures.

Floating point lives only in emit_skeleton_points; every identity check in
this module is exact.
"""

from __future__ import annotations

import csv
from fractions import Fraction

from .multipoly import MultiPoly, VarSet, rat, substitute
from .linalg import (
    QMatrix,
    charpoly,
    joint_invariant_decomposition,
    real_roots,
    upoly_at_floats,
)
from . import lie
from .bigalgebra import eigenvalue_on_block, principal_transport


# ---------------------------------------------------------------------------
# skeletons: one-parameter specializations of the section operators
# ---------------------------------------------------------------------------


def skeleton_set_c3_zero(gens):
    """The shortcut for rank at most two: keep c_2 as the line parameter and
    send c_3, when there is one, to zero."""
    ring = gens[0].mat.ring
    if ring.names not in (("c2",), ("c2", "c3")):
        raise ValueError("set_c3_zero requires the invariants c2 or c2, c3")
    tring = VarSet(["c2"], [2])
    mapping = {"c2": MultiPoly.variable(tring, "c2"), "c3": 0}
    ops = [(op.label, op.mat.subs(tring, mapping)) for op in gens]
    return {"param": "c2", "ring": tring, "ops": ops}


def invariants_along_principal_line(L):
    """c_k(e + t*f) as polynomials in the line parameter t.

    D = diag(1, t^(1/2), t, ...) conjugates t^(1/2) (e + f) to e + t*f, so
    c_k(e + t*f) = c_k(e + f) t^(k/2); for odd k, diag(1, -1, 1, ...)
    conjugates e + f to -(e + f), so c_k(e + f) = 0.
    """
    tring = VarSet(["t"])
    n = L.n
    chi = charpoly(L.e + L.f)  # low to high; c_k is the coefficient of lambda^(n-k)
    return tring, [
        MultiPoly.monomial(tring, (k // 2,), chi[n - k]) for k in range(2, n + 1)
    ]


def skeleton_pullback(gens, L):
    """Base change along the principal line t -> e + t*f."""
    tring, cvals = invariants_along_principal_line(L)
    ring = gens[0].mat.ring
    mapping = {nm: cv for nm, cv in zip(ring.names, cvals)}
    ops = [(op.label, op.mat.subs(tring, mapping)) for op in gens]
    return {"param": "t", "ring": tring, "ops": ops}


def principal_restriction(gens, L):
    """The generators restricted to one line parameter, for the figures.

    Up to sl_3, c2 is the parameter and every other c_k is set to zero;
    from sl_4 on the operators are pulled back along the principal line
    e + t*f.
    """
    if L.n <= 3:
        return skeleton_set_c3_zero(gens)
    return skeleton_pullback(gens, L)


# ---------------------------------------------------------------------------
# the principal spectrum and the weight dictionary
# ---------------------------------------------------------------------------


def principal_eigen_table(rep, gens):
    """Joint spectrum of the medium generators over the principal semisimple point.

    Medium generators act by scalars on the transported weight spaces; the
    map weight -> tuple of those scalars must be injective.
    """
    cvals, transport = principal_transport(rep)
    medium = [op for op in gens if op.i == 1]
    med_vals = [op.evaluate(cvals) for op in medium]
    table = {}
    for lam in sorted(rep.weight_table):
        block = transport * rep.weight_basis(lam)
        table[lam] = tuple(eigenvalue_on_block(val, block) for val in med_vals)

    tuples = list(table.values())
    return {
        "point": cvals,
        "medium_labels": [op.label for op in medium],
        "eigen_table": table,
        "injective": len(set(tuples)) == len(tuples),
    }


def principal_spectrum(rep, gens):
    """principal_eigen_table, with the full generator family split by joint
    invariant decomposition; irrational blocks (if any) are kept unsplit."""
    out = principal_eigen_table(rep, gens)
    blocks = joint_invariant_decomposition([op.evaluate(out["point"]) for op in gens])
    out["blocks"] = blocks
    out["unsplit_blocks"] = [
        (basis, labels)
        for basis, labels in blocks
        if any(isinstance(lab, tuple) for lab in labels)
    ]
    return out


def quantum_number_identity_ring():
    return VarSet(["I3", "Y"])


def decuplet_identities():
    ring = quantum_number_identity_ring()
    i3 = MultiPoly.variable(ring, "I3")
    y = MultiPoly.variable(ring, "Y")
    one = MultiPoly.const(ring, 1)
    first = i3 * (y - one) * ((i3 * i3).scale(4) - y.scale(3) - 4)
    second = (
        (i3**4).scale(16)
        - (i3 * i3 * y).scale(24)
        - (i3 * i3).scale(16)
        + (y * y).scale(3)
        + y.scale(6)
    )
    return [first, second]


def octet_identities():
    ring = quantum_number_identity_ring()
    i3 = MultiPoly.variable(ring, "I3")
    y = MultiPoly.variable(ring, "Y")
    first = y * (i3.scale(2) - 1) * (i3.scale(2) + 1)
    second = (i3**3).scale(4) + (i3 * y * y).scale(3) - i3.scale(4)
    third = (i3**4).scale(16) - (i3 * i3).scale(16) + (y * y).scale(3)
    return [first, second, third]


def verify_quantum_number_identities(rep, gens, identities):
    """I3 = (M1 at h)/4 and Y = (M2 at h)/4 must satisfy each identity."""
    L = rep.L
    cvals = lie.principal_point(L)
    by_label = {op.label: op for op in gens}
    i3 = by_label["M1"].evaluate(cvals) * rat(1, 4)
    y = by_label["M2"].evaluate(cvals) * rat(1, 4)
    if not i3.commutator(y).is_zero():
        raise ValueError("quantum-number operators do not commute")
    mats = {"I3": i3, "Y": y}
    zero, one = QMatrix.zeros(rep.dim, rep.dim), QMatrix.identity(rep.dim)
    report = []
    for ident in identities:
        val = substitute(ident, [mats[nm] for nm in ident.ring.names], zero, one)
        report.append({"identity": str(ident), "zero": val.is_zero()})
    return {"identities": report, "all_zero": all(r["zero"] for r in report)}


# ---------------------------------------------------------------------------
# CSV emission for the skeleton figures
# ---------------------------------------------------------------------------


def emit_skeleton_points(skeleton, grid, out_path):
    """Evaluate skeleton operators on a grid and write eigenvalue branches.

    grid = (start, stop, steps); the grid points are exact rationals, so the
    characteristic polynomials are exact and the emitted float branches can
    be validated against them.
    """
    start, stop, steps = grid
    start = Fraction(start)
    stop = Fraction(stop)
    rows = []
    residual_bound = 0.0
    for k in range(steps + 1):
        param = start + (stop - start) * Fraction(k, steps) if steps else start
        for label, mat in skeleton["ops"]:
            chi = charpoly(mat.evaluate({skeleton["param"]: param}))
            branches = [x for x, mult in real_roots(chi) for _ in range(mult)]
            # exact characteristic polynomial at the emitted floats
            values = upoly_at_floats(chi, branches)
            for b_idx, (b, val) in enumerate(zip(branches, values)):
                residual_bound = max(residual_bound, abs(val))
                rows.append((float(param), label, b_idx, b))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "generator", "branch", "value"])
        for row in rows:
            writer.writerow(["%r" % row[0], row[1], row[2], "%r" % row[3]])
    return {"rows": len(rows), "max_residual": residual_bound,
            "path": out_path}


def branch_multiset_at(skeleton, param_value, label):
    """Exact-characteristic-polynomial branches at one rational parameter."""
    by_label = dict(skeleton["ops"])
    val = by_label[label].evaluate({skeleton["param"]: rat(str(param_value))})
    return [x for x, mult in real_roots(charpoly(val)) for _ in range(mult)]
