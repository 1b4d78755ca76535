"""Limits of subspace families along a one-parameter scaling.

Columns have entries in Q[w, w^-1]; the limit of their span as w -> 0 is
computed by valuation echelon: normalize each column to valuation zero,
look at the valuation-zero coefficient vectors, and while those are
dependent replace one column by the kernel combination (which strictly
raises its valuation).  Termination is guaranteed by the bounded exponent
window of the inputs.
"""

from __future__ import annotations

from .multipoly import MultiPoly
from .linalg import QMatrix, kernel, rank


def _column_valuation(col):
    vals = [p.var_range("w") for p in col]
    lows = [v[0] for v in vals if v is not None]
    if not lows:
        return None
    return min(lows)


def _leading_vector(col, ring):
    i = ring.index["w"]
    out = []
    for p in col:
        c = 0
        for k, v in p.terms.items():
            if ring.exponent(k, i) == 0:
                c = v
                break
        out.append(c)
    return out


def limit_of_span(columns):
    """Limit as w -> 0 of the span of polynomial columns; returns a QMatrix.

    columns: list of columns, each a list of MultiPoly over a ring that
    contains the variable w.  The columns must be linearly independent
    at generic w; the result has exactly as many columns as the input.
    """
    if not columns:
        raise ValueError("no columns given")
    ring = columns[0][0].ring
    if "w" not in ring.index:
        raise ValueError("ring has no variable 'w'")

    cols = [list(c) for c in columns]
    height = len(cols[0])
    k = len(cols)

    spread = 0
    for col in cols:
        for p in col:
            vr = p.var_range("w")
            if vr is not None:
                spread = max(spread, vr[1] - vr[0])
    max_steps = k * (spread + 2) + 8

    for _ in range(max_steps):
        # (a) normalize every column to valuation zero
        for idx, col in enumerate(cols):
            v = _column_valuation(col)
            if v is None:
                raise ValueError("columns generically dependent (zero column)")
            if v:
                cols[idx] = [p.shift_var("w", -v) for p in col]
        # (b) leading coefficient vectors
        lead = QMatrix.from_cols(
            [_leading_vector(col, ring) for col in cols], rows=height
        )
        if rank(lead) == k:
            return lead
        # (c) replace the last column involved in a kernel relation
        combo = kernel(lead)[0]
        pivot = max(i for i, c in enumerate(combo) if c)
        new_col = [MultiPoly.zero(ring) for _ in range(height)]
        for j, c in enumerate(combo):
            if c:
                new_col = [p + q.scale(c) for p, q in zip(new_col, cols[j])]
        cols[pivot] = new_col
    raise ValueError("columns generically dependent (no convergence)")
