"""Limits of subspace families along a one-parameter scaling.

Columns have entries in Q[w, w^-1], each given as a dict {exponent of w:
nonzero rational}; the limit of their span as w -> 0 is computed by
valuation echelon: normalize each column to valuation zero, look at the
valuation-zero coefficient vectors, and while those are dependent replace
one column by the kernel combination (which strictly raises its valuation).
The number of rounds is bounded by the exponent spread of the inputs.
"""

from __future__ import annotations

from .linalg import QMatrix, kernel, rank


def limit_of_span(columns):
    """Limit as w -> 0 of the span of columns over Q[w, w^-1]; returns a QMatrix.

    columns: list of columns, each a list of entries {exponent of w:
    rational}.  The columns must be linearly independent at generic w; the
    result has exactly as many columns as the input.
    """
    if not columns:
        raise ValueError("no columns given")

    cols = [[{e: c for e, c in p.items() if c} for p in col] for col in columns]
    height = len(cols[0])
    k = len(cols)

    spread = max((max(p) - min(p) for col in cols for p in col if p), default=0)
    max_steps = k * (spread + 2) + 8

    for _ in range(max_steps):
        # (a) normalize every column to valuation zero
        for idx, col in enumerate(cols):
            lows = [min(p) for p in col if p]
            if not lows:
                raise ValueError("columns generically dependent (zero column)")
            v = min(lows)
            if v:
                cols[idx] = [{e - v: c for e, c in p.items()} for p in col]
        # (b) leading coefficient vectors
        lead = QMatrix([[col[i].get(0, 0) for col in cols] for i in range(height)])
        if rank(lead) == k:
            return lead
        # (c) replace the last column involved in a kernel relation; its
        # integer coefficients scale the new column, which the span ignores
        combo = [row[0] for row in kernel(lead).num]
        pivot = max(i for i, c in enumerate(combo) if c)
        new_col = [{} for _ in range(height)]
        for j, c in enumerate(combo):
            if c:
                for acc, p in zip(new_col, cols[j]):
                    for e, x in p.items():
                        s = acc.get(e, 0) + c * x
                        if s:
                            acc[e] = s
                        else:
                            del acc[e]
        cols[pivot] = new_col
    raise ValueError("columns generically dependent (no convergence)")
