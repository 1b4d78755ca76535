from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigalg.limits import limit_of_span
from bigalg.linalg import QMatrix, rank, same_span

# entries of Q[w, w^-1] as {exponent of w: coefficient}
W = {1: 1}
ONE = {0: 1}
ZERO = {}


def test_single_column_leading_term():
    lim = limit_of_span([[W, {3: 1}]])
    assert same_span(lim, QMatrix([[1], [0]]))


def test_two_columns_opposite_signs():
    # second column minus first is 2w e2, so the limit is two-dimensional
    c1 = [ONE, W]
    c2 = [ONE, {1: -1}]
    lim = limit_of_span([c1, c2])
    assert lim.cols == 2
    assert same_span(lim, QMatrix.identity(2))


def test_constant_columns_unchanged():
    c1 = [ONE, {0: 2}, ZERO]
    c2 = [ZERO, ONE, ONE]
    lim = limit_of_span([c1, c2])
    assert same_span(lim, QMatrix([[1, 0], [2, 1], [0, 1]]))


def test_dimension_preserved_laurent():
    winv = {-1: 1}
    cols = [[winv, ONE], [{-1: 1, 1: 1}, {0: -1}]]
    lim = limit_of_span(cols)
    assert lim.cols == 2


def test_multiple_replacement_rounds():
    # all three leading vectors start out equal; two kernel replacements
    # are needed before the limit stabilizes at the full space
    c1 = [ONE, ZERO, ZERO]
    c2 = [ONE, W, ZERO]
    c3 = [ONE, W, {2: 1}]
    lim = limit_of_span([c1, c2, c3])
    assert same_span(lim, QMatrix.identity(3))


def test_dependent_columns_detected():
    c1 = [ONE, W]
    c2 = [{0: 2}, {1: 2}]
    with pytest.raises(ValueError):
        limit_of_span([c1, c2])


# ---------------------------------------------------------------------------
# property test against the Pluecker coordinates of the limit
# ---------------------------------------------------------------------------

_laurent = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)


def _mul(p, q):
    """The product of two Laurent polynomials given as {exponent: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _det(rows):
    """Leibniz expansion over Q[w, w^-1]; zero coefficients may remain."""
    total = {}
    for perm in permutations(range(len(rows))):
        sign = 1
        for i, j in combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = {0: sign}
        for i, j in enumerate(perm):
            term = _mul(rows[i][j], term)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return total


def _leading_minors(columns):
    """The k x k minors' coefficients at the lowest w-order of any minor.

    The limit of span(columns) as w -> 0 is the subspace whose Pluecker
    coordinates are these leading terms; None when every minor vanishes.
    """
    k, height = len(columns), len(columns[0])
    minors = [
        _det([[columns[j][i] for j in range(k)] for i in rows])
        for rows in combinations(range(height), k)
    ]
    lows = [min(e for e, c in m.items() if c) for m in minors if any(m.values())]
    if not lows:
        return None
    low = min(lows)
    return [m.get(low, 0) for m in minors]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_limit_of_span_matches_leading_minors(data, height):
    k = data.draw(st.integers(1, height))
    columns = [[data.draw(_laurent) for _ in range(height)] for _ in range(k)]
    plucker = _leading_minors(columns)
    assume(plucker is not None)  # full generic rank
    lim = limit_of_span(columns)
    assert (lim.rows, lim.cols) == (height, k)
    assert rank(lim) == k
    got = [
        _det([[{0: x} for x in lim.a[i]] for i in rows]).get(0, 0)
        for rows in combinations(range(height), k)
    ]
    # the same subspace: proportional Pluecker vectors
    s = next(i for i, p in enumerate(plucker) if p)
    ratio = got[s] / plucker[s]
    assert ratio and got == [ratio * p for p in plucker]
