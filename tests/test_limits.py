from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigalg.limits import limit_of_span
from bigalg.linalg import rank, same_span
from bigalg.multipoly import MultiPoly, VarSet, rat


def wring():
    return VarSet(["w"], laurent=["w"])


def col(ring, entries):
    out = []
    for e in entries:
        if isinstance(e, MultiPoly):
            out.append(e)
        else:
            out.append(MultiPoly.const(ring, e))
    return out


def test_single_column_leading_term():
    ring = wring()
    w = MultiPoly.variable(ring, "w")
    c = col(ring, [w, w**3])
    lim = limit_of_span([c])
    assert same_span(lim.columns(), [[rat(1), rat(0)]])


def test_two_columns_opposite_signs():
    # second column minus first is 2w e2, so the limit is two-dimensional
    ring = wring()
    w = MultiPoly.variable(ring, "w")
    one = MultiPoly.const(ring, 1)
    c1 = [one, w]
    c2 = [one, -w]
    lim = limit_of_span([c1, c2])
    assert lim.cols == 2
    assert same_span(lim.columns(), [[rat(1), rat(0)], [rat(0), rat(1)]])


def test_constant_columns_unchanged():
    ring = wring()
    c1 = col(ring, [1, 2, 0])
    c2 = col(ring, [0, 1, 1])
    lim = limit_of_span([c1, c2])
    assert same_span(lim.columns(), [[rat(1), rat(2), rat(0)], [rat(0), rat(1), rat(1)]])


def test_dimension_preserved_laurent():
    ring = wring()
    w = MultiPoly.variable(ring, "w")
    winv = MultiPoly.monomial(ring, (-1,), 1)
    one = MultiPoly.const(ring, 1)
    cols = [[winv, one], [winv + w, -one]]
    lim = limit_of_span(cols)
    assert lim.cols == 2


def test_multiple_replacement_rounds():
    # all three leading vectors start out equal; two kernel replacements
    # are needed before the limit stabilizes at the full space
    ring = wring()
    w = MultiPoly.variable(ring, "w")
    one = MultiPoly.const(ring, 1)
    zero = MultiPoly.zero(ring)
    c1 = [one, zero, zero]
    c2 = [one, w, zero]
    c3 = [one, w, w * w]
    lim = limit_of_span([c1, c2, c3])
    from bigalg.linalg import QMatrix

    assert same_span(lim.columns(), QMatrix.identity(3).columns())


def test_dependent_columns_detected():
    ring = wring()
    w = MultiPoly.variable(ring, "w")
    one = MultiPoly.const(ring, 1)
    c1 = [one, w]
    c2 = [one.scale(2), w.scale(2)]
    with pytest.raises(ValueError):
        limit_of_span([c1, c2])


# ---------------------------------------------------------------------------
# property test against the Pluecker coordinates of the limit
# ---------------------------------------------------------------------------

_W = wring()
_laurent = st.dictionaries(
    st.integers(-2, 2), st.integers(-3, 3), max_size=3
).map(lambda d: MultiPoly(_W, {_W.pack((e,)): c for e, c in d.items()}))


def _det(rows, zero):
    """Leibniz expansion; entries may be MultiPoly or rationals."""
    total = zero
    for perm in permutations(range(len(rows))):
        sign = 1
        for i, j in combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term = rows[i][j] * term
        total = total + term
    return total


def _leading_minors(columns):
    """The k x k minors' coefficients at the lowest w-order of any minor.

    The limit of span(columns) as w -> 0 is the subspace whose Pluecker
    coordinates are these leading terms; None when every minor vanishes.
    """
    k, height = len(columns), len(columns[0])
    minors = [
        _det([[columns[j][i] for j in range(k)] for i in rows], MultiPoly.zero(_W))
        for rows in combinations(range(height), k)
    ]
    lows = [m.var_range("w")[0] for m in minors if m.terms]
    if not lows:
        return None
    low = min(lows)
    return [m.coeff((low,)) for m in minors]


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
        _det([lim.a[i] for i in rows], rat(0))
        for rows in combinations(range(height), k)
    ]
    # the same subspace: proportional Pluecker vectors
    s = next(i for i, p in enumerate(plucker) if p)
    ratio = got[s] / plucker[s]
    assert ratio and got == [ratio * p for p in plucker]
