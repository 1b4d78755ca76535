import random

import pytest

from bigalg.linalg import QMatrix, charpoly
from bigalg.qpoly import QPoly, geometric_quotient


def test_basic_arithmetic():
    q = QPoly.q_power(1)
    assert (QPoly.one() + q) * (QPoly.one() - q) == QPoly({0: 1, 2: -1})
    assert not q.scale(0)
    assert QPoly({2: 3}) * QPoly.q_power(-2) == QPoly({0: 3})
    assert QPoly({0: 1, 1: 2}).eval_at_one() == 3


def test_geometric_quotient_exact():
    # (1 - q^4)(1 - q^5) / ((1 - q)(1 - q^2)) expands to the decuplet numerator
    num = geometric_quotient([4, 5], [1, 2])
    assert num == QPoly({0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1})
    assert num.eval_at_one() == 10


def test_geometric_quotient_rejects_inexact():
    with pytest.raises(ValueError):
        geometric_quotient([5], [2])  # (1 - q^5)/(1 - q^2) is not a polynomial


def test_cayley_hamilton_random():
    # independent validation of the characteristic polynomial recursion
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        m = QMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        chi = charpoly(m)
        total = QMatrix.zeros(n, n)
        power = QMatrix.identity(n)
        for i, c in enumerate(chi):
            total = total + power * c
            if i + 1 < len(chi):
                power = power * m
        assert total.is_zero()
