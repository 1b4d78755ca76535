import json

import pytest

from bigalg.linalg import QMatrix
from bigalg.multipoly import MultiPoly, VarSet, rat, substitute
from bigalg.polymatrix import PolyMatrix
from oracles import diff, evaluate, is_homogeneous


@pytest.fixture
def xy():
    ring = VarSet(["x", "y"])
    return ring, MultiPoly.variable(ring, "x"), MultiPoly.variable(ring, "y")


def test_difference_of_squares(xy):
    ring, x, y = xy
    assert (x + 1) * (x - 1) == x * x - 1


def test_multiplication_by_zero_prunes(xy):
    ring, x, y = xy
    p = x * x + y.scale(3) - 7
    z = p * MultiPoly.zero(ring)
    assert z.is_zero()
    assert z.terms == {}


def test_binomial_square():
    ring = VarSet(["c2", "c3"])
    c2 = MultiPoly.variable(ring, "c2")
    c3 = MultiPoly.variable(ring, "c3")
    expanded = (c2 + c3) ** 2
    assert expanded == c2 * c2 + (c2 * c3).scale(2) + c3 * c3


def test_variable_set_mismatch():
    a = MultiPoly.variable(VarSet(["x"]), "x")
    b = MultiPoly.variable(VarSet(["y"]), "y")
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_partial_derivatives(xy):
    ring, x, y = xy
    assert diff(x * x * y, "x") == (x * y).scale(2)
    assert diff(x**3, "x") == (x * x).scale(3)
    c_ring = VarSet(["c2", "c3"])
    c2 = MultiPoly.variable(c_ring, "c2")
    assert diff(c2, "c3").is_zero()
    with pytest.raises(ValueError):
        diff(c2, "nope")


def test_scaling_and_power(xy):
    ring, x, y = xy
    p = (x + y.scale(2)) ** 3
    q = x**3 + (x * x * y).scale(6) + (x * y * y).scale(12) + (y**3).scale(8)
    assert p == q
    assert p.scale(0).is_zero()


def test_exponents_stay_in_the_packing_window(xy):
    ring, x, y = xy
    assert MultiPoly.const(ring, 5).terms == {0: 5}
    assert ring.unpack(ring.pack((0, 2**15 - 1))) == (0, 2**15 - 1)
    for exps in ((-1, 0), (0, 2**15), (2**16, 0)):
        with pytest.raises(OverflowError):
            ring.pack(exps)


def test_a_product_past_the_packing_window_raises(xy):
    # x^20000 * x^20000 would carry out of x's field into y's
    ring, x, y = xy
    big = MultiPoly.monomial(ring, (20000, 0))
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (big + y) * (big - 1)
    top = MultiPoly.monomial(ring, (2**14, 0)) * MultiPoly.monomial(ring, (2**14 - 1, 1))
    assert ring.unpack(next(iter(top.terms))) == (2**15 - 1, 1)


def test_homogeneity_and_degrees(xy):
    ring, x, y = xy
    assert is_homogeneous(x * x + x * y) == 2
    assert is_homogeneous(x * x + y) is None
    assert (x * x * y).weighted_degree() == 3
    graded = VarSet(["x", "y"], [1, 3])
    gx, gy = MultiPoly.variable(graded, "x"), MultiPoly.variable(graded, "y")
    assert (gx * gx * gy).weighted_degree() == 5
    assert (gx * gx * gy + gx).weighted_degree() == 5  # the largest term's
    assert graded.degree(graded.pack((2, 1))) == 5
    assert graded.degree(0) == 0


def test_weighted_degree_of_zero_is_minus_one():
    assert MultiPoly.zero(VarSet(["x"], [4])).weighted_degree() == -1
    assert MultiPoly.zero(VarSet([])).weighted_degree() == -1


@pytest.mark.parametrize(
    "weights", [[1], [1, 2, 3], [0, 1], [1, -2], [1, 1.5], []], ids=repr
)
def test_varset_refuses_bad_weights(weights):
    with pytest.raises(ValueError):
        VarSet(["x", "y"], weights)


def test_varset_weights_are_part_of_the_ring():
    plain, graded = VarSet(["c2", "c3"]), VarSet(["c2", "c3"], [2, 3])
    assert plain.weights == (1, 1)
    assert plain == VarSet(["c2", "c3"], [1, 1])
    assert hash(plain) == hash(VarSet(["c2", "c3"], (1, 1)))
    assert graded == VarSet(("c2", "c3"), range(2, 4))
    assert plain != graded and hash(plain) != hash(graded)
    assert len({plain, graded}) == 2
    # polynomials over the two rings neither compare equal nor mix
    a, b = MultiPoly.variable(plain, "c2"), MultiPoly.variable(graded, "c2")
    assert a != b
    with pytest.raises(ValueError, match="variable-set mismatch"):
        a + b


def test_evaluate_and_subs(xy):
    ring, x, y = xy
    p = x * x + y.scale(-2)
    assert evaluate(p, {"x": 3, "y": rat(1, 2)}) == 8
    target = VarSet(["t"])
    t = MultiPoly.variable(target, "t")
    image = p.subs(target, {"x": t, "y": t * t})
    assert image == t * t - (t * t).scale(2)


def test_substitute_into_each_kind_of_ring():
    # polynomials, constant matrices and polynomial matrices
    ring = VarSet(["x", "y"])
    x, y = (MultiPoly.variable(ring, nm) for nm in ring.names)
    p = x * x * y - x.scale(rat(1, 2)) + 3
    target = VarSet(["t"])
    t = MultiPoly.variable(target, "t")
    a = QMatrix([[1, 2], [0, 3]])
    pa = PolyMatrix(target, [[t, 1], [0, t + 1]])
    cases = [
        (MultiPoly.zero(target), MultiPoly.const(target, 1), t + 1, t * t),
        (QMatrix.zeros(2, 2), QMatrix.identity(2), a, a * a),
        (PolyMatrix.zeros(target, 2, 2), PolyMatrix.identity(target, 2), pa, pa * pa),
    ]
    for zero, one, u, v in cases:
        assert substitute(p, [u, v], zero, one) == u * u * v - u * rat(1, 2) + one * 3
        assert substitute(MultiPoly.zero(ring), [u, v], zero, one) == zero


def test_serialization_round_trip(xy):
    ring, x, y = xy
    p = (x + y.scale(rat(2, 3))) ** 2 - 5
    obj = json.loads(json.dumps(p.to_obj()))
    assert obj["variables"] == ["x", "y"]
    back = MultiPoly.zero(ring)
    for exps, c in obj["terms"]:
        back = back + MultiPoly.monomial(ring, tuple(exps), rat(c))
    assert back == p


def test_determinism_same_bytes(xy):
    ring, x, y = xy
    p = (x + y) ** 4 - (x - y) ** 4
    assert json.dumps(p.to_obj()) == json.dumps(((x + y) ** 4 - (x - y) ** 4).to_obj())
