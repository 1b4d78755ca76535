from fractions import Fraction

import pytest

from bigalg import lie, multiplicity
from bigalg.bigalgebra import BigGenerators, SectionOperator
from bigalg.limits import limit_of_span
from bigalg.linalg import QMatrix, rank, same_span
from bigalg.multiplicity import (
    _h_stabilize_limit,
    algebra_structure_table,
    brylinski_filtration,
    e_limit,
    e_limit_filtration,
    e_limit_zlimit,
    generators_at_e,
    lusztig_m,
    minuscule_quotient_check,
    multiplicity_algebra,
    qkostant_partition,
    quotient_chain_check,
    reversal_transport,
    weight_space_basis,
)
from bigalg.qpoly import QPoly
from bigalg.reps import build_irrep, g_e_invariants
from oracles import centralizer, diagonal, h_pairing, ip, qkostant_bruteforce


def test_qkostant_base_cases():
    assert qkostant_partition((0, 0)) == QPoly.one()
    # one positive root in rank one: P_q(k * alpha) = q^k
    for k in range(5):
        assert qkostant_partition((2 * k,)) == QPoly({k: 1})
    assert qkostant_partition((3,)) == QPoly()  # not in the root lattice
    assert qkostant_partition((-2,)) == QPoly()


def test_qkostant_two_decompositions():
    # alpha_1 + alpha_2 splits as itself or as two simple roots
    assert qkostant_partition((1, 1)) == QPoly({1: 1, 2: 1})
    assert qkostant_bruteforce((1, 1)) == QPoly({1: 1, 2: 1})


def test_qkostant_matches_bruteforce():
    for pi in [(2, 2), (3, 0), (0, 3), (2, 1), (4, 1)]:
        assert qkostant_partition(pi) == qkostant_bruteforce(pi)


def test_qkostant_guard():
    with pytest.raises(ValueError):
        qkostant_partition((0,) * 5)


def test_lusztig_values():
    assert lusztig_m((1, 1), (1, 1)) == QPoly.one()
    assert lusztig_m((1, 1), (0, 0)) == QPoly({1: 1, 2: 1})
    assert lusztig_m((4,), (0,)) == QPoly({2: 1})
    assert lusztig_m((4,), (2,)) == QPoly({1: 1})


def test_lusztig_at_one_is_multiplicity(octet, decuplet):
    for rep in (octet, decuplet):
        for lam, idx in rep.weight_table.items():
            if lie.is_dominant(lam):
                assert lusztig_m(rep.mu, lam).eval_at_one() == len(idx)


def test_brylinski_octet_and_sl2(octet, sl2_sym4):
    f = brylinski_filtration(octet, (0, 0))
    assert f["jump"] == QPoly({1: 1, 2: 1})
    assert f["dims"] == [0, 1, 2]
    f2 = brylinski_filtration(sl2_sym4, (0,))
    assert f2["jump"] == QPoly({2: 1})


def test_brylinski_highest_weight_single_jump(octet):
    f = brylinski_filtration(octet, (1, 1), torus="standard")
    assert f["jump"] == QPoly({0: 1})


def test_brylinski_torus_choices_agree(octet, decuplet):
    for rep in (octet, decuplet):
        for lam in rep.weight_table:
            if lie.is_dominant(lam):
                a = brylinski_filtration(rep, lam, torus="standard")["jump"]
                b = brylinski_filtration(rep, lam, torus="h_plus_e")["jump"]
                assert a == b


def test_brylinski_unknown_weight(octet):
    with pytest.raises(ValueError):
        brylinski_filtration(octet, (5, 5))


def test_e_limit_highest_weight_is_extreme_line(octet):
    lim = e_limit(octet, (1, 1))
    assert lim.cols == 1
    # the limit line is an h-weight line at the top pairing
    wts = {h_pairing(w) for w in octet.weights}
    support = {h_pairing(octet.weights[i]) for i, (x,) in enumerate(lim.a) if x}
    assert support == {max(wts)}


def test_e_limit_octet_zero_weight(octet):
    lim = e_limit(octet, (0, 0))
    assert lim.cols == 2
    invariants = g_e_invariants(octet)
    assert rank(invariants.hstack(lim)) == rank(invariants)
    # zero is the minuscule class here, so the containment is equality
    assert same_span(lim, invariants)


def _count_limit_of_span(monkeypatch, result=None):
    """Count the calls of limit_of_span from e_limit; result replaces its value."""
    calls = []

    def counting(columns):
        calls.append(columns)
        return limit_of_span(columns) if result is None else result

    monkeypatch.setattr(multiplicity, "limit_of_span", counting)
    return calls


def test_e_limit_is_computed_once_per_module(L3, monkeypatch):
    rep = build_irrep(L3, (1, 1))  # fresh, so nothing is kept on it yet
    calls = _count_limit_of_span(monkeypatch)
    a = e_limit(rep, (0, 0))
    assert e_limit(rep, [0, 0]) == a
    assert len(calls) == 1


def test_e_limit_keeps_no_disagreement(L3, monkeypatch):
    # a zero-column limit disagrees with the filtration route's plane; the
    # error is raised on every call, not kept
    rep = build_irrep(L3, (1, 1))
    calls = _count_limit_of_span(monkeypatch, QMatrix.zeros(rep.dim, 0))
    for _ in range(2):
        with pytest.raises(RuntimeError):
            e_limit(rep, (0, 0))
    assert len(calls) == 2


def test_generators_at_e_are_conjugated_once_per_module(L3, monkeypatch):
    rep = build_irrep(L3, (1, 1))  # fresh, so nothing is kept on it yet
    gens = BigGenerators(rep).ops
    evaluate = SectionOperator.evaluate
    calls = []

    def counting(op, cvals):
        calls.append(op.label)
        return evaluate(op, cvals)

    monkeypatch.setattr(SectionOperator, "evaluate", counting)
    for lam in ((0, 0), (1, 1)):
        multiplicity_algebra(rep, gens, lam)
    assert sorted(calls) == sorted(op.label for op in gens)
    monkeypatch.undo()
    u = reversal_transport(rep)
    zeros = [0] * (L3.n - 1)
    assert generators_at_e(rep, gens) == [u * op.evaluate(zeros) * u for op in gens]


def test_e_limit_methods_agree_battery(octet, decuplet):
    for rep in (octet, decuplet):
        for lam in rep.weight_table:
            if lie.is_dominant(lam):
                a = e_limit_filtration(rep, lam)
                b = e_limit_zlimit(rep, lam)
                assert a.cols == b.cols
                assert same_span(a, b)


def test_brylinski_middle_identity(octet, sl2_sym4):
    # jump polynomial = q^{-(lam,rho)} sum_k dim(limit^{h=k}) q^{k/2}
    for rep in (octet, sl2_sym4):
        for lam in rep.weight_table:
            if not lie.is_dominant(lam):
                continue
            jump = brylinski_filtration(rep, lam)["jump"]
            limit = _h_stabilize_limit(rep, e_limit(rep, lam))
            wts = [h_pairing(w) for w in rep.weights]
            pairs = {}
            for col in limit.columns():
                k = {wts[i] for i, (x,) in enumerate(col.a) if x}.pop()
                pairs[k] = pairs.get(k, 0) + 1
            shift = ip(lam, (1,) * len(lam))
            middle = QPoly({Fraction(k, 2) - shift: d for k, d in pairs.items()})
            assert middle == jump


def test_multiplicity_algebra_octet(octet, octet_gens):
    ma = multiplicity_algebra(octet, octet_gens.ops, (0, 0))
    assert ma["dim"] == 2
    assert ma["graded"] == {0: 1, 1: 1}
    assert ma["hilbert"] == lusztig_m((1, 1), (0, 0))
    n1 = ma["restricted"]["N1"]
    assert not n1.is_zero()
    assert (n1 * n1).is_zero()
    assert ma["algebra_span_dim"] == 2


def test_algebra_structure_table_octet(octet, octet_gens):
    ma = multiplicity_algebra(octet, octet_gens.ops, (0, 0))
    st = algebra_structure_table(ma["algebra_basis"])
    basis = [QMatrix(b) for b in st["basis"]]
    assert len(basis) == ma["algebra_span_dim"] == 2
    assert basis[0] == QMatrix.identity(ma["dim"])
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            total = QMatrix.zeros(ma["dim"], ma["dim"])
            for c, e in zip(st["table"]["%d,%d" % (i, j)], basis):
                total = total + e * Fraction(c)
            assert a * b == total


def test_multiplicity_algebra_highest_weight(octet, octet_gens):
    ma = multiplicity_algebra(octet, octet_gens.ops, (1, 1))
    assert ma["dim"] == 1
    assert ma["algebra_span_dim"] == 1


def test_multiplicity_algebra_decuplet_zero(decuplet, decuplet_gens):
    ma = multiplicity_algebra(decuplet, decuplet_gens.ops, (0, 0))
    assert ma["dim"] == 1  # the zero weight has multiplicity one here


def test_quotient_chain_and_minuscule(octet, octet_gens):
    chain = quotient_chain_check(octet, octet_gens.ops, (0, 0))
    assert chain["contained"] and chain["factors"]
    mq = minuscule_quotient_check(octet, octet_gens.ops)
    assert mq["dims_match"] and mq["ideal_annihilates_limit"]
    assert mq["fiber_dim"] == 8 and mq["quotient_dim"] == 2


def test_scaled_weight_space_is_torus_eigenspace(octet, L3):
    # at a sample rational z, the scaled space is a common eigenspace of the
    # centralizer of e + z*h
    for z in (1, 2, Fraction(1, 2)):
        # the h+e weight space under the scaling diag(1, z, z^2)
        s = diagonal([Fraction(z) ** i for i in range(3)])
        u = octet.gl_transport(s) * weight_space_basis(octet, (0, 0), torus="h_plus_e")
        hz = L3.e_coords + L3.coords_of(L3.h) * z
        cent = centralizer(L3, hz)
        for x in cent.columns():
            assert rank(u.hstack(octet.op(x) * u)) == rank(u)
