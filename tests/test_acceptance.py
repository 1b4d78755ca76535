"""The acceptance battery: every criterion runs at its stated tolerance.

All checks are exact except the figure residual bound (1e-9).  The battery
runs once per module through ``run_all`` (criterion 12 writes its figures to
a temporary directory of its own); each test checks its criterion's entry
and prints its PASS/FAIL line so a full run reads as a checklist.  The
results must also hash to the digests the benchmark's output gate checks.
Criterion 9's probe choice is checked apart, on one module at a time.
"""

import importlib.util
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from bigalg import acceptance, spectra
from bigalg.kirillov import wei_D
from bigalg.multipoly import MultiPoly
from bigalg.polymatrix import PolyMatrix

# the benchmark's output gate, read from its file: perfbench is not a package
_GATE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
_spec = importlib.util.spec_from_file_location("perfbench_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.fixture(scope="module")
def workspace():
    return acceptance.Workspace(seed=0)


@pytest.fixture(scope="module")
def battery(workspace):
    return acceptance.run_all(seed=0, ws=workspace)


def _result(battery, crit_id):
    result = battery["results"][crit_id - 1]
    assert result["id"] == crit_id
    print(
        "criterion %2d %-36s %s"
        % (result["id"], result["name"], "PASS" if result["pass"] else "FAIL")
    )
    return result


def test_criterion_01_sl2_presentations(battery):
    result = _result(battery, 1)
    assert result["pass"], result["details"]


def test_criterion_02_sl3_standard(battery):
    result = _result(battery, 2)
    assert result["pass"], result["details"]


def test_criterion_03_decuplet_ideal(battery):
    result = _result(battery, 3)
    assert result["pass"], result["details"]


def test_criterion_04_octet_ideals(battery):
    result = _result(battery, 4)
    assert result["pass"], result["details"]


def test_criterion_05_hilbert_series(battery):
    result = _result(battery, 5)
    assert result["pass"], result["details"]


def test_criterion_06_brylinski_lusztig(battery):
    result = _result(battery, 6)
    assert result["pass"], result["details"]


def test_criterion_07_limit_agreement(battery):
    result = _result(battery, 7)
    assert result["pass"], result["details"]


def test_criterion_08_multiplicity_algebras(battery):
    result = _result(battery, 8)
    assert result["pass"], result["details"]


def test_criterion_09_commutativity_evidence(battery):
    result = _result(battery, 9)
    assert result["pass"], result["details"]


def test_criterion_10_principal_spectrum(battery):
    result = _result(battery, 10)
    assert result["pass"], result["details"]


def test_criterion_10_splits_no_fiber(monkeypatch, battery, workspace):
    # criterion 10 reads the eigen table alone, never the joint blocks
    def refuse(mats):
        raise AssertionError("joint_invariant_decomposition ran")

    monkeypatch.setattr(spectra, "joint_invariant_decomposition", refuse)
    result = acceptance.criterion_10(workspace)
    assert result["pass"]
    assert result["details"] == _result(battery, 10)["details"]


def test_criterion_11_twining(battery):
    result = _result(battery, 11)
    assert result["pass"], result["details"]


def test_criterion_12_figures(battery):
    result = _result(battery, 12)
    assert result["pass"], result["details"]


def test_verify_all_summary(battery):
    assert battery["all_pass"]
    assert [r["id"] for r in battery["results"]] == list(range(1, 13))


def test_battery_matches_the_benchmark_digests(battery):
    # the digests the benchmark gate checks, for this fixture's seed 0
    want = gate.load_table()["battery"]["0"]
    got = {str(r["id"]): gate.criterion_digest(r) for r in battery["results"]}
    assert got == want


# ---------------------------------------------------------------------------
# criterion 9: which commutators it takes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["octet_gens", "decuplet_gens"])
def test_mediums_commute_with_the_products_criterion_9_skips(request, family):
    # once the generators commute, criterion 9 leaves these to the Leibniz rule
    ops = request.getfixturevalue(family).ops
    elems = [op.kirillov for op in ops]
    products = [elems[0] * elems[0], elems[0] * elems[1], elems[-1] * elems[0]]
    for m in (op.kirillov for op in ops if op.i == 1):
        for p in products:
            assert m.commutator(p).is_zero()


def _criterion_9_on(monkeypatch, rep, ops):
    """criterion_9 on rep alone with the generators ops, the freeness check
    stubbed out: the module's details and each commutator's (left, right)."""
    calls = []
    commutator = PolyMatrix.commutator

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(PolyMatrix, "commutator", counted)
    monkeypatch.setattr(acceptance, "BATTERY", [(rep.L.n, rep.mu)])
    monkeypatch.setattr(
        acceptance,
        "freeness_and_rank_check",
        lambda rep, ops, seed: {"ok": True, "points": [], "fiber_cyclic": True},
    )
    ws = SimpleNamespace(
        seed=0, rep=lambda n, mu: rep, gens=lambda n, mu: SimpleNamespace(ops=ops)
    )
    result = acceptance.criterion_9(ws)
    return result["details"]["sl%d %s" % (rep.L.n, rep.mu)], calls


def test_criterion_9_probes_derivations_only_once_the_generators_commute(
    monkeypatch, octet, octet_gens
):
    elems = [op.kirillov for op in octet_gens.ops]
    mediums = [op.kirillov for op in octet_gens.ops if op.i == 1]
    details, calls = _criterion_9_on(monkeypatch, octet, octet_gens.ops)
    assert details["pairwise_commute"] and details["medium_central_on_probes"]
    d1 = wei_D(octet, elems[0] * elems[0])
    probes = [d1, wei_D(octet, d1)]
    assert calls == list(combinations(elems, 2)) + [(m, p) for m in mediums for p in probes]


def test_criterion_9_tests_every_probe_when_a_pair_does_not_commute(monkeypatch, octet, octet_gens):
    ring = octet.L.x_ring
    # a scalar medium commutes with every probe, so no check stops early
    m = PolyMatrix.scalar(ring, octet.dim, MultiPoly.variable(ring, "x0"))
    n1 = octet_gens.by_label["N1"].kirillov
    r = PolyMatrix.from_qmatrix(ring, octet.rho[0])
    assert not n1.commutator(r).is_zero()
    ops = [SimpleNamespace(kirillov=k, i=i) for k, i in ((m, 1), (n1, 2), (r, 2))]
    details, calls = _criterion_9_on(monkeypatch, octet, ops)
    assert not details["pairwise_commute"]
    assert details["medium_central_on_probes"]
    d1 = wei_D(octet, m * m)
    probes = [m, n1, r, m * m, m * n1, r * m, d1, wei_D(octet, d1)]
    assert calls == [(m, n1), (m, r), (n1, r)] + [(m, p) for p in probes]
