"""The acceptance battery: every criterion runs at its stated tolerance.

All checks are exact except the figure residual bound (1e-9).  The battery
runs once per module through ``run_all`` (criterion 12 writes its figures to
a temporary directory of its own); each test checks its criterion's entry
and prints its PASS/FAIL line so a full run reads as a checklist.  The
results must also hash to the digests the benchmark's output gate checks.
"""

import importlib.util
from pathlib import Path

import pytest

from bigalg import acceptance

# the benchmark's output gate, read from its file: perfbench is not a package
_GATE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
_spec = importlib.util.spec_from_file_location("perfbench_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.fixture(scope="module")
def battery():
    return acceptance.run_all(seed=0, ws=acceptance.Workspace(seed=0))


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
