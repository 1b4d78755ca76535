"""The acceptance battery: every criterion runs at its stated tolerance.

All checks are exact except the figure residual bound (1e-9).  The battery
runs once per module through ``run_all`` (criterion 12 writes its figures to
a temporary directory of its own); each test checks its criterion's entry
and prints its PASS/FAIL line so a full run reads as a checklist.
"""

import pytest

from bigalg import acceptance


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
