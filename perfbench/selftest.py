"""Tests of the benchmark itself (tracer, gate, workload generators).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import clock  # noqa: E402
import gate  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from bigalg import acceptance, bigalgebra, cli, lie, linalg, reps  # noqa: E402
from bigalg.linalg import QMatrix  # noqa: E402
from bigalg.multiplicity import brylinski_filtration  # noqa: E402
from bigalg.reps import build_irrep  # noqa: E402

SEEDS = range(40)


def _namespace_snapshot():
    """Every module attribute, class attribute and list/dict entry of bigalg."""
    snap = {}
    for mod in tracer.package_modules():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    snap[(mod.__name__, name, attr)] = raw
            elif type(obj) in (list, dict):
                items = obj.items() if type(obj) is dict else enumerate(obj)
                for k, item in items:
                    snap[(mod.__name__, name, "item", k)] = item
    return snap


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_restores_every_patched_attribute():
    before = _namespace_snapshot()
    tr = tracer.Tracer().install()
    try:
        assert linalg.kernel is not before[("bigalg.linalg", "kernel")]
        assert bigalgebra.kernel is linalg.kernel  # re-imported name rebound
        assert acceptance.CRITERIA[0] is acceptance.criterion_1
        assert acceptance.CRITERIA[0] is not before[("bigalg.acceptance", "criterion_1")]
        changed = [k for k, v in _namespace_snapshot().items() if before.get(k) is not v]
        assert len(changed) > 100
    finally:
        tr.uninstall()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_calls_through_every_name_and_self_time():
    m = QMatrix([[1, 2], [2, 4]])
    with tracer.Tracer() as tr:
        linalg.kernel(m)
        bigalgebra.kernel(m)
        linalg.rank(m)
        m * m
        m * 3
    snap = tr.snapshot()
    assert snap["linalg.kernel"]["calls"] == 2
    assert snap["linalg.kernel"]["cells"] == 8
    assert snap["linalg.QMatrix.__mul__"]["calls"] == 2
    assert snap["linalg.QMatrix.__mul__"]["madds"] == 8
    assert tracer.layer_value(snap["linalg.QMatrix.__mul__"], "zero_frac") == 0
    assert tracer.layer_value(snap["linalg.QMatrix.__mul__"], "int_frac") == 1
    for row in snap.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_excludes_traced_children():
    with tracer.Tracer() as tr:
        lie.TypeA(3)
        reps.build_irrep(lie.TypeA(2), (2,))
    snap = tr.snapshot()
    row = snap["reps.build_irrep"]
    assert row["self_s"] < row["total_s"]
    assert row["tensor_dim"] == 4
    assert snap["lie.TypeA.__init__"]["calls"] == 2


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_cli_gate_rejects_any_single_byte_change(tmp_path):
    table = gate.load_table()
    argv = ["rep", "--n", "2", "--mu", "4"]
    cache = str(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--cache", cache]) == 0
    text = buf.getvalue()
    key = workloads.argv_key(argv)
    assert gate.check_cli(table, key, text, cache) is None
    for i in range(len(text)):
        changed = text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:]
        assert gate.check_cli(table, key, changed, cache) is not None, i
    assert gate.check_cli(table, "rep --n 2 --mu 5", text, cache) is not None


def test_criterion_gate_rejects_a_changed_result():
    table = gate.load_table()
    res = acceptance.criterion_2(acceptance.Workspace(seed=0))
    res["seconds"] = 0.5  # timing is not compared
    assert gate.check_criterion(table, 0, res) is None
    bad = json.loads(json.dumps(res, default=str))
    bad["name"] = bad["name"][:-1] + "?"
    assert gate.check_criterion(table, 0, bad) is not None
    assert gate.check_criterion(table, 0, dict(res, **{"pass": False})) is not None


def test_digest_table_covers_every_generated_input():
    table = gate.load_table()
    assert set(table["cli"]) == {workloads.argv_key(a) for a in workloads.cli_all_commands()}
    assert set(table["battery"]) == {str(s) for s in workloads.BATTERY_SEEDS}
    assert all(len(v) == 12 for v in table["battery"].values())


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    for seed in SEEDS:
        assert workloads.cli_session(seed) == workloads.cli_session(seed)
        assert workloads.scale_plan(seed) == workloads.scale_plan(seed)
        assert workloads.battery_seed(seed) == workloads.battery_seed(seed)
    assert len({json.dumps(workloads.cli_session(s)) for s in SEEDS}) > 1
    assert len({json.dumps(workloads.scale_plan(s)) for s in SEEDS}) > 1


def test_cli_session_shape():
    for seed in SEEDS:
        session = workloads.cli_session(seed)
        kinds = [k for k, _ in session]
        assert len(session) >= 50
        assert kinds.count("warm") >= 40
        assert kinds.count("cold") == len(workloads.CLI_MODULES)
        subs = {argv[0] for _, argv in session}
        assert subs == set(spec.CLI_SUBCOMMANDS)


@pytest.mark.parametrize("n,mu,dominant", workloads.CLI_MODULES)
def test_lambda_candidates_are_the_dominant_weights(n, mu, dominant):
    rep = build_irrep(lie.TypeA(n), mu)
    rd = lie.RootData(n)
    assert sorted(dominant) == sorted(w for w in rep.weight_table if rd.is_dominant(w))
    for seed in SEEDS:
        for _, argv in workloads.cli_session(seed):
            if "--lambda" in argv and argv[2:5:2] == [str(n), ",".join(map(str, mu))]:
                lam = tuple(int(c) for c in argv[argv.index("--lambda") + 1].split(","))
                assert lam in rep.weight_table


def test_a_non_weight_lambda_is_rejected_by_the_program():
    rep = build_irrep(lie.TypeA(3), (2, 1))
    assert (1, 1) not in rep.weight_table
    with pytest.raises(Exception):
        brylinski_filtration(rep, (1, 1))


def test_benchmark_json_matches_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == spec.END_TO_END
    names = spec.per_layer_names()
    assert [m["name"] for m in bench["per_layer"]] == names
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == spec.per_layer_unit(m["name"])


# ---------------------------------------------------------------------------
# reference-speed clock
# ---------------------------------------------------------------------------


def test_speed_clock_scales_stretches_by_kernel_speed():
    c = clock.SpeedClock(nominal=0.001)
    # samples every 1 s, each kernel taking 1 ms: nominal speed, then
    # 2 ms: half speed
    for k in range(10):
        c.begin.append(float(k))
        c.kernel.append(0.001 if k < 5 else 0.002)
        c.end.append(k + 0.001)
    c.begin[0] = c.end[0]
    c._finish()
    assert c.reading(0.0) == 0.0
    assert c.reading(1.0) == pytest.approx(0.999)
    assert c.reading(2.5) == pytest.approx(2 * 0.999 + 0.499)
    late = c.reading(9.0) - c.reading(8.001)
    assert late == pytest.approx(0.999 / 2)
    stamps = [i / 7 for i in range(70)]
    readings = [c.reading(t) for t in stamps]
    assert readings == sorted(readings)


def test_speed_clock_runs_and_stops():
    c = clock.SpeedClock(interval=0.005).start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        c.now()
    t1 = time.perf_counter()
    c.stop()
    assert len(c.kernel) >= 5
    assert c.reading(t1) > c.reading(t0) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
