import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "bigalg.cli"]


def run(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_qanalogue_example():
    proc = run("qanalogue", "--n", "3", "--mu", "1,1", "--lambda", "0,0")
    payload = json.loads(proc.stdout)
    assert payload["m"] == [[1, 1], [2, 1]]


def test_qanalogue_deterministic():
    a = run("qanalogue", "--n", "3", "--mu", "1,1", "--lambda", "0,0").stdout
    b = run("qanalogue", "--n", "3", "--mu", "1,1", "--lambda", "0,0").stdout
    assert a == b


def test_hilbert_example():
    proc = run("hilbert", "--n", "3", "--mu", "3,0")
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True
    assert payload["dim"] == 10
    assert payload["numerator"] == [[0, 1], [1, 1], [2, 2], [3, 2], [4, 2], [5, 1], [6, 1]]


def test_bad_arguments_exit_two():
    proc = run("nonsense", check=False)
    assert proc.returncode == 2
    proc = run("qanalogue", "--n", "3", "--mu", "1,1", check=False)
    assert proc.returncode == 2


def test_rep_cache_round_trip(tmp_path):
    out = run("rep", "--n", "2", "--mu", "4", "--cache", str(tmp_path))
    first = json.loads(out.stdout)
    assert first["dim"] == 5
    assert os.listdir(tmp_path)
    again = json.loads(
        run("rep", "--n", "2", "--mu", "4", "--cache", str(tmp_path)).stdout
    )
    assert again == first


def test_cache_env_var(tmp_path):
    env = dict(os.environ, BIGALG_CACHE=str(tmp_path))
    proc = subprocess.run(
        CLI + ["rep", "--n", "2", "--mu", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert os.listdir(tmp_path)


def test_cache_flag_wins_over_env_var(tmp_path):
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    flag_dir.mkdir()
    env_dir.mkdir()
    env = dict(os.environ, BIGALG_CACHE=str(env_dir))
    proc = subprocess.run(
        CLI + ["rep", "--n", "2", "--mu", "2", "--cache", str(flag_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(flag_dir)
    assert not os.listdir(env_dir)


def test_ops_listing():
    payload = json.loads(run("ops", "--n", "3", "--mu", "1,1", "--list").stdout)
    labels = {g["label"] for g in payload["generators"]}
    assert labels == {"M1", "M2", "N1"}
    scalars = {g["label"]: g["scalar"] for g in payload["generators"]}
    assert scalars["M1"] == "-12"
    assert payload["anchors"]["M1"] == "4"


def test_relations_round_trip(tmp_path):
    path = os.path.join(tmp_path, "relations.json")
    run(
        "relations", "--n", "3", "--mu", "1,1", "--gens", "M1,N1",
        "--max-degree", "4", "--out", path,
    )
    payload = json.load(open(path))
    assert payload["relations"]
    proc = run(
        "relations", "--n", "3", "--mu", "1,1", "--gens", "M1,N1",
        "--verify", path,
    )
    assert json.loads(proc.stdout)["all_zero"] is True


def test_brylinski_command():
    payload = json.loads(
        run("brylinski", "--n", "3", "--mu", "1,1", "--lambda", "0,0").stdout
    )
    assert payload["match"] is True
    assert payload["jump"] == [[1, 1], [2, 1]]


def test_multalg_command():
    payload = json.loads(
        run("multalg", "--n", "3", "--mu", "1,1", "--lambda", "0,0").stdout
    )
    assert payload["dim"] == 2
    assert payload["graded_dims"] == {"0": 1, "1": 1}
    assert payload["nilpotency_index"]["N1"] == 2


def test_spectrum_csv(tmp_path):
    path = os.path.join(tmp_path, "sk.csv")
    proc = run(
        "spectrum", "--n", "2", "--mu", "4", "--grid=-4:1:5", "--out", path
    )
    payload = json.loads(proc.stdout)
    assert payload["rows"] > 0
    assert payload["max_residual"] < 1e-9
    header = open(path).readline().strip()
    assert header == "param,generator,branch,value"


def test_twining_command():
    payload = json.loads(run("twining", "--n", "3", "--mu", "1,1").stdout)
    assert payload["intertwiner_valid"] is True
    assert payload["sigma_on_generators"] == {"M1": 1, "M2": -1, "N1": -1}
    assert payload["trace_on_zero_weight"] == "0"
