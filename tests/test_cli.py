import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bigalg import cli, lie, twining

CLI = [sys.executable, "-m", "bigalg.cli"]
README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _verify(payload):
    """relations --verify argv for sl3 (1,1) with payload as the file."""
    return ["relations", "--n", "3", "--mu", "1,1", "--verify", payload]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rep", "--n", "1", "--mu", "1"], "--n must be at least 2"),
        (["rep", "--n", "3", "--mu", "1.5,0"], "--mu: weight coordinates must be integers"),
        (
            ["qanalogue", "--n", "3", "--mu", "1,1", "--lambda", "0,0.5"],
            "--lambda: weight coordinates must be integers",
        ),
        (["rep", "--n", "3", "--mu", "9,9"], "dimension 1000 exceeds the bound 400"),
        (["rep", "--n", "3", "--mu", "1"], "needs 2 comma-separated coordinates"),
        (["rep", "--n", "3", "--mu=-1,0"], "--mu: weight must be dominant"),
        (
            ["brylinski", "--n", "3", "--mu", "2,1", "--lambda", "0,0"],
            "--lambda: 0,0 is not a weight of the module",
        ),
        (
            ["multalg", "--n", "3", "--mu", "2,1", "--lambda", "0,0"],
            "--lambda: 0,0 is not a weight of the module",
        ),
        (
            ["qanalogue", "--n", "6", "--mu", "1,0,0,0,0", "--lambda", "0,0,0,0,0"],
            "--n: qanalogue needs n <= 5",
        ),
        (
            ["qanalogue", "--n", "8", "--mu", "1,0,0,0,0,0,0", "--lambda", "0,0,0,0,0,0,0"],
            "--n: qanalogue needs n <= 5",
        ),
        (
            ["brylinski", "--n", "6", "--mu", "1,0,0,0,0", "--lambda", "1,0,0,0,0"],
            "--n: brylinski needs n <= 5",
        ),
        (["spectrum", "--n", "2", "--mu", "4", "--grid", "1:2"], "--grid: expected start:stop:steps"),
        (["spectrum", "--n", "2", "--mu", "4", "--grid", "a:1:3"], "--grid: expected start:stop:steps"),
        (["spectrum", "--n", "2", "--mu", "4"], "--out: spectrum needs --out for the skeleton CSV"),
        (
            ["relations", "--n", "3", "--mu", "1,1", "--gens", "Q1"],
            "--gens: Q1 is not a generator of the module (M1,M2,N1)",
        ),
        (
            ["relations", "--n", "3", "--mu", "1,1", "--verify", "/missing.json"],
            "--verify: [Errno 2] No such file or directory",
        ),
        (
            ["twining", "--n", "3", "--mu", "1,0"],
            "--mu: twining needs a weight equal to its reverse",
        ),
        (
            _verify({"relations": [[{"monomials": [["Q9", 1]], "coeff": "1"}]]}),
            "--verify: relation 0: unknown variable 'Q9' (not in M1,M2,N1,c2,c3)",
        ),
        (_verify({"generators": []}), '--verify: expected a JSON object with a "relations" list'),
        (_verify([[]]), '--verify: expected a JSON object with a "relations" list'),
        (
            _verify({"relations": [[], [{"monomials": [["M1", 1]], "coeff": "x"}]]}),
            "--verify: relation 1: Invalid literal for Fraction: 'x'",
        ),
        (
            _verify({"relations": [[{"monomials": [["M1", -1]], "coeff": "1"}]]}),
            "--verify: relation 0: exponent -1 of M1 out of packing range",
        ),
        (
            _verify({"relations": [[{"monomials": [["M1", 1], ["M1", 2]], "coeff": "1"}]]}),
            "--verify: relation 0: a term names M1 twice",
        ),
        (
            ["relations", "--n", "3", "--mu", "1,1", "--gens", "M1,M1"],
            "--gens: M1,M1 names a generator twice",
        ),
        (
            ["relations", "--n", "3", "--mu", "1,1", "--max-degree", "0"],
            "--max-degree must be at least 1",
        ),
        (
            ["relations", "--n", "3", "--mu", "1,1", "--max-degree=-1"],
            "--max-degree must be at least 1",
        ),
        (["rep", "--n", "3", "--mu", "1,1", "--out", "{dir}"], "--out: [Errno 21] Is a directory"),
        (["rep", "--n", "3", "--mu", "1,1", "--cache", "{file}"], "--cache: [Errno 17] File exists"),
    ],
    ids=["n_below_2", "fractional_mu", "fractional_lambda", "over_bound",
         "wrong_arity", "negative_mu", "brylinski_lambda_not_a_weight",
         "multalg_lambda_not_a_weight", "qanalogue_n_6", "qanalogue_n_8",
         "brylinski_n_6", "grid_two_fields", "grid_not_rational",
         "spectrum_grid_without_out",
         "relations_unknown_gens",
         "relations_missing_verify_file", "twining_weight_not_self_dual",
         "verify_unknown_variable", "verify_no_relations_key", "verify_top_level_list",
         "verify_bad_coefficient", "verify_negative_exponent", "verify_repeated_variable",
         "relations_repeated_gens",
         "max_degree_zero", "max_degree_negative", "out_is_a_directory",
         "cache_is_a_regular_file"],
)
def test_bad_input_is_a_usage_error(argv, message, tmp_path):
    # a JSON value at the end of argv is written to a file passed by its path
    if not isinstance(argv[-1], str):
        path = tmp_path / "relations.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    # {dir} names a directory and {file} a regular file, where a path to
    # write is expected
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    argv = [a.format(dir=tmp_path, file=plain) if a in ("{dir}", "{file}") else a for a in argv]
    proc = run(*argv, check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("bigalg: error: ") and message in last
    assert proc.stdout == ""


@pytest.mark.parametrize("copies", [1, 400], ids=["short", "long"])
def test_closed_stdout_ends_quietly(copies, tmp_path):
    # the reader is gone before the first write: a short output fails at the
    # final flush, a long one inside print
    path = tmp_path / "relations.json"
    path.write_text(json.dumps({"relations": [[{"monomials": [["c2", 1]], "coeff": "0"}]] * copies}))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            CLI + _verify(str(path)), stdout=write, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write)
    assert proc.returncode != 0
    assert proc.stderr == ""


def test_dimension_bound_spares_commands_without_a_module():
    payload = json.loads(
        run("qanalogue", "--n", "3", "--mu", "9,9", "--lambda", "0,0").stdout
    )
    assert payload["m"]


def test_rep_cache_round_trip(tmp_path):
    out = run("rep", "--n", "2", "--mu", "4", "--cache", str(tmp_path))
    first = json.loads(out.stdout)
    assert first["dim"] == 5
    assert os.listdir(tmp_path)
    again = json.loads(
        run("rep", "--n", "2", "--mu", "4", "--cache", str(tmp_path)).stdout
    )
    assert again == first


def test_corrupted_cache_entry_is_rebuilt(tmp_path):
    argv = ["rep", "--n", "3", "--mu", "1,1", "--cache", str(tmp_path)]
    first = run(*argv).stdout
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    good = path.read_text()
    obj = json.loads(good)
    words = obj["basis_words"]
    words[1], words[2] = words[2], words[1]
    path.write_text(json.dumps(obj, sort_keys=True))
    assert run(*argv).stdout == first
    assert path.read_text() == good


@pytest.mark.parametrize("bad", ["1/0", float("inf")], ids=["zero_denominator", "infinity"])
def test_unparsable_cache_entry_is_rebuilt(tmp_path, bad):
    # an entry with a letter that is no integer, the string "1/0" or the JSON
    # extension Infinity, is refused and written anew
    argv = ["rep", "--n", "2", "--mu", "2", "--cache", str(tmp_path)]
    first = run(*argv).stdout
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    good = path.read_text()
    obj = json.loads(good)
    obj["basis_words"][1][0] = bad
    path.write_text(json.dumps(obj, sort_keys=True))
    assert run(*argv).stdout == first
    assert path.read_text() == good


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


def _main(argv):
    """(exit code, stdout) of one in-process cli.main call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def test_twining_builds_each_map_once(monkeypatch):
    # the intertwiner is one flat_columns call, and sigma's signed
    # permutation is built once per algebra, however often it is read
    calls = {"flat_columns": 0, "_sigma": 0}
    for owner, name in ((twining, "flat_columns"), (lie.TypeA, "_sigma")):
        real = getattr(owner, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    code, out = _main(["twining", "--n", "3", "--mu", "1,1"])
    assert code == 0 and json.loads(out)["intertwiner_valid"] is True
    assert calls == {"flat_columns": 1, "_sigma": 1}


def test_main_runs_again_after_a_usage_error():
    good = ["qanalogue", "--n", "3", "--mu", "1,1", "--lambda", "0,0"]
    first = _main(good)
    assert first[0] == 0
    assert _main(["qanalogue", "--n", "3", "--mu", "1,1"]) == (2, "")
    assert _main(good) == first
    assert cli.build_parser() is cli.build_parser()


def _readme_commands():
    """The argv of each line of the README's bigalg command block."""
    blocks = re.findall(r"```\n(.*?)```", README.read_text(), re.S)
    (block,) = [b for b in blocks if b.startswith("bigalg rep")]
    # an optional flag in brackets is run with the flag
    lines = [line.split("#")[0].replace("[", "").replace("]", "") for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BIGALG_CACHE", raising=False)
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "rep", "ops", "hilbert", "relations", "qanalogue", "brylinski", "multalg",
        "spectrum", "twining",
    }
    for argv in commands:
        code, out = _main(argv)
        assert code == 0, argv
        # the derived relations are the file the --verify line reads
        if "--max-degree" in argv:
            (tmp_path / "relations.json").write_text(out)
        if "--verify" in argv:
            assert json.loads(out)["all_zero"] is True
        if argv[0] == "qanalogue":
            assert json.loads(out)["m"] == [[1, 1], [2, 1]]


def _perfbench_module(name):
    """A module of the benchmark, read from its file: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_command_matches_its_digest(tmp_path):
    # one fresh cache: the first command of each module builds and saves it,
    # the others load it
    gate = _perfbench_module("gate")
    workloads = _perfbench_module("workloads")
    table = gate.load_table()
    cache = str(tmp_path)
    commands = workloads.cli_all_commands()
    assert len(commands) == len(table["cli"]) == 91
    failed = []
    for argv in commands:
        code, out = _main(argv + ["--cache", cache])
        key = workloads.argv_key(argv)
        error = "exit code %s" % code if code else gate.check_cli(table, key, out, cache)
        if error:
            failed.append((key, error))
    assert not failed
