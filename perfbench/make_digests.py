"""Write digests.json: the reference outputs the benchmark checks against.

    PYTHONHASHSEED=0 python3 perfbench/make_digests.py

Run it on the commit that defines the reference outputs, never to make a
failing check pass.  Every CLI command any seed can issue is run twice,
against an empty cache and then against the filled one; the two outputs
must be byte-equal.  Every battery seed is run once.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def _run_cli(argv, cache):
    from bigalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--cache", cache])
    if rc != 0:
        raise RuntimeError("%s exited with %r" % (argv, rc))
    return gate.cli_digest(buf.getvalue(), cache)


def cli_digests():
    out = {}
    for argv in workloads.cli_all_commands():
        cache = tempfile.mkdtemp(prefix="digest-cache-")
        try:
            cold = _run_cli(argv, cache)
            warm = _run_cli(argv, cache)
        finally:
            shutil.rmtree(cache)
        if cold != warm:
            raise RuntimeError("cold and warm outputs differ for %s" % argv)
        out[workloads.argv_key(argv)] = cold
        print("cli", workloads.argv_key(argv), file=sys.stderr)
    return out


def battery_digests():
    from bigalg.acceptance import run_all

    out = {}
    for seed in workloads.BATTERY_SEEDS:
        res = run_all(seed=seed)
        if not res["all_pass"]:
            raise RuntimeError("battery seed %d does not pass" % seed)
        out[str(seed)] = {str(r["id"]): gate.criterion_digest(r) for r in res["results"]}
        print("battery seed", seed, file=sys.stderr)
    return out


def main():
    table = {"cli": cli_digests(), "battery": battery_digests()}
    with open(gate.TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
