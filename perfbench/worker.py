"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload cli --seed 3 --t0 <monotonic> --out pass.json [--trace] [--setup-only]

``run.py`` starts this with a clean environment and reads the JSON it
writes.  A single caller issues each task after the previous one returns
(a closed loop with one client).  Each task's output is checked inside the
timed region.  Task latencies and the wall time are read from
``clock.SpeedClock`` (seconds at a fixed reference speed); the raw wall
time is recorded beside them.  ``--t0`` is the parent's
``time.monotonic()`` just before the process was started, so set-up time,
which is plain wall time, includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import clock  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402


def _task(label, kind, sub, t0, t1, error):
    """A task record; t0 and t1 are perf_counter stamps, converted later."""
    return {"label": label, "kind": kind, "sub": sub, "t0": t0, "t1": t1,
            "ok": error is None, "error": error}


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# battery: one cold run_all; each criterion is a task
# ---------------------------------------------------------------------------


def prepare_battery(seed):
    from bigalg import acceptance

    bseed = workloads.battery_seed(seed)
    return {"seed": bseed, "ws": acceptance.Workspace(seed=bseed), "table": gate.load_table()}


def run_battery(ctx):
    from bigalg import acceptance

    ws, bseed, table = ctx["ws"], ctx["seed"], ctx["table"]
    tasks = []

    def timed(crit):
        def call(workspace):
            built = len(workspace._reps)  # modules the Workspace has built so far
            t0 = perf_counter()
            try:
                res = crit(workspace)
            except Exception as exc:
                error = _error_text(exc)
                raise
            else:
                error = gate.check_criterion(table, bseed, res)
                return res
            finally:
                kind = "cold" if len(workspace._reps) > built else "warm"
                tasks.append(_task(crit.__name__, kind, None, t0, perf_counter(), error))

        return call

    originals = list(acceptance.CRITERIA)
    if len(originals) != workloads.task_count("battery", 0):
        raise RuntimeError("the battery has %d criteria" % len(originals))
    acceptance.CRITERIA[:] = [timed(c) for c in originals]
    try:
        out = acceptance.run_all(seed=bseed, ws=ws)
        if out["seed"] != bseed or not out["all_pass"]:
            tasks[-1]["ok"] = False
            tasks[-1]["error"] = "run_all summary is wrong"
    except Exception:
        pass  # recorded on the failing task; the rest count as failed
    finally:
        acceptance.CRITERIA[:] = originals
    for crit in originals[len(tasks):]:
        tasks.append(_task(crit.__name__, "warm", None, 0.0, 0.0, "not run"))
    return tasks


# ---------------------------------------------------------------------------
# scale: build, generators and Hilbert series of modules past the battery
# ---------------------------------------------------------------------------


def prepare_scale(seed):
    return {"plan": workloads.scale_plan(seed)}


def run_scale(ctx):
    from bigalg import lie
    from bigalg.bigalgebra import BigGenerators, hilbert_series
    from bigalg.reps import build_irrep

    tasks = []

    def step(label, kind, fn):
        t0 = perf_counter()
        try:
            value, error = fn()
        except Exception as exc:
            value, error = None, _error_text(exc)
        tasks.append(_task(label, kind, None, t0, perf_counter(), error))
        return value

    for n, mu, dim, ngens, run_hilbert in ctx["plan"]:
        name = "sl%d%s" % (n, mu)

        def build():
            rep = build_irrep(lie.TypeA(n), mu)
            return rep, None if rep.dim == dim else "dim %d, expected %d" % (rep.dim, dim)

        rep = step("build_irrep " + name, "cold", build)
        if rep is None:
            continue

        def generators():
            gens = BigGenerators(rep)
            ok = len(gens.ops) == ngens
            return gens, None if ok else "%d generators, expected %d" % (len(gens.ops), ngens)

        gens = step("BigGenerators " + name, "warm", generators)
        if gens is None or not run_hilbert:
            continue

        def hilbert():
            h = hilbert_series(rep, gens.ops)
            ok = h["equal"] and h["dim_ok"] and h["dim"] == dim
            return h, None if ok else "Hilbert series check failed"

        step("hilbert_series " + name, "warm", hilbert)
    return tasks


# ---------------------------------------------------------------------------
# cli: an interactive session against a fresh cache directory
# ---------------------------------------------------------------------------


def prepare_cli(seed):
    return {
        "session": workloads.cli_session(seed),
        "cache": tempfile.mkdtemp(prefix="cache-"),
        "table": gate.load_table(),
    }


def run_cli(ctx):
    from bigalg import cli

    cache, table = ctx["cache"], ctx["table"]
    tasks = []
    try:
        for kind, argv in ctx["session"]:
            key = workloads.argv_key(argv)
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv + ["--cache", cache])
                if rc != 0:
                    error = "exit code %r" % rc
                else:
                    error = gate.check_cli(table, key, buf.getvalue(), cache)
            except SystemExit as exc:
                error = "exit %r" % exc.code
            except Exception as exc:
                error = _error_text(exc)
            tasks.append(_task(key, kind, argv[0], t0, perf_counter(), error))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return tasks


PREPARE = {"battery": prepare_battery, "scale": prepare_scale, "cli": prepare_cli}
RUN = {"battery": run_battery, "scale": run_scale, "cli": run_cli}


def environment():
    from bigalg import multipoly

    backend = type(multipoly.ZERO)
    return {
        "python": sys.version.split()[0],
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import tracer

    tracer.package_modules()  # import the whole package
    ctx = PREPARE[args.workload](args.seed)
    result = {"environment": environment()}
    if args.setup_only:
        result["setup_s"] = time.monotonic() - args.t0
    else:
        result["setup_s"] = time.monotonic() - args.t0
        speed = clock.SpeedClock().start()
        tr = tracer.Tracer(timer=speed.now).install() if args.trace else None
        t0 = perf_counter()
        try:
            tasks = RUN[args.workload](ctx)
        finally:
            t1 = perf_counter()
            speed.stop()
            if tr is not None:
                tr.uninstall()
        for t in tasks:
            t["latency_s"] = speed.reading(t["t1"]) - speed.reading(t["t0"])
        result.update(wall_s=speed.reading(t1) - speed.reading(t0), raw_wall_s=t1 - t0,
                      tasks=tasks)
        if tr is not None:
            result["trace"] = tr.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
