"""The bigalg benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload {battery,scale,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; bigalg is imported from ``src/``.
Each pass of the workload runs in a fresh process (``worker.py``) with one
caller issuing each task after the previous one returns.  Passes repeat
while the next one is expected to end within ``--seconds``; there is
always at least one.  Before the passes, a few set-up-only processes
measure the set-up time, which is reported as a median.

``--trace 0`` prints the end-to-end metrics of ``spec.END_TO_END``
(medians over passes).  Task latencies and ``wall_s`` are read from
``clock.SpeedClock``: seconds at a fixed reference speed, which cancels
most of the drift in processor speed on a shared machine.  ``setup_s`` is
plain wall time.  ``--trace 1`` runs one untraced pass and one pass
under ``tracer.Tracer`` and prints the per-layer metrics; the difference of
the two passes' wall times is ``trace.overhead_s``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the Python version, the coefficient backend and
the number of usable processors.  Temporary files live under
``.bench_tmp/`` in the checkout and are removed at exit.  The program gets
the environment of the caller minus ``BIGALG_CACHE``, with a fixed
``PYTHONHASHSEED`` so that traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def child_env(tmp):
    env = {k: v for k, v in os.environ.items() if k not in ("BIGALG_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


class Runner:
    def __init__(self, workload, seed, tmp, deadline):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env(tmp)
        self.count = 0

    def spawn(self, *flags):
        """Run one worker process; returns its result dict, or None if it failed."""
        self.count += 1
        out = os.path.join(self.tmp, "pass-%d.json" % self.count)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--t0", repr(t0), "--out", out, *flags]
        try:
            proc = subprocess.run(cmd, cwd=self.tmp, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            print("worker timed out: %s" % " ".join(flags), file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(proc.stderr[-4000:])
            print("worker failed with exit code %d" % proc.returncode, file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        res["process_s"] = time.monotonic() - t0
        return res


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def pass_metrics(res):
    """End-to-end figures of one untraced pass."""
    tasks = res["tasks"]
    warm = [t["latency_s"] for t in tasks if t["kind"] == "warm"]
    cold = [t["latency_s"] for t in tasks if t["kind"] == "cold"]
    return {
        "wall_s": res["wall_s"],
        "cmd_warm_p50_s": quantile(warm, 2),
        "cmd_warm_p75_s": quantile(warm, 3),
        "cmd_cold_p50_s": quantile(cold, 2),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def end_to_end(setups, passes, attempted, failed):
    figures = [pass_metrics(p) for p in passes]
    values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    values["setup_s"] = statistics.median(setups)
    values["ok_frac"] = (attempted - failed) / attempted
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in spec.END_TO_END.items()}


def per_layer(untraced, traced):
    snap = traced["trace"]
    metrics = {}
    for name in spec.per_layer_names():
        key, stat = name.rsplit(".", 1)
        if key == "trace":
            value = traced["wall_s"] - untraced["wall_s"]
        elif key.startswith("cli."):
            sub = key.split(".", 1)[1]
            lat = [t["latency_s"] for t in untraced["tasks"] if t["sub"] == sub]
            value = statistics.median(lat) if lat else 0
        else:
            value = tracer.layer_value(snap.get(key), stat)
        metrics[name] = {"value": value, "unit": spec.per_layer_unit(name)[0]}
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="bigalg benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bigalg", "__init__.py")):
        print("no bigalg sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    start = time.monotonic()
    tmp = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    runner = Runner(args.workload, args.seed, tmp, start + RUN_LIMIT_S)
    per_pass = workloads.task_count(args.workload, args.seed)
    attempted = failed = 0
    setups, passes = [], []
    env = traced = None
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                res = runner.spawn("--setup-only")
                if res is not None:
                    setups.append(res["setup_s"])
        while True:
            res = runner.spawn()
            attempted += per_pass
            if res is None:
                failed += per_pass
                break
            env = res["environment"]
            failed += sum(not t["ok"] for t in res["tasks"])
            passes.append(res)
            setups.append(res["setup_s"])
            elapsed = time.monotonic() - start
            if args.trace or elapsed + res["process_s"] > min(args.seconds, RUN_LIMIT_S / 1.5):
                break
        if args.trace and passes:
            traced = runner.spawn("--trace")
            attempted += per_pass
            if traced is None:
                failed += per_pass
            else:
                failed += sum(not t["ok"] for t in traced["tasks"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    for res in passes + ([traced] if traced else []):
        for t in res["tasks"]:
            if not t["ok"]:
                print("FAILED %s: %s" % (t["label"], t["error"]), file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes[0], traced) if passes and traced else {}
    else:
        metrics = end_to_end(setups, passes, attempted, failed) if passes else {}
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "raw_wall_s": [p["raw_wall_s"] for p in passes]}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
