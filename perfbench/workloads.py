"""Workload plans: the inputs each workload hands to bigalg, made from a seed.

This module does not import bigalg, so the plans can be made and checked
without running the program.  ``worker.py`` executes them.

- ``battery``: one cold ``run_all`` on a fresh Workspace.  The seed picks
  the battery seed among ``BATTERY_SEEDS``, whose results are recorded in
  ``digests.json``.
- ``scale``: ``build_irrep``, ``BigGenerators`` and ``hilbert_series`` on
  modules just past the battery, in an order the seed shuffles.
- ``cli``: an interactive session of ``bigalg.cli.main`` calls against a
  fresh cache directory.  The first command per module builds and writes
  the cache; the rest read it.  The seed draws, per module, the weight
  lambda used by ``qanalogue``/``brylinski``/``multalg`` from the module's
  dominant weights.
"""

from __future__ import annotations

import random

WORKLOADS = ("battery", "scale", "cli")

# run_all seeds whose per-criterion results digests.json records
BATTERY_SEEDS = tuple(range(8))

# (n, mu, dim, number of generators, run hilbert_series)
# On a 2-vCPU x86 VM at full speed the pass takes about 25 s.  Left out to
# keep a run well inside its time budget when the machine runs at half
# speed: sl3 (4,0) (about 8 s) and hilbert_series on sl4 (1,1,0) (about 20 s).
SCALE_MODULES = (
    (3, (2, 2), 27, 3, True),
    (4, (1, 1, 0), 20, 6, False),
)

# (n, mu, dominant weights of the module)
CLI_MODULES = (
    (2, (4,), ((0,), (2,), (4,))),
    (2, (6,), ((0,), (2,), (4,), (6,))),
    (3, (1, 1), ((0, 0), (1, 1))),
    (3, (3, 0), ((0, 0), (1, 1), (3, 0))),
    (3, (2, 1), ((0, 2), (1, 0), (2, 1))),
    (4, (0, 1, 0), ((0, 1, 0),)),
    (4, (1, 0, 1), ((0, 0, 0), (1, 0, 1))),
)

# hilbert here would alone take over a fifth of the session (the scale
# workload covers that kind of work); relations and spectrum here take about
# a tenth each and are left out to keep a run well inside its time budget
CLI_SKIP = frozenset({
    ("hilbert", 4, (1, 0, 1)),
    ("relations", 4, (1, 0, 1)),
    ("spectrum", 4, (1, 0, 1)),
})

CLI_LAMBDA_COMMANDS = ("qanalogue", "brylinski", "multalg")


def _weight(w):
    return ",".join(str(c) for c in w)


def is_sigma_invariant(mu):
    return tuple(reversed(mu)) == tuple(mu)


def _module_argv(sub, n, mu, *extra):
    return [sub, "--n", str(n), "--mu", _weight(mu), *extra]


def _fixed_commands(n, mu):
    """The commands of one module that do not take a lambda, in session order."""
    cmds = [
        _module_argv("rep", n, mu),
        _module_argv("ops", n, mu, "--list"),
        _module_argv("hilbert", n, mu),
        _module_argv("relations", n, mu),
        _module_argv("spectrum", n, mu, "--at-principal"),
    ]
    if is_sigma_invariant(mu):
        cmds.append(_module_argv("twining", n, mu))
    return [c for c in cmds if (c[0], n, tuple(mu)) not in CLI_SKIP]


def _lambda_commands(n, mu, lam):
    return [_module_argv(sub, n, mu, "--lambda", _weight(lam)) for sub in CLI_LAMBDA_COMMANDS]


def cli_session(seed):
    """[(kind, argv)] with kind "cold" (builds and saves the module),
    "warm" (reads the cache) or "nocache" (needs no module)."""
    rng = random.Random(seed)
    session = []
    for n, mu, dominant in CLI_MODULES:
        cmds = _fixed_commands(n, mu) + _lambda_commands(n, mu, rng.choice(dominant))
        for i, argv in enumerate(cmds):
            kind = "cold" if i == 0 else ("nocache" if argv[0] == "qanalogue" else "warm")
            session.append((kind, argv))
    return session


def cli_all_commands():
    """Every argv any seed can produce: the keys of the CLI digest table."""
    out = []
    for n, mu, dominant in CLI_MODULES:
        out += _fixed_commands(n, mu)
        for lam in dominant:
            out += _lambda_commands(n, mu, lam)
    return out


def argv_key(argv):
    return " ".join(argv)


def scale_plan(seed):
    """[(n, mu, dim, generators, run_hilbert)] in seed order."""
    plan = list(SCALE_MODULES)
    random.Random(seed).shuffle(plan)
    return plan


def battery_seed(seed):
    return BATTERY_SEEDS[seed % len(BATTERY_SEEDS)]


def task_count(workload, seed):
    """How many tasks one pass of the workload issues."""
    if workload == "battery":
        return 12
    if workload == "scale":
        return sum(3 if hilbert else 2 for *_, hilbert in scale_plan(seed))
    if workload == "cli":
        return len(cli_session(seed))
    raise ValueError("unknown workload %r" % workload)
