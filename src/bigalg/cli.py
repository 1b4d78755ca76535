"""Command-line front end: deterministic JSON/CSV outputs for every module."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import lie
from .acceptance import run_all
from .bigalgebra import (
    BigGenerators,
    derive_relations,
    hilbert_series,
    relation_ring,
    verify_presentation,
)
from .multipoly import MultiPoly, rat
from .multiplicity import (
    PARTITION_N_BOUND,
    algebra_structure_table,
    brylinski_filtration,
    lusztig_m,
    multiplicity_algebra,
)
from .reps import DIM_BOUND, get_rep
from .spectra import emit_skeleton_points, principal_restriction, principal_spectrum
from .twining import (
    check_intertwiner,
    intertwiner,
    is_sigma_invariant,
    jantzen_trace,
    sigma_eigenvalues,
    sigma_on_invariants,
)


def parse_weight(text, n):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("weight coordinates must be integers, got %r" % text) from None
    if len(parts) != n - 1:
        raise ValueError("weight needs %d comma-separated coordinates" % (n - 1))
    if any(c < 0 for c in parts):
        raise ValueError("weight must be dominant (no negative coordinate)")
    return parts


def parse_grid(text):
    """start:stop:steps as (Fraction, Fraction, int) with steps >= 0."""
    try:
        start, stop, steps = text.split(":")
        grid = Fraction(start), Fraction(stop), int(steps)
    except (ValueError, ZeroDivisionError):
        grid = None
    if grid is None or grid[2] < 0:
        raise ValueError(
            "expected start:stop:steps with rational start and stop and an "
            "integer steps >= 0, got %r" % text
        )
    return grid


class UsageError(Exception):
    """Bad input that only a built module reveals; reported like bad flags."""


def check_args(parser, args):
    """Reject bad flags before any work, as usage errors (exit 2)."""
    if getattr(args, "n", None) is None:
        return
    if args.n < 2:
        parser.error("--n must be at least 2")
    if args.command in ("qanalogue", "brylinski") and args.n > PARTITION_N_BOUND:
        parser.error("--n: %s needs n <= %d" % (args.command, PARTITION_N_BOUND))
    for flag, dest in (("--mu", "mu"), ("--lambda", "lam")):
        text = getattr(args, dest, None)
        if text is None:
            continue
        try:
            weight = parse_weight(text, args.n)
        except ValueError as exc:
            parser.error("%s: %s" % (flag, exc))
        if dest == "mu" and args.command == "twining" and not is_sigma_invariant(weight):
            parser.error("--mu: twining needs a weight equal to its reverse, got %s" % text)
        if dest == "mu" and args.builds_rep:
            dim = lie.weyl_dim(weight)
            if dim > DIM_BOUND:
                parser.error(
                    "--mu: module dimension %d exceeds the bound %d" % (dim, DIM_BOUND)
                )
    if args.command == "spectrum":
        try:
            parse_grid(args.grid)
        except ValueError as exc:
            parser.error("--grid: %s" % exc)
        if not args.at_principal and not args.out:
            parser.error("--out: spectrum needs --out for the skeleton CSV, or --at-principal")
    if args.command == "relations":
        if args.max_degree < 1:
            parser.error("--max-degree must be at least 1")
        labels = args.gens.split(",") if args.gens else []
        if len(set(labels)) != len(labels):
            parser.error("--gens: %s names a generator twice" % args.gens)


def _config(args):
    keys = ["n", "mu", "lam", "seed", "cache", "max_degree"]
    return {k: getattr(args, k, None) for k in keys if getattr(args, k, None) is not None}


def _write_out(path, text):
    """Write the --out file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError("--out: %s" % exc) from None


def emit(args, payload):
    payload = dict(payload)
    payload["config"] = _config(args)
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if getattr(args, "out", None):
        _write_out(args.out, text)
    print(text)


def _load(args):
    L = lie.TypeA(args.n)
    mu = parse_weight(args.mu, args.n)
    # an explicit flag wins over the environment variable
    source, cache_dir = "--cache", args.cache
    if not cache_dir:
        source, cache_dir = "BIGALG_CACHE", os.environ.get("BIGALG_CACHE") or None
    try:
        rep = get_rep(L, mu, cache_dir=cache_dir)
    except OSError as exc:
        raise UsageError("%s: %s" % (source, exc)) from None
    return L, mu, rep


def _module_weight(args, rep):
    """The --lambda weight, which must be a weight of the module."""
    lam = parse_weight(args.lam, args.n)
    if lam not in rep.weight_table:
        raise UsageError("--lambda: %s is not a weight of the module" % args.lam)
    return lam


def cmd_rep(args):
    _, mu, rep = _load(args)
    weights = sorted(rep.weight_table.items())
    emit(
        args,
        {
            "dim": rep.dim,
            "weights": [[list(w), len(idx)] for w, idx in weights],
            "basis_words": [list(w) for w in rep.words],
        },
    )
    return 0


def cmd_ops(args):
    _, mu, rep = _load(args)
    gens = BigGenerators(rep)
    payload = {"generators": gens.report()}
    if args.list:
        payload["anchors"] = {
            k: str(v) for k, v in gens.anchor_eigenvalues().items()
        }
    emit(args, payload)
    return 0


def cmd_hilbert(args):
    _, mu, rep = _load(args)
    gens = BigGenerators(rep)
    h = hilbert_series(rep, gens.ops)
    emit(
        args,
        {
            "numerator": h["numerator"].to_pairs_obj(),
            "fiber": h["fiber"].to_pairs_obj(),
            "equal": h["equal"],
            "dim": h["dim"],
            "dim_ok": h["dim_ok"],
            "pass": h["equal"] and h["dim_ok"] and h["stabilized"],
        },
    )
    return 0


def _relation_to_obj(rel):
    terms = []
    for exps, coeff in rel.sorted_terms():
        monomials = [
            [nm, e] for nm, e in zip(rel.ring.names, exps) if e
        ]
        terms.append({"monomials": monomials, "coeff": str(coeff)})
    return terms


def _relation_from_obj(ring, obj):
    total = MultiPoly.zero(ring)
    for term in obj:
        exps = [0] * len(ring.names)
        named = set()
        for nm, e in term["monomials"]:
            if nm not in ring.index:
                raise ValueError("unknown variable %r (not in %s)" % (nm, ",".join(ring.names)))
            if nm in named:
                raise ValueError("a term names %s twice" % nm)
            named.add(nm)
            exps[ring.index[nm]] = e
        total = total + MultiPoly.monomial(ring, tuple(exps), rat(term["coeff"]))
    return total


def _relations_from_payload(ring, payload):
    """The relations of a --verify file; a UsageError says what is malformed."""
    if not isinstance(payload, dict) or not isinstance(payload.get("relations"), list):
        raise UsageError('--verify: expected a JSON object with a "relations" list')
    rels = []
    for idx, obj in enumerate(payload["relations"]):
        try:
            rels.append(_relation_from_obj(ring, obj))
        except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            reason = "missing key %s" % exc if isinstance(exc, KeyError) else exc
            raise UsageError("--verify: relation %d: %s" % (idx, reason)) from None
    return rels


def cmd_relations(args):
    if args.verify:
        try:
            with open(args.verify, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError("--verify: %s" % exc) from None
    _, mu, rep = _load(args)
    gens_all = BigGenerators(rep)
    if args.gens:
        labels = args.gens.split(",")
        for lab in labels:
            if lab not in gens_all.by_label:
                raise UsageError(
                    "--gens: %s is not a generator of the module (%s)"
                    % (lab, ",".join(gens_all.by_label))
                )
        gens = [gens_all.by_label[lab] for lab in labels]
    else:
        gens = gens_all.ops
    if args.verify:
        rels = _relations_from_payload(relation_ring(gens, args.n), payload)
        ver = verify_presentation(rep, gens, rels)
        report = [{"relation": r["relation"], "zero": r["zero"]} for r in ver["relations"]]
        emit(args, {"verified": report, "all_zero": ver["all_zero"]})
        return 0 if ver["all_zero"] else 1
    rels, info = derive_relations(rep, gens, args.max_degree)
    emit(
        args,
        {
            "generators": [
                {"name": op.label, "degree": op.degree} for op in gens
            ],
            "relations": [_relation_to_obj(r) for r in rels],
            "by_degree": info,
        },
    )
    return 0


def cmd_brylinski(args):
    _, mu, rep = _load(args)
    lam = _module_weight(args, rep)
    filt = brylinski_filtration(rep, lam, torus=args.torus)
    m = lusztig_m(mu, lam)
    emit(
        args,
        {
            "filtration_dims": filt["dims"],
            "jump": filt["jump"].to_pairs_obj(),
            "m": m.to_pairs_obj(),
            "match": filt["jump"] == m,
        },
    )
    return 0


def cmd_qanalogue(args):
    mu = parse_weight(args.mu, args.n)
    lam = parse_weight(args.lam, args.n)
    m = lusztig_m(mu, lam)
    emit(args, {"m": m.to_pairs_obj()})
    return 0


def cmd_multalg(args):
    _, mu, rep = _load(args)
    lam = _module_weight(args, rep)
    gens = BigGenerators(rep)
    ma = multiplicity_algebra(rep, gens.ops, lam)
    # structure constants on the graded operator basis
    ops = ma["restricted"]
    dim = ma["dim"]
    nilpotency = {}
    for lab, m in ops.items():
        power = m
        idx = 1
        while idx <= dim and not power.is_zero():
            power = power * m
            idx += 1
        nilpotency[lab] = idx if power.is_zero() else None
    emit(
        args,
        {
            "dim": ma["dim"],
            "graded_dims": {str(k): v for k, v in sorted(ma["graded"].items())},
            "hilbert": ma["hilbert"].to_pairs_obj(),
            "nilpotency_index": nilpotency,
            "operators": {lab: m.to_obj() for lab, m in ops.items()},
            "structure": algebra_structure_table(ma["algebra_basis"]),
        },
    )
    return 0


def cmd_spectrum(args):
    L, mu, rep = _load(args)
    gens = BigGenerators(rep)
    if args.at_principal:
        ps = principal_spectrum(rep, gens.ops)
        emit(
            args,
            {
                "point": [str(c) for c in ps["point"]],
                "medium_labels": ps["medium_labels"],
                "weights": [
                    [list(w), [str(x) for x in t]]
                    for w, t in sorted(ps["eigen_table"].items())
                ],
                "injective": ps["injective"],
                "unsplit_blocks": [
                    {"dim": basis.cols, "labels": [str(l) for l in labels]}
                    for basis, labels in ps["unsplit_blocks"]
                ],
            },
        )
        return 0
    grid = parse_grid(args.grid)
    skeleton = principal_restriction(gens.ops, L)
    try:
        r = emit_skeleton_points(skeleton, grid, args.out)
    except OSError as exc:
        raise UsageError("--out: %s" % exc) from None
    print(
        json.dumps(
            {"csv": args.out, "rows": r["rows"], "max_residual": r["max_residual"]},
            sort_keys=True,
        )
    )
    return 0


def cmd_twining(args):
    _, mu, rep = _load(args)
    gens = BigGenerators(rep)
    s = intertwiner(rep)
    emit(
        args,
        {
            "intertwiner_valid": check_intertwiner(rep, s),
            "sigma_on_generators": sigma_eigenvalues(rep, gens.ops),
            "sigma_on_invariants": {
                str(k): v for k, v in sigma_on_invariants(rep.L).items()
            },
            "trace_on_zero_weight": str(jantzen_trace(rep)),
        },
    )
    return 0


def cmd_verify_all(args):
    out = run_all(seed=args.seed, verbose=True)
    payload = {
        "all_pass": out["all_pass"],
        "seed": out["seed"],
        "criteria": [
            {
                "id": r["id"],
                "name": r["name"],
                "pass": r["pass"],
                "seconds": r["seconds"],
            }
            for r in out["results"]
        ],
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        _write_out(args.out, text)
    print(text)
    return 0 if out["all_pass"] else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bigalg",
        description="Exact workbench for commutative operator algebras of sl_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam=False, builds_rep=True):
        p.set_defaults(builds_rep=builds_rep)
        p.add_argument("--n", type=int, required=True, help="rank parameter of sl_n")
        p.add_argument("--mu", required=True, help="highest weight, e.g. 1,1")
        if lam:
            p.add_argument(
                "--lambda", dest="lam", required=True, help="weight, e.g. 0,0"
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cache", default=None, help="module cache directory")
        p.add_argument("--out", default=None, help="write JSON/CSV here too")

    p = sub.add_parser("rep", help="build a module and print its weights")
    common(p)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("ops", help="generator degrees and calibration scalars")
    common(p)
    p.add_argument("--list", action="store_true", help="include anchor eigenvalues")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("hilbert", help="fiber vs closed-formula Hilbert series")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("relations", help="derive or verify presentations")
    common(p)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=6)
    p.add_argument("--verify", default=None, help="relation JSON to check")
    p.add_argument("--gens", default=None, help="comma list of generator labels")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("brylinski", help="nilpotent filtration jump polynomial")
    common(p, lam=True)
    p.add_argument(
        "--torus", choices=["standard", "h_plus_e"], default="standard"
    )
    p.set_defaults(func=cmd_brylinski)

    p = sub.add_parser("qanalogue", help="alternating Weyl sum of P_q")
    common(p, lam=True, builds_rep=False)
    p.set_defaults(func=cmd_qanalogue)

    p = sub.add_parser("multalg", help="multiplicity algebra of a weight")
    common(p, lam=True)
    p.set_defaults(func=cmd_multalg)

    p = sub.add_parser("spectrum", help="principal spectrum or skeleton CSV")
    common(p)
    p.add_argument("--at-principal", action="store_true")
    p.add_argument("--grid", default="-4:1:10", help="start:stop:steps")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("twining", help="outer involution on the generators")
    common(p)
    p.set_defaults(func=cmd_twining)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    check_args(parser, args)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at interpreter exit fails no second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
