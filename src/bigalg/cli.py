"""Command-line front end: deterministic JSON/CSV outputs for every module."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lie
from .acceptance import run_all
from .bigalgebra import (
    BigGenerators,
    RelationRing,
    derive_relations,
    hilbert_series,
    substitute_relation,
)
from .multipoly import MultiPoly, rat
from .multiplicity import (
    algebra_structure_table,
    brylinski_filtration,
    lusztig_m,
    multiplicity_algebra,
)
from .reps import get_rep
from .spectra import emit_skeleton_points, principal_restriction, principal_spectrum
from .twining import (
    check_intertwiner,
    intertwiner,
    jantzen_trace,
    sigma_eigenvalues,
    sigma_on_invariants,
)


def parse_weight(text, n):
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != n - 1:
        raise SystemExit("weight needs %d comma-separated coordinates" % (n - 1))
    return parts


def _config(args, extra=()):
    keys = ["n", "mu", "lam", "seed", "cache", "max_degree"] + list(extra)
    return {k: getattr(args, k, None) for k in keys if getattr(args, k, None) is not None}


def emit(args, payload):
    payload = dict(payload)
    payload["config"] = _config(args)
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cache_dir(args):
    # an explicit flag wins over the environment variable
    return args.cache or os.environ.get("BIGALG_CACHE") or None


def _load(args):
    L = lie.TypeA(args.n)
    mu = parse_weight(args.mu, args.n)
    rep = get_rep(L, mu, cache_dir=_cache_dir(args))
    return L, mu, rep


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
        for nm, e in term["monomials"]:
            exps[ring.index[nm]] = e
        total = total + MultiPoly.monomial(ring, tuple(exps), rat(term["coeff"]))
    return total


def cmd_relations(args):
    _, mu, rep = _load(args)
    gens_all = BigGenerators(rep)
    if args.gens:
        labels = args.gens.split(",")
        gens = [gens_all.by_label[lab] for lab in labels]
    else:
        gens = gens_all.ops
    if args.verify:
        with open(args.verify, encoding="utf-8") as fh:
            payload = json.load(fh)
        rr = RelationRing(gens, args.n)
        report = []
        all_zero = True
        for obj in payload["relations"]:
            rel = _relation_from_obj(rr.ring, obj)
            val = substitute_relation(
                rel, {op.label: op for op in gens}, gens_all.ring, rep.dim
            )
            ok = val.is_zero()
            all_zero = all_zero and ok
            report.append({"relation": str(rel), "zero": ok})
        emit(args, {"verified": report, "all_zero": all_zero})
        return 0 if all_zero else 1
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
    lam = parse_weight(args.lam, args.n)
    filt = brylinski_filtration(rep, lam, torus=args.torus)
    rd = lie.RootData(args.n)
    m = lusztig_m(rd, mu, lam)
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
    rd = lie.RootData(args.n)
    mu = parse_weight(args.mu, args.n)
    lam = parse_weight(args.lam, args.n)
    m = lusztig_m(rd, mu, lam)
    emit(args, {"m": m.to_pairs_obj()})
    return 0


def cmd_multalg(args):
    _, mu, rep = _load(args)
    lam = parse_weight(args.lam, args.n)
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
            "structure": algebra_structure_table(ops, dim),
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
    a, b, steps = args.grid.split(":")
    if args.n == 2:
        skeleton = {
            "param": "c2",
            "ring": gens.ring,
            "ops": [(op.label, op.mat) for op in gens.ops],
        }
    elif args.n == 3:
        skeleton = principal_restriction(gens.ops, L, recipe="set_c3_zero")
    else:
        skeleton = principal_restriction(gens.ops, L)
    out_csv = args.out or "skeleton.csv"
    r = emit_skeleton_points(skeleton, (a, b, int(steps)), out_csv)
    print(
        json.dumps(
            {"csv": out_csv, "rows": r["rows"], "max_residual": r["max_residual"]},
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if out["all_pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bigalg",
        description="Exact workbench for commutative operator algebras of sl_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=True, lam=False):
        p.add_argument("--n", type=int, required=True, help="rank parameter of sl_n")
        if mu:
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
    common(p, lam=True)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
