"""The full verification battery: every headline claim as one checkable item.

Each criterion function returns {"id", "name", "pass", "details"}; run_all
executes them in order and is shared by the test suite and the CLI's
verify-all subcommand.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from itertools import combinations

from .multipoly import MultiPoly, VarSet, rat
from .linalg import rank, same_span
from . import lie
from .reps import build_irrep, g_e_invariants
from .kirillov import wei_D
from .bigalgebra import (
    BigGenerators,
    derive_relations,
    freeness_and_rank_check,
    hilbert_series,
    ideal_graded_dims,
    relation_ring,
    verify_presentation,
)
from .multiplicity import (
    brylinski_filtration,
    e_limit,
    e_limit_filtration,
    lusztig_m,
    minuscule_quotient_check,
    multiplicity_algebra,
    quotient_chain_check,
)
from .spectra import (
    branch_multiset_at,
    decuplet_identities,
    emit_skeleton_points,
    octet_identities,
    principal_eigen_table,
    principal_restriction,
    verify_quantum_number_identities,
)
from .twining import (
    check_intertwiner,
    coinvariant_octet_report,
    intertwiner,
    jantzen_trace,
    sigma_eigenvalues,
    sigma_on_invariants,
)

BATTERY = (
    [(2, (k,)) for k in range(1, 7)]
    + [(3, m) for m in [(1, 0), (0, 1), (2, 0), (3, 0), (1, 1), (2, 1)]]
    + [(4, (1, 0, 0)), (4, (0, 1, 0))]
)


class Workspace:
    """Lazily built and memoized algebras, modules, and generator families."""

    def __init__(self, seed=0):
        self.seed = seed
        self._lie = {}
        self._reps = {}
        self._gens = {}

    def lie(self, n):
        if n not in self._lie:
            self._lie[n] = lie.TypeA(n)
        return self._lie[n]

    def rep(self, n, mu):
        key = (n, tuple(mu))
        if key not in self._reps:
            self._reps[key] = build_irrep(self.lie(n), mu)
        return self._reps[key]

    def gens(self, n, mu):
        key = (n, tuple(mu))
        if key not in self._gens:
            self._gens[key] = BigGenerators(self.rep(n, mu))
        return self._gens[key]

    def dominant_weights(self, n, mu):
        rep = self.rep(n, mu)
        return sorted(lam for lam in rep.weight_table if lie.is_dominant(lam))


# ---------------------------------------------------------------------------
# relation constructors (the published presentations, written once)
# ---------------------------------------------------------------------------


def sl2_product_relation(ring, n):
    """M1 (M1^2 + n^2 c2) ... down the even/odd ladder of squares."""
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    ks = range(n, 0, -2)
    rel = MultiPoly.const(ring, 1)
    for k in ks:
        if k == 0:
            continue
        rel = rel * (m1 * m1 + c2.scale(k * k))
    if n % 2 == 0:
        rel = rel * m1
    return rel


def sl3_standard_relation(ring):
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    c3 = MultiPoly.variable(ring, "c3")
    return m1**3 + c2 * m1 + c3


def decuplet_relations(ring):
    m1 = MultiPoly.variable(ring, "M1")
    m2 = MultiPoly.variable(ring, "M2")
    c2 = MultiPoly.variable(ring, "c2")
    c3 = MultiPoly.variable(ring, "c3")
    r1 = (
        m1**4
        - (m1 * m1 * m2).scale(6)
        + (m1 * m1 * c2).scale(4)
        - (m1 * c3).scale(18)
        + (m2 * m2).scale(3)
        - (m2 * c2).scale(6)
    )
    r2 = (
        m1**3 * m2
        + m1**3 * c2
        + (m1 * m1 * c3).scale(3)
        - (m1 * m2 * m2).scale(3)
        + m1 * m2 * c2
        + (m1 * c2 * c2).scale(4)
        - (m2 * c3).scale(9)
    )
    return [r1, r2]


def octet_big_relations(ring):
    m1 = MultiPoly.variable(ring, "M1")
    n1 = MultiPoly.variable(ring, "N1")
    c2 = MultiPoly.variable(ring, "c2")
    c3 = MultiPoly.variable(ring, "c3")
    r1 = (m1 * m1).scale(3) + n1 * n1 + c2.scale(12)
    r2 = m1**3 * n1 + c2 * m1 * n1 - (c3 * m1).scale(9)
    return [r1, r2]


def octet_medium_relations(ring):
    m1 = MultiPoly.variable(ring, "M1")
    m2 = MultiPoly.variable(ring, "M2")
    c2 = MultiPoly.variable(ring, "c2")
    c3 = MultiPoly.variable(ring, "c3")
    r1 = m1 * m1 * m2 + c2 * m2 + (c3 * m1).scale(3)
    r2 = m1**4 + (c2 * m1 * m1).scale(4) + (m2 * m2).scale(3)
    r3 = (
        (m1 * m2 * m2).scale(3)
        + (c3 * m2).scale(9)
        - c2 * m1**3
        - (c2 * c2 * m1).scale(4)
    )
    return [r1, r2, r3]


def sl2_rank1_relation():
    ring = VarSet(["M1", "c2"], [1, 2])
    return MultiPoly.variable(ring, "M1") ** 2 + MultiPoly.variable(ring, "c2")


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def criterion_1(ws):
    """sl_2 ladders: one new relation, the displayed product, nothing else."""
    details = {}
    ok = True
    for n in range(1, 7):
        rep = ws.rep(2, (n,))
        gens = [ws.gens(2, (n,)).by_label["M1"]]
        rels, info = derive_relations(rep, gens, n + 2)
        ring = relation_ring(gens, 2)
        expected = sl2_product_relation(ring, n)
        entry = {"new_by_degree": {row["degree"]: row["new_relations"] for row in info}}
        good = (
            len(rels) == 1
            and entry["new_by_degree"].get(n + 1) == 1
            and all(
                cnt == 0
                for d, cnt in entry["new_by_degree"].items()
                if d != n + 1
            )
        )
        if good:
            got = rels[0]
            lead = got.coeff(tuple(n + 1 if nm == "M1" else 0 for nm in ring.names))
            good = lead != 0 and got.scale(1 / lead) == expected
        entry["matches_product"] = good
        details["n=%d" % n] = entry
        ok = ok and good
    return {"id": 1, "name": "sl2 presentations", "pass": ok, "details": details}


def criterion_2(ws):
    rep = ws.rep(3, (1, 0))
    gens = [ws.gens(3, (1, 0)).by_label["M1"]]
    ring = relation_ring(gens, 3)
    rel = sl3_standard_relation(ring)
    rep_out = verify_presentation(rep, gens, [rel])
    return {
        "id": 2,
        "name": "sl3 standard Cayley-Hamilton",
        "pass": rep_out["all_zero"],
        "details": rep_out["relations"],
    }


def criterion_3(ws):
    rep = ws.rep(3, (3, 0))
    g = ws.gens(3, (3, 0))
    gens = [g.by_label["M1"], g.by_label["M2"]]
    ring = relation_ring(gens, 3)
    reference = decuplet_relations(ring)
    ver = verify_presentation(rep, gens, reference)
    derived, _ = derive_relations(rep, gens, 6)
    dims_reference = ideal_graded_dims(rep, gens, reference, 6)
    dims_derived = ideal_graded_dims(rep, gens, derived, 6)
    ok = ver["all_zero"] and dims_reference == dims_derived
    return {
        "id": 3,
        "name": "decuplet ideal",
        "pass": ok,
        "details": {
            "relations_zero": ver["all_zero"],
            "ideal_dims_reference": dims_reference,
            "ideal_dims_derived": dims_derived,
        },
    }


def criterion_4(ws):
    rep = ws.rep(3, (1, 1))
    g = ws.gens(3, (1, 1))
    big_gens = [g.by_label["M1"], g.by_label["N1"]]
    med_gens = [g.by_label["M1"], g.by_label["M2"]]
    ring_big = relation_ring(big_gens, 3)
    ring_med = relation_ring(med_gens, 3)
    ver_big = verify_presentation(rep, big_gens, octet_big_relations(ring_big))
    ver_med = verify_presentation(rep, med_gens, octet_medium_relations(ring_med))
    m1 = g.by_label["M1"].mat
    m2 = g.by_label["M2"].mat
    n1 = g.by_label["N1"].mat
    # the five relations leave one consistent sign for the product rule:
    # they force M2 = -(1/3) M1 N1 (the +1/3 variant contradicts the cubic)
    dictionary = (m1 * n1) * rat(-1, 3) == m2
    ok = ver_big["all_zero"] and ver_med["all_zero"] and dictionary
    return {
        "id": 4,
        "name": "octet ideals",
        "pass": ok,
        "details": {
            "big_zero": ver_big["all_zero"],
            "medium_zero": ver_med["all_zero"],
            "M2_equals_minus_third_M1N1": dictionary,
        },
    }


def criterion_5(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        gens = ws.gens(n, mu).ops
        h = hilbert_series(rep, gens)
        good = h["equal"] and h["dim_ok"] and h["stabilized"]
        details["sl%d %s" % (n, mu)] = {
            "numerator": h["numerator"].to_pairs_obj(),
            "equal": h["equal"],
            "dim_ok": h["dim_ok"],
        }
        ok = ok and good
    return {"id": 5, "name": "Hilbert series battery", "pass": ok, "details": details}


def criterion_6(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        for lam in ws.dominant_weights(n, mu):
            m = lusztig_m(mu, lam)
            j_std = brylinski_filtration(rep, lam, torus="standard")["jump"]
            j_he = brylinski_filtration(rep, lam, torus="h_plus_e")["jump"]
            good = (
                j_std == m
                and j_he == m
                and m.eval_at_one() == len(rep.weight_table[lam])
                and m.nonnegative()
            )
            details["sl%d %s lam=%s" % (n, mu, (lam,))] = {
                "m": m.to_pairs_obj(),
                "jump_standard": j_std.to_pairs_obj(),
                "jump_h_plus_e": j_he.to_pairs_obj(),
                "ok": good,
            }
            ok = ok and good
    return {
        "id": 6,
        "name": "Brylinski jump = q-multiplicity",
        "pass": ok,
        "details": details,
    }


def criterion_7(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        mu_min = lie.minuscule_min(mu)
        invariants = g_e_invariants(rep)
        inv_rank = rank(invariants)
        for lam in ws.dominant_weights(n, mu):
            try:
                limit = e_limit(rep, lam)
                agree = True
            except RuntimeError:
                agree = False
                limit = e_limit_filtration(rep, lam)
            contained = rank(invariants.hstack(limit)) == inv_rank
            entry = {"methods_agree": agree, "contained": contained}
            if lam == mu_min:
                entry["equals_invariants"] = (
                    limit.cols == invariants.cols and same_span(limit, invariants)
                )
            good = agree and contained and entry.get("equals_invariants", True)
            details["sl%d %s lam=%s" % (n, mu, (lam,))] = entry
            ok = ok and good
    return {"id": 7, "name": "limit agreement", "pass": ok, "details": details}


def criterion_8(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        gens = ws.gens(n, mu).ops
        mq = minuscule_quotient_check(rep, gens)
        good_rep = mq["dims_match"] and mq["ideal_annihilates_limit"]
        entry_rep = {"minuscule_quotient": mq}
        for lam in ws.dominant_weights(n, mu):
            ma = multiplicity_algebra(rep, gens, lam)
            m = lusztig_m(mu, lam)
            chain = quotient_chain_check(rep, gens, lam)
            good = (
                ma["hilbert"] == m
                and ma["dim"] == len(rep.weight_table[lam])
                and chain["contained"]
                and chain["factors"]
            )
            entry_rep["lam=%s" % (lam,)] = {
                "hilbert": ma["hilbert"].to_pairs_obj(),
                "matches_m": ma["hilbert"] == m,
                "dim": ma["dim"],
                "chain": {k: v for k, v in chain.items() if k != "mu_min"},
            }
            good_rep = good_rep and good
        details["sl%d %s" % (n, mu)] = entry_rep
        ok = ok and good_rep

    # the octet zero-weight algebra is the square-zero line
    g = ws.gens(3, (1, 1))
    ma = multiplicity_algebra(ws.rep(3, (1, 1)), g.ops, (0, 0))
    n1r = ma["restricted"]["N1"]
    octet_ok = (
        ma["dim"] == 2
        and not n1r.is_zero()
        and (n1r * n1r).is_zero()
        and ma["algebra_span_dim"] == 2
    )
    details["octet Q_0"] = {
        "dim": ma["dim"],
        "N1_nonzero_nilpotent": octet_ok,
    }
    ok = ok and octet_ok
    return {"id": 8, "name": "multiplicity algebras", "pass": ok, "details": details}


def criterion_9(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        g = ws.gens(n, mu)
        elems = [op.kirillov for op in g.ops]
        commuting = all(
            a.commutator(b).is_zero() for a, b in combinations(elems, 2)
        )
        mediums = [op.kirillov for op in g.ops if op.i == 1]
        square = elems[0] * elems[0]
        d1 = wei_D(rep, square)
        probes = [d1, wei_D(rep, d1)]
        # every medium generator is in elems: once the pairs commute, [m, e]
        # vanishes for each e in elems, and so does [m, ab] = [m, a] b +
        # a [m, b] for each product; only the derivation probes are left
        if not commuting:
            products = [square]
            if len(elems) > 1:
                products += [elems[0] * elems[1], elems[-1] * elems[0]]
            probes = elems + products + probes
        central = all(
            m.commutator(p).is_zero() for m in mediums for p in probes
        )
        fr = freeness_and_rank_check(rep, g.ops, seed=ws.seed)
        good = commuting and central and fr["ok"]
        details["sl%d %s" % (n, mu)] = {
            "pairwise_commute": commuting,
            "medium_central_on_probes": central,
            "points": [
                {k: p[k] for k in ("span_ok", "cyclic", "simple_spectrum")}
                for p in fr["points"]
            ],
            "fiber_cyclic": fr["fiber_cyclic"],
        }
        ok = ok and good
    return {
        "id": 9,
        "name": "commutativity and torus evidence",
        "pass": ok,
        "details": details,
    }


def criterion_10(ws):
    details = {}
    ok = True
    for n, mu in BATTERY:
        rep = ws.rep(n, mu)
        ps = principal_eigen_table(rep, ws.gens(n, mu).ops)
        details["sl%d %s" % (n, mu)] = {"injective": ps["injective"]}
        ok = ok and ps["injective"]
    dec = verify_quantum_number_identities(
        ws.rep(3, (3, 0)), ws.gens(3, (3, 0)).ops, decuplet_identities()
    )
    octo = verify_quantum_number_identities(
        ws.rep(3, (1, 1)), ws.gens(3, (1, 1)).ops, octet_identities()
    )
    details["decuplet identities"] = dec["all_zero"]
    details["octet identities"] = octo["all_zero"]
    ok = ok and dec["all_zero"] and octo["all_zero"]
    return {
        "id": 10,
        "name": "principal spectrum dictionary",
        "pass": ok,
        "details": details,
    }


def criterion_11(ws):
    rep = ws.rep(3, (1, 1))
    g = ws.gens(3, (1, 1))
    s = intertwiner(rep)
    s_ok = check_intertwiner(rep, s)
    eigs = sigma_eigenvalues(rep, g.ops)
    eig_ok = eigs == {"M1": 1, "M2": -1, "N1": -1}
    inv_parity = sigma_on_invariants(ws.lie(3))
    parity_ok = inv_parity == {2: 1, 3: -1}

    ring_big = relation_ring([g.by_label["M1"], g.by_label["N1"]], 3)
    ring_med = relation_ring([g.by_label["M1"], g.by_label["M2"]], 3)
    co = coinvariant_octet_report(
        octet_big_relations(ring_big) + octet_medium_relations(ring_med),
        sl2_rank1_relation(),
    )
    # independent rank-one algebra dimensions
    rep2 = ws.rep(2, (1,))
    gens2 = ws.gens(2, (1,)).ops
    _, info2 = derive_relations(rep2, gens2, 8)
    sl2_dims = {row["degree"]: row["algebra_dim"] for row in info2}
    sl2_dims[0] = 1
    hilb_ok = all(co["quotient_dims"][d] == sl2_dims[d] for d in range(0, 9))
    trace = jantzen_trace(rep)
    trace_ok = trace == 0  # dim of the zero weight space of the rank-one module

    ok = (
        s_ok
        and eig_ok
        and parity_ok
        and co["all_multiples_of_parabola"]
        and co["relation_matches"]
        and hilb_ok
        and trace_ok
    )
    return {
        "id": 11,
        "name": "twining instance",
        "pass": ok,
        "details": {
            "intertwiner": s_ok,
            "sigma_eigenvalues": eigs,
            "invariant_parity": inv_parity,
            "single_parabola": co["all_multiples_of_parabola"],
            "relation_matches": co["relation_matches"],
            "c2_dictionary_scale": str(co["dictionary_c2_scale"]),
            "hilbert_match": hilb_ok,
            "jantzen_trace": str(trace),
        },
    }


def criterion_12(ws):
    details = {}
    ok = True
    targets = [
        (2, (4,), "sl2_sym4"),
        (2, (5,), "sl2_sym5"),
        (3, (1, 0), "sl3_standard"),
        (3, (3, 0), "sl3_decuplet"),
        (3, (1, 1), "sl3_octet"),
    ]
    with tempfile.TemporaryDirectory() as out_dir:
        for n, mu, name in targets:
            skeleton = principal_restriction(ws.gens(n, mu).ops, ws.lie(n))
            path = os.path.join(out_dir, name + ".csv")
            r = emit_skeleton_points(skeleton, ("-4", "1", 10), path)
            good = r["max_residual"] < 1e-9
            details[name] = {"rows": r["rows"], "max_residual": r["max_residual"]}
            ok = ok and good

    skeleton = principal_restriction(ws.gens(2, (4,)).ops, ws.lie(2))
    branches = branch_multiset_at(skeleton, "-1", "M1")
    expected = [-4.0, -2.0, 0.0, 2.0, 4.0]
    multiset_ok = len(branches) == 5 and all(
        abs(a - b) < 1e-9 for a, b in zip(branches, expected)
    )
    details["sl2 n=4 branches at c2=-1"] = branches
    ok = ok and multiset_ok
    return {"id": 12, "name": "figure reproduction", "pass": ok, "details": details}


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(seed=0, verbose=False, ws=None):
    if ws is None:
        ws = Workspace(seed=seed)
    results = []
    for crit in CRITERIA:
        t0 = time.time()
        res = crit(ws)
        res["seconds"] = round(time.time() - t0, 3)
        results.append(res)
        if verbose:
            print(
                "criterion %2d %-34s %s  (%.2fs)"
                % (
                    res["id"],
                    res["name"],
                    "PASS" if res["pass"] else "FAIL",
                    res["seconds"],
                ),
                file=sys.stderr,
            )
    return {
        "seed": seed,
        "all_pass": all(r["pass"] for r in results),
        "results": results,
    }
