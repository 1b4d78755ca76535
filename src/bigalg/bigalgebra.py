"""Section restriction, calibration, Hilbert series, and relation search.

Operators restricted to the companion section become matrices over
Q[c_2..c_n], weighted-graded by deg c_k = k and deg B_{i,k-i} = k - i.
Relation hunting is degree-truncated linear algebra over a monomial basis;
no Groebner machinery appears anywhere.
"""

from __future__ import annotations

import random
from itertools import combinations

from .multipoly import MultiPoly, VarSet, rat, ZERO, ONE
from .linalg import (
    Echelon,
    QMatrix,
    charpoly,
    is_squarefree,
    kernel,
)
from .polymatrix import PolyMatrix
from .qpoly import QPoly, geometric_quotient
from . import lie
from .kirillov import big_operator


class SectionOperator:
    """A generator restricted to the Kostant section, with its grading data."""

    __slots__ = ("label", "i", "k", "mat", "degree", "scalar", "kirillov")

    def __init__(self, label, i, k, mat, scalar, kirillov):
        self.label = label
        self.i = i
        self.k = k
        self.mat = mat
        self.degree = k - i
        self.scalar = scalar
        self.kirillov = kirillov

    def evaluate(self, cvals):
        ring = self.mat.ring
        values = {nm: v for nm, v in zip(ring.names, cvals)}
        return self.mat.evaluate(values)

    def report(self):
        return {
            "label": self.label,
            "i": self.i,
            "k": self.k,
            "degree": self.degree,
            "scalar": str(self.scalar),
        }


def restrict_to_section(elem, coords_c, ring_c):
    """Substitute the companion-section coordinates into an operator."""
    L = elem.rep.L
    mapping = {"x%d" % i: coords_c[i] for i in range(L.dim)}
    return elem.mat.subs(ring_c, mapping)


class BigGenerators:
    """The calibrated generator family of one representation."""

    def __init__(self, rep):
        self.rep = rep
        L = rep.L
        n = L.n
        self.ring, self._section_coords = lie.section_coords(L)
        self.ops = []
        self.by_label = {}
        raw = {}
        for k in range(2, n + 1):
            for i in range(1, k):
                elem = big_operator(rep, i, k)
                mat_c = restrict_to_section(elem, self._section_coords, self.ring)
                raw[(i, k)] = (elem, mat_c)

        # medium operators: D(c_k * Id) carries the universal factor -1/(4n)
        medium_scalar = rat(-4 * n)
        for k in range(2, n + 1):
            elem, mat_c = raw[(1, k)]
            self._append(
                SectionOperator(
                    "M%d" % (k - 1),
                    1,
                    k,
                    mat_c * medium_scalar,
                    medium_scalar,
                    elem.scale(medium_scalar),
                )
            )
        for k in range(2, n + 1):
            for i in range(2, k):
                elem, mat_c = raw[(i, k)]
                label = "N1" if (n == 3 and (i, k) == (2, 3)) else "B%d_%d" % (i, k - i)
                scalar = ONE
                if n == 3 and (i, k) == (2, 3):
                    s = self._octet_n1_scalar(mat_c)
                    if s is not None:
                        scalar = s
                self._append(
                    SectionOperator(label, i, k, mat_c * scalar, scalar, elem.scale(scalar))
                )

    def _append(self, op):
        self.ops.append(op)
        self.by_label[op.label] = op

    def _octet_n1_scalar(self, g_mat):
        """Normalize D^2(c_3) so 3*M1^2 + N1^2 + 12*c2 vanishes, when it can.

        The square of the scalar comes from the quadratic relation; its sign
        is pinned by the companion cubic relation
        M1^3*N1 + c2*M1*N1 - 9*c3*M1 = 0.  With that sign the medium
        generator satisfies M2 = -(1/3)*M1*N1 (checked downstream).  Returns
        None when the quadratic does not close; the operator then keeps
        scalar one.
        """
        ring = self.ring
        m1 = self.by_label["M1"].mat
        c2 = MultiPoly.variable(ring, "c2")
        c3 = MultiPoly.variable(ring, "c3")
        target = -(m1 * m1 * 3 + PolyMatrix.scalar(ring, m1.rows, c2.scale(12)))
        gsq = g_mat * g_mat
        probe = gsq.first_nonzero()
        if probe is None:
            return None
        i, j, p = probe
        t = target.a[i][j]
        # candidate ratio from one matching monomial
        key = next(iter(p.terms))
        if key not in t.terms:
            return None
        ratio = t.terms[key] / p.terms[key]
        if gsq * ratio != target:
            return None
        num, den = ratio.numerator, ratio.denominator
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        s = rat(rn, rd)
        m1cube = m1 * m1 * m1
        for cand in (s, -s):
            n1 = g_mat * cand
            cubic = m1cube * n1 + (m1 * n1) * c2 - (m1 * c3) * 9
            if cubic.is_zero():
                return cand
        return None

    # ---------- principal-point anchors ----------

    def principal_data(self):
        """Companion point conjugate to h, with the transported weight frame."""
        L = self.rep.L
        cvals = lie.principal_point(L)
        a0 = lie.companion_point(L.n, cvals)
        eigs = [L.h.a[i][i] for i in range(L.n)]
        s = rational_diagonalizer(a0, eigs)
        transport = self.rep.gl_transport(s)
        return cvals, a0, transport

    def anchor_eigenvalues(self):
        """Eigenvalue of each generator on the transported highest-weight line."""
        cvals, _, transport = self.principal_data()
        hw = transport.col(0)  # basis vector 0 is the highest-weight vector
        out = {}
        for op in self.ops:
            val = op.evaluate(cvals)
            out[op.label] = _eigenvalue_on_line(val, hw)
        return out

    def report(self):
        return [op.report() for op in self.ops]


def _eigenvalue_on_line(mat, vec):
    image = mat.mul_vec(vec)
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is None:
        raise ValueError("zero vector")
    t = image[pivot] / vec[pivot]
    if any(x != t * y for x, y in zip(image, vec)):
        raise ValueError("vector is not an eigenvector")
    return t


def _isqrt_exact(m):
    m = int(m)
    if m < 0:
        return None
    r = int(m**0.5)
    for cand in (r - 1, r, r + 1, r + 2):
        if cand >= 0 and cand * cand == m:
            return cand
    return None


def rational_diagonalizer(m, eigs):
    """Columns are eigenvectors of m in the order of the given eigenvalues."""
    cols = []
    for a in eigs:
        vecs = kernel(m - QMatrix.identity(m.rows) * a)
        if len(vecs) != 1:
            raise ValueError("eigenvalue %s is not simple" % a)
        v = vecs[0]
        for x in v:
            if x:
                v = [y / x for y in v]
                break
        cols.append(v)
    return QMatrix.from_cols(cols, rows=m.rows)


# ---------------------------------------------------------------------------
# Hilbert series: fiber at the nilpotent point vs the closed product formula
# ---------------------------------------------------------------------------


def root_pairing_exponents(L, mu):
    rd = lie.RootData(L.n)
    numer = []
    denom = []
    for ij in rd.positive:
        numer.append(rd.pairing_root(tuple(m + 1 for m in mu), ij))
        denom.append(rd.pairing_root(rd.rho, ij))
    return numer, denom


def closed_numerator(L, mu):
    numer, denom = root_pairing_exponents(L, mu)
    return geometric_quotient(numer, denom)


def _flatten(mat):
    return [x for row in mat.a for x in row]


def _ad_grade(rep, mat):
    """Grade of a fiber operator from its ad-weight; None for mixed weights."""
    rd = lie.RootData(rep.L.n)
    wts = [rd.h_pairing(w) for w in rep.weights]
    grades = set()
    for i in range(rep.dim):
        for j in range(rep.dim):
            if mat.a[i][j]:
                delta = wts[i] - wts[j]
                if delta % 2:
                    return None
                grades.add(-delta // 2)
    if not grades:
        return 0
    return grades.pop() if len(grades) == 1 else None


def _monomial_values(ops0, max_degree, dim):
    """Values of all generator monomials, grouped by weighted degree."""
    degrees = ops0["degrees"]
    mats = ops0["mats"]
    cache = {(0,) * len(mats): QMatrix.identity(dim)}
    by_degree = {0: [((0,) * len(mats), cache[(0,) * len(mats)])]}
    for d in range(1, max_degree + 1):
        entries = []
        seen = set()
        for gi, gdeg in enumerate(degrees):
            d0 = d - gdeg
            if d0 < 0 or d0 not in by_degree:
                continue
            for exps, val in by_degree[d0]:
                new = list(exps)
                new[gi] += 1
                new = tuple(new)
                if new in seen:
                    continue
                seen.add(new)
                nv = val * mats[gi]
                cache[new] = nv
                entries.append((new, nv))
        by_degree[d] = entries
    return by_degree


def hilbert_series(rep, gens, max_extra=1):
    """Compare fiber-at-nilpotent graded dimensions with the closed formula.

    Returns a report dict; 'equal' is the headline boolean.  A failure of the
    fiber span to reach the predicted dimensions signals a generation failure.
    """
    L = rep.L
    mu = rep.mu
    closed = closed_numerator(L, mu)
    dmax = closed.max_exp() or 0

    zeros = [0] * (L.n - 1)
    mats = [op.evaluate(zeros) for op in gens]
    degrees = [op.degree for op in gens]
    for op, m in zip(gens, mats):
        if m.is_zero():
            continue
        g = _ad_grade(rep, m)
        if g != op.degree:
            raise ValueError("fiber value of %s has unexpected grade" % op.label)

    by_degree = _monomial_values(
        {"mats": mats, "degrees": degrees}, dmax + max_extra, rep.dim
    )
    fiber_dims = []
    for d in range(dmax + max_extra + 1):
        ech = Echelon()
        for _, val in by_degree.get(d, []):
            if not val.is_zero():
                ech.add(_flatten(val))
        fiber_dims.append(ech.dim)

    closed_dims = [closed.coeffs.get(d, 0) for d in range(dmax + 1)]
    fiber_poly = QPoly({d: c for d, c in enumerate(fiber_dims) if c})
    equal = fiber_poly == closed
    return {
        "numerator": closed,
        "fiber": fiber_poly,
        "equal": equal,
        "dim": rep.dim,
        "dim_ok": closed.eval_at_one() == rep.dim,
        "stabilized": all(c == 0 for c in fiber_dims[dmax + 1:]),
        "closed_dims": closed_dims,
    }


# ---------------------------------------------------------------------------
# relation search by degree-truncated linear algebra
# ---------------------------------------------------------------------------


class RelationRing:
    """Polynomial ring on generator labels and the invariants c_k."""

    def __init__(self, gens, n):
        self.gen_labels = [op.label for op in gens]
        self.c_names = ["c%d" % k for k in range(2, n + 1)]
        self.ring = VarSet(self.gen_labels + self.c_names)
        self.weights = {}
        for op in gens:
            self.weights[op.label] = op.degree
        for k in range(2, n + 1):
            self.weights["c%d" % k] = k
        self.weight_vec = [self.weights[nm] for nm in self.ring.names]

    def monomials_of_degree(self, d):
        """Exponent tuples of weighted degree d, deterministic order."""
        out = []
        nvars = len(self.ring.names)

        def rec(i, remaining, acc):
            if i == nvars:
                if remaining == 0:
                    out.append(tuple(acc))
                return
            w = self.weight_vec[i]
            top = remaining // w if w else 0
            for e in range(top, -1, -1):
                rec(i + 1, remaining - e * w, acc + [e])

        rec(0, d, [])
        return out

    def monomial_poly(self, exps, coeff=1):
        return MultiPoly.monomial(self.ring, exps, coeff)


def _evaluate_monomial(names, exps, gen_mats, c_polys, cache):
    """Value of a relation-ring monomial as a PolyMatrix over Q[c]."""
    if exps in cache:
        return cache[exps]
    # peel the first positive exponent
    i = next(i for i, e in enumerate(exps) if e)
    prev = list(exps)
    prev[i] -= 1
    prev_val = _evaluate_monomial(names, tuple(prev), gen_mats, c_polys, cache)
    nm = names[i]
    if nm in gen_mats:
        val = prev_val * gen_mats[nm]
    else:
        val = prev_val * c_polys[nm]
    cache[exps] = val
    return val


def substitute_relation(rel, gens_by_label, ring_c, dim):
    """Evaluate a relation-ring polynomial on the section operators."""
    gen_mats = {lab: op.mat for lab, op in gens_by_label.items()}
    c_polys = {nm: MultiPoly.variable(ring_c, nm) for nm in ring_c.names}
    rr_ring = rel.ring
    cache = {(0,) * len(rr_ring.names): PolyMatrix.identity(ring_c, dim)}
    total = PolyMatrix.zeros(ring_c, dim, dim)
    for key, coeff in rel.terms.items():
        exps = rr_ring.unpack(key)
        val = _evaluate_monomial(rr_ring.names, exps, gen_mats, c_polys, cache)
        total = total + val * coeff
    return total


def _monomial_vector_index(val, coord_index):
    """Sparse coordinates of a PolyMatrix over (entry, c-monomial) pairs."""
    coords = {}
    for i in range(val.rows):
        for j in range(val.cols):
            for key, c in val.a[i][j].terms.items():
                coords[(i, j, key)] = c
                if (i, j, key) not in coord_index:
                    coord_index[(i, j, key)] = len(coord_index)
    return coords


def derive_relations(rep, gens, max_degree):
    """Minimal new relations among generator monomials, degree by degree.

    Returns (relations, info) where relations are polynomials in the labels
    and the c_k, and info records per-degree monomial counts, kernel sizes,
    and algebra dimensions.
    """
    for a, b in combinations(gens, 2):
        if not a.mat.commutator(b.mat).is_zero():
            raise ValueError("generators do not commute")
    L = rep.L
    rr = RelationRing(gens, L.n)
    ring_c = gens[0].mat.ring
    gen_mats = {op.label: op.mat for op in gens}
    c_polys = {nm: MultiPoly.variable(ring_c, nm) for nm in ring_c.names}
    cache = {(0,) * len(rr.ring.names): PolyMatrix.identity(ring_c, rep.dim)}

    relations = []
    info = []
    for d in range(1, max_degree + 1):
        monos = rr.monomials_of_degree(d)
        coord_index = {}
        vectors = []
        for exps in monos:
            val = _evaluate_monomial(rr.ring.names, exps, gen_mats, c_polys, cache)
            vectors.append(_monomial_vector_index(val, coord_index))
        ncoords = len(coord_index)
        mat = QMatrix.zeros(ncoords, len(monos))
        for cidx, coords in enumerate(vectors):
            for key, c in coords.items():
                mat.a[coord_index[key]][cidx] = c
        kern = kernel(mat) if ncoords else [
            [ONE if i == j else ZERO for i in range(len(monos))]
            for j in range(len(monos))
        ]

        # span of lower-degree relations times complementary monomials
        mono_index = {m: i for i, m in enumerate(monos)}
        old_span = Echelon()
        for rel, rel_deg in relations:
            for mult in rr.monomials_of_degree(d - rel_deg):
                prod = rel * rr.monomial_poly(mult)
                vec = [ZERO] * len(monos)
                for key, c in prod.terms.items():
                    vec[mono_index[rr.ring.unpack(key)]] = c
                old_span.add(vec)

        new_here = []
        for v in kern:
            if old_span.add(v):
                poly = MultiPoly.zero(rr.ring)
                for c, m in zip(v, monos):
                    if c:
                        poly = poly + rr.monomial_poly(m, c)
                relations.append((poly, d))
                new_here.append(poly)
        info.append(
            {
                "degree": d,
                "monomials": len(monos),
                "kernel": len(kern),
                "algebra_dim": len(monos) - len(kern),
                "new_relations": len(new_here),
            }
        )
    return [r for r, _ in relations], info


def ideal_graded_dims(rep, gens, relations, max_degree):
    """Dimensions of the span {monomial * relation} per weighted degree."""
    L = rep.L
    rr = RelationRing(gens, L.n)
    weights = rr.weights
    rels = []
    for rel in relations:
        if rel.ring != rr.ring:
            # re-express in this ring (labels must match)
            mapping = {
                nm: MultiPoly.variable(rr.ring, nm) for nm in rel.ring.names
            }
            rel = rel.subs(rr.ring, mapping)
        rels.append((rel, rel.weighted_degree(weights)))
    dims = {}
    for d in range(1, max_degree + 1):
        monos = rr.monomials_of_degree(d)
        mono_index = {m: i for i, m in enumerate(monos)}
        ech = Echelon()
        for rel, rel_deg in rels:
            if rel_deg > d:
                continue
            for mult in rr.monomials_of_degree(d - rel_deg):
                prod = rel * rr.monomial_poly(mult)
                vec = [ZERO] * len(monos)
                for key, c in prod.terms.items():
                    vec[mono_index[rr.ring.unpack(key)]] = c
                ech.add(vec)
        dims[d] = ech.dim
    return dims


def kernel_dims(rep, gens, max_degree):
    """Dimension of all evaluated relations per degree (no minimality)."""
    _, info = derive_relations(rep, gens, max_degree)
    return {row["degree"]: row["kernel"] for row in info}, info


def verify_presentation(rep, gens, relations, max_degree=None):
    """Substitute calibrated operators into relations; check Hilbert agreement.

    relations: list of MultiPoly over a RelationRing-compatible ring.
    """
    ring_c = gens[0].mat.ring
    by_label = {op.label: op for op in gens}
    report = {"relations": [], "all_zero": True}
    for rel in relations:
        val = substitute_relation(rel, by_label, ring_c, rep.dim)
        ok = val.is_zero()
        entry = {"relation": str(rel), "zero": ok}
        if not ok:
            i, j, p = val.first_nonzero()
            entry["first_nonzero"] = {"row": i, "col": j, "value": str(p)}
            report["all_zero"] = False
        report["relations"].append(entry)
    if max_degree is not None:
        ideal = ideal_graded_dims(rep, gens, relations, max_degree)
        kdims, info = kernel_dims(rep, gens, max_degree)
        report["hilbert_consistent"] = all(
            ideal[d] == kdims[d] for d in range(1, max_degree + 1)
        )
        report["ideal_dims"] = ideal
        report["kernel_dims"] = kdims
        report["algebra_dims"] = {
            row["degree"]: row["algebra_dim"] for row in info
        }
    return report


# ---------------------------------------------------------------------------
# freeness, cyclicity, and simple-spectrum probes at random section points
# ---------------------------------------------------------------------------


def random_c_point(rng, n):
    pool = [x for x in range(-9, 10) if x]
    return [rng.choice(pool) for _ in range(n - 1)]


def _algebra_span_at_point(mats, dim):
    """Span of the unital algebra generated by commuting matrices."""
    ech = Echelon()
    basis = [QMatrix.identity(dim)]
    ech.add(_flatten(basis[0]))
    frontier = list(basis)
    while frontier:
        new_frontier = []
        for b in frontier:
            for g in mats:
                cand = b * g
                if ech.add(_flatten(cand)):
                    new_frontier.append(cand)
        frontier = new_frontier
    return ech


def _orbit_span(mats, vec):
    ech = Echelon()
    ech.add(vec)
    frontier = [vec]
    while frontier:
        new_frontier = []
        for v in frontier:
            for g in mats:
                cand = g.mul_vec(v)
                if ech.add(cand):
                    new_frontier.append(cand)
        frontier = new_frontier
    return ech


def freeness_and_rank_check(rep, gens, seed=0, npoints=3):
    """Span, cyclicity, and simple-spectrum evidence at seeded random points."""
    rng = random.Random(seed)
    n = rep.L.n
    report = {"points": [], "fiber_cyclic": None, "fiber_simple": None}
    pool = [x for x in range(-9, 10) if x]
    for _ in range(npoints):
        cvals = random_c_point(rng, n)
        mats = [op.evaluate(cvals) for op in gens]
        span = _algebra_span_at_point(mats, rep.dim)
        vec = [rat(rng.choice(pool)) for _ in range(rep.dim)]
        orbit = _orbit_span(mats, vec)
        combo = QMatrix.zeros(rep.dim, rep.dim)
        for m in mats:
            combo = combo + m * rng.choice(pool)
        report["points"].append(
            {
                "cvals": cvals,
                "span_dim": span.dim,
                "span_ok": span.dim == rep.dim,
                "cyclic": orbit.dim == rep.dim,
                "simple_spectrum": is_squarefree(charpoly(combo)),
            }
        )
    zeros = [0] * (n - 1)
    mats0 = [op.evaluate(zeros) for op in gens]
    vec = [rat(rng.choice(pool)) for _ in range(rep.dim)]
    report["fiber_cyclic"] = _orbit_span(mats0, vec).dim == rep.dim
    combo0 = QMatrix.zeros(rep.dim, rep.dim)
    for m in mats0:
        combo0 = combo0 + m * rng.choice(pool)
    # the nilpotent point is not generic: record, do not require
    report["fiber_simple"] = is_squarefree(charpoly(combo0))
    report["ok"] = all(
        p["span_ok"] and p["cyclic"] and p["simple_spectrum"]
        for p in report["points"]
    ) and report["fiber_cyclic"]
    return report
