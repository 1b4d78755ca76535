"""Section restriction, calibration, Hilbert series, and relation search.

Operators restricted to the companion section become matrices over
Q[c_2..c_n], weighted-graded by deg c_k = k and deg B_{i,k-i} = k - i.
Relation hunting is degree-truncated linear algebra over a monomial basis;
no Groebner machinery appears anywhere.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt, lcm
from operator import mul

from .multipoly import MultiPoly, VarSet, monomial_values, rat, substitute, ONE
from .linalg import (
    Echelon,
    QMatrix,
    charpoly,
    closure,
    flat_columns,
    is_squarefree,
    kernel,
    rank,
)
from .polymatrix import PolyMatrix, coefficient_columns
from .qpoly import QPoly, geometric_quotient
from . import lie
from .kirillov import derivation_chain


class SectionOperator:
    """A generator restricted to the Kostant section, with its grading data.

    ``kirillov`` is the calibrated operator before restriction, a PolyMatrix
    over ``L.x_ring``; ``mat`` is its restriction, over Q[c_2..c_n].
    """

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
        """The QMatrix value at cvals = (c_2, ..., c_n)."""
        names = self.mat.ring.names
        if len(cvals) != len(names):
            raise ValueError("need %d invariant values" % len(names))
        return self.mat.evaluate(dict(zip(names, cvals)))

    def report(self):
        return {
            "label": self.label,
            "i": self.i,
            "k": self.k,
            "degree": self.degree,
            "scalar": str(self.scalar),
        }


class BigGenerators:
    """The calibrated generator family of one representation."""

    def __init__(self, rep):
        self.rep = rep
        L = rep.L
        n = L.n
        self.ring = VarSet(["c%d" % k for k in range(2, n + 1)], range(2, n + 1))
        cvars = [MultiPoly.variable(self.ring, nm) for nm in self.ring.names]
        # x -> the companion-section coordinates: each is 0, 1 or -c_k
        section = dict(zip(L.x_ring.names, lie.section_coords(L, cvars)))
        self.ops = []
        self.by_label = {}
        raw = {}
        for k in range(2, n + 1):
            for i, mat in enumerate(derivation_chain(rep, k, k - 1), 1):
                mat_c = mat.subs(self.ring, section)
                raw[(i, k)] = (mat, mat_c)

        # medium operators: D(c_k * Id) carries the universal factor -1/(4n)
        medium_scalar = rat(-4 * n)
        for k in range(2, n + 1):
            mat, mat_c = raw[(1, k)]
            self._append(
                SectionOperator(
                    "M%d" % (k - 1),
                    1,
                    k,
                    mat_c * medium_scalar,
                    medium_scalar,
                    mat * medium_scalar,
                )
            )
        for k in range(2, n + 1):
            for i in range(2, k):
                mat, mat_c = raw[(i, k)]
                label = "N1" if (n == 3 and (i, k) == (2, 3)) else "B%d_%d" % (i, k - i)
                scalar = ONE
                if n == 3 and (i, k) == (2, 3):
                    s = self._octet_n1_scalar(mat_c)
                    if s is not None:
                        scalar = s
                if scalar != 1:
                    mat_c, mat = mat_c * scalar, mat * scalar
                self._append(SectionOperator(label, i, k, mat_c, scalar, mat))

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
        t = target[i, j]
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

    def anchor_eigenvalues(self):
        """Eigenvalue of each generator on the transported highest-weight line."""
        cvals, transport = principal_transport(self.rep)
        line = transport * self.rep.weight_basis(self.rep.mu)
        return {
            op.label: eigenvalue_on_block(op.evaluate(cvals), line) for op in self.ops
        }

    def report(self):
        return [op.report() for op in self.ops]


def eigenvalue_on_block(mat, block):
    """The scalar t with mat * block == t * block, for a nonzero block of
    columns; ValueError when mat does not act on it by a scalar."""
    pivot = next(
        ((i, j) for i, row in enumerate(block.num) for j, x in enumerate(row) if x), None
    )
    if pivot is None:
        raise ValueError("zero block")
    image = mat * block
    t = image[pivot] / block[pivot]
    if image != block * t:
        raise ValueError("matrix is not scalar on the block")
    return t


def _isqrt_exact(m):
    """The square root of the integer m, or None unless m is a perfect square."""
    if m < 0:
        return None
    r = isqrt(m)
    return r if r * r == m else None


def principal_transport(rep):
    """The principal section point and the module's weight frame carried to it.

    Returns (cvals, transport): the companion matrix at cvals is conjugate
    to h, and transport is rep.gl_transport of the rational matrix that
    diagonalizes it in the order of h's eigenvalues, so the columns of
    transport for one weight span that weight's space at cvals.
    """
    L = rep.L
    cvals = lie.principal_point(L)
    a0 = L.matrix_of(QMatrix([[c] for c in lie.section_coords(L, cvals)]))
    eigs = [L.h[i, i] for i in range(L.n)]
    return cvals, rep.gl_transport(rational_diagonalizer(a0, eigs))


def rational_diagonalizer(m, eigs):
    """Columns are eigenvectors of m in the order of the given eigenvalues,
    each 1 at its first nonzero entry."""
    out = QMatrix.zeros(m.rows, 0)
    for a in eigs:
        vec = kernel(m - QMatrix.identity(m.rows) * a)
        if vec.cols != 1:
            raise ValueError("eigenvalue %s is not simple" % a)
        lead = next(c for (c,) in vec.num if c)
        out = out.hstack(vec * rat(vec.den, lead))
    return out


# ---------------------------------------------------------------------------
# Hilbert series: fiber at the nilpotent point vs the closed product formula
# ---------------------------------------------------------------------------


def closed_numerator(mu):
    """Weyl's q-dimension: the product over the positive roots alpha of
    (1 - q^<mu + rho, alpha^v>) / (1 - q^<rho, alpha^v>)."""
    return geometric_quotient(*lie.weyl_factors(mu))


def _ad_grade(rep, mat):
    """Grade of a fiber operator in the module's grading; None for mixed grades."""
    deg = rep.grades
    grades = {deg[i] - deg[j] for i, row in enumerate(mat.num) for j, x in enumerate(row) if x}
    if not grades:
        return 0
    return grades.pop() if len(grades) == 1 else None


def _graded_spans(seed, mats, degrees, max_degree, act):
    """Dimension of span(A_d * seed) for each d <= max_degree, and its basis.

    A_d is the span of the generator monomials of weighted degree d.  The
    values commute, so A_d * seed is the sum over generators g of
    act(A_{d - g} * seed, M_g): only the elements that enlarged their
    degree's span are acted on.  Returns (dims, elements).
    """
    spans = {}  # degree -> the elements that enlarged its span
    dims = []
    for d in range(max_degree + 1):
        ech = Echelon()
        if d:
            products = (
                act(x, m)
                for m, g in zip(mats, degrees)
                if 0 < g <= d
                for x in spans[d - g]
            )
        else:
            products = [seed]
        spans[d] = [x for x in products if ech.add(x)]
        dims.append(ech.dim)
    return dims, [x for xs in spans.values() for x in xs]


def _fiber_dims(mats, degrees, max_degree, dim):
    """Dimension of the span of the degree-d generator monomials, d <= max_degree.

    Read off the orbit of v = e_0 (the highest-weight vector of a module):
    when the values commute pairwise and the vectors A_d * v of all degrees
    span Q^dim, then A * v = V, so a -> a * v is injective on A (see
    _span_dim) and dim A_d = dim A_d * v.  Otherwise the degree-d products
    of the dim x dim values are spanned.
    """
    e0 = QMatrix.from_ints([[int(i == 0)] for i in range(dim)])
    dims, orbit = _graded_spans(e0, mats, degrees, max_degree, lambda v, m: m * v)
    if rank(flat_columns(orbit)) == dim and _commute_pairwise(mats):
        return dims
    return _graded_spans(
        QMatrix.identity(dim), mats, degrees, max_degree, lambda x, m: x * m
    )[0]


def hilbert_series(rep, gens):
    """Compare fiber-at-nilpotent graded dimensions with the closed formula.

    Returns a report dict; 'equal' is the headline boolean.  A failure of the
    fiber span to reach the predicted dimensions signals a generation failure,
    and 'stabilized' says that nothing new appears one degree past the top of
    the closed formula.
    """
    L = rep.L
    mu = rep.mu
    closed = closed_numerator(mu)
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

    fiber_dims = _fiber_dims(mats, degrees, dmax + 1, rep.dim)

    fiber_poly = QPoly({d: c for d, c in enumerate(fiber_dims) if c})
    equal = fiber_poly == closed
    return {
        "numerator": closed,
        "fiber": fiber_poly,
        "equal": equal,
        "dim": rep.dim,
        "dim_ok": closed.eval_at_one() == rep.dim,
        "stabilized": all(c == 0 for c in fiber_dims[dmax + 1:]),
    }


# ---------------------------------------------------------------------------
# relation search by degree-truncated linear algebra
# ---------------------------------------------------------------------------


def relation_ring(gens, n):
    """The polynomial ring on the generator labels and c_2..c_n, graded by
    the generators' degrees and deg c_k = k."""
    names = [op.label for op in gens] + ["c%d" % k for k in range(2, n + 1)]
    return VarSet(names, [op.degree for op in gens] + list(range(2, n + 1)))


def weighted_monomials(ring, d):
    """Exponent tuples of weighted degree d in ring, deterministic order."""
    out = []
    weights = ring.weights
    nvars = len(weights)

    def rec(i, remaining, acc):
        if i == nvars:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for e in range(remaining // w, -1, -1):
            rec(i + 1, remaining - e * w, acc + [e])

    rec(0, d, [])
    return out


def ideal_span(relations, ring, d):
    """Echelon of all monomial * relation products of weighted degree d.

    Vectors are coefficients over weighted_monomials(ring, d), in that
    order, each relation's over their common denominator; a relation of
    degree above d contributes nothing.
    """
    index = {ring.pack(m): i for i, m in enumerate(weighted_monomials(ring, d))}
    ech = Echelon()
    for rel in relations:
        if rel.ring != ring:
            raise ValueError("variable-set mismatch: %r vs %r" % (rel.ring, ring))
        den = lcm(*(c.denominator for c in rel.terms.values()))
        ints = [
            (key, c.numerator * (den // c.denominator)) for key, c in rel.terms.items()
        ]
        for mult in weighted_monomials(ring, d - rel.weighted_degree()):
            # a product of monomials adds their packed keys
            shift = ring.pack(mult)
            vec = [0] * len(index)
            for key, c in ints:
                vec[index[key + shift]] = c
            ech.add(vec)
    return ech


def _relation_images(ring, gens_by_label, ring_c):
    """The value of each relation-ring variable: a generator's PolyMatrix or c_k."""
    return [
        gens_by_label[nm].mat if nm in gens_by_label else MultiPoly.variable(ring_c, nm)
        for nm in ring.names
    ]


def substitute_relation(rel, gens_by_label, ring_c, dim):
    """Evaluate a relation-ring polynomial on the section operators."""
    return substitute(
        rel,
        _relation_images(rel.ring, gens_by_label, ring_c),
        PolyMatrix.zeros(ring_c, dim, dim),
        PolyMatrix.identity(ring_c, dim),
    )


def derive_relations(rep, gens, max_degree):
    """Minimal new relations among generator monomials, degree by degree.

    Returns (relations, info) where relations are polynomials in the labels
    and the c_k, and info records per-degree monomial counts, kernel sizes,
    and algebra dimensions.

    The generators must commute over R = Q[c_2..c_n].  When their fiber
    values (at c = 0) also carry e_0 to all of Q^dim, an element b of the
    algebra B they generate is zero exactly when b * e_0 is: by Nakayama
    at c = 0, B * e_0 is all of V over R localized there, and b * e_0 = 0
    gives b * (a * e_0) = a * (b * e_0) = 0 for every a in B.  The
    monomials are then compared by their dim x 1 columns at e_0, which
    have the same kernel as their dim x dim values; any other family is
    compared by its values.
    """
    for a, b in combinations(gens, 2):
        if not a.mat.commutator(b.mat).is_zero():
            raise ValueError("generators do not commute")
    L = rep.L
    ring = relation_ring(gens, L.n)
    ring_c = gens[0].mat.ring
    images = _relation_images(ring, {op.label: op for op in gens}, ring_c)
    e0 = QMatrix.from_ints([[int(i == 0)] for i in range(rep.dim)])
    fiber = [op.evaluate([0] * (L.n - 1)) for op in gens]
    if _orbit_dim(e0, fiber) == rep.dim:
        # the row e_0^T * b^T is (b * e_0)^T: each image acts on the right
        images = [m.transpose() if isinstance(m, PolyMatrix) else m for m in images]
        seed = PolyMatrix.from_qmatrix(ring_c, e0.transpose())
    else:
        seed = PolyMatrix.identity(ring_c, rep.dim)
    value = monomial_values(images, seed)

    relations = []
    info = []
    for d in range(1, max_degree + 1):
        monos = weighted_monomials(ring, d)
        keys = [ring.pack(m) for m in monos]
        kern = kernel(coefficient_columns([value(k) for k in keys]))

        # span of lower-degree relations times complementary monomials
        old_span = ideal_span(relations, ring, d)
        new_here = []
        for col in zip(*kern.num):
            if old_span.add(list(col)):
                terms = {k: rat(c, kern.den) for k, c in zip(keys, col) if c}
                new_here.append(MultiPoly(ring, terms, _trusted=True))
        relations += new_here
        info.append(
            {
                "degree": d,
                "monomials": len(monos),
                "kernel": kern.cols,
                "algebra_dim": len(monos) - kern.cols,
                "new_relations": len(new_here),
            }
        )
    return relations, info


def ideal_graded_dims(rep, gens, relations, max_degree):
    """Dimensions of the span {monomial * relation} per weighted degree."""
    ring = relation_ring(gens, rep.L.n)
    return {d: ideal_span(relations, ring, d).dim for d in range(1, max_degree + 1)}


def verify_presentation(rep, gens, relations):
    """Substitute calibrated operators into relations; report each value.

    relations: list of MultiPoly over the relation_ring of gens.
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
    return report


# ---------------------------------------------------------------------------
# freeness, cyclicity, and simple-spectrum probes at random section points
# ---------------------------------------------------------------------------


# the small nonzero integers that seeded probes draw from
_PROBE_POOL = [x for x in range(-9, 10) if x]


def random_c_point(rng, n):
    return [rng.choice(_PROBE_POOL) for _ in range(n - 1)]


def _image(v, g):
    # g on the column v: a row orbit v * g can differ on a non-semisimple fiber
    return g * v


def _commute_pairwise(mats):
    return all(a * b == b * a for a, b in combinations(mats, 2))


def _span_dim(mats, orbit_dim, dim):
    """Dimension of the unital algebra the matrices generate.

    When they commute pairwise and some vector's orbit is all of Q^dim, it
    is dim: a commutative algebra A with A.v = V has a.v = 0 only for
    a = 0, since a.(b.v) = b.(a.v).  Otherwise the span closure decides.
    """
    if orbit_dim == dim and _commute_pairwise(mats):
        return dim
    return closure([QMatrix.identity(dim)], mats, mul)[0].dim


def _orbit_dim(vec, mats):
    """Dimension of the span of the column vec under the words in mats."""
    return closure([vec], mats, _image)[0].dim


def _probe(rng, mats, dim):
    """The orbit dimension of a random vector under mats, then whether a
    random combination of mats has a simple spectrum, drawn in that order."""
    vec = QMatrix.from_ints([[rng.choice(_PROBE_POOL)] for _ in range(dim)])
    orbit_dim = _orbit_dim(vec, mats)
    combo = QMatrix.zeros(dim, dim)
    for m in mats:
        combo = combo + m * rng.choice(_PROBE_POOL)
    return orbit_dim, is_squarefree(charpoly(combo))


def freeness_and_rank_check(rep, gens, seed=0):
    """Span, cyclicity, and simple-spectrum evidence at three seeded random points."""
    rng = random.Random(seed)
    n = rep.L.n
    report = {"points": [], "fiber_cyclic": None, "fiber_simple": None}
    for _ in range(3):
        cvals = random_c_point(rng, n)
        mats = [op.evaluate(cvals) for op in gens]
        orbit_dim, simple = _probe(rng, mats, rep.dim)
        span_dim = _span_dim(mats, orbit_dim, rep.dim)
        report["points"].append(
            {
                "cvals": cvals,
                "span_dim": span_dim,
                "span_ok": span_dim == rep.dim,
                "cyclic": orbit_dim == rep.dim,
                "simple_spectrum": simple,
            }
        )
    orbit_dim, simple = _probe(rng, [op.evaluate([0] * (n - 1)) for op in gens], rep.dim)
    report["fiber_cyclic"] = orbit_dim == rep.dim
    # the nilpotent point is not generic: record, do not require
    report["fiber_simple"] = simple
    report["ok"] = all(
        p["span_ok"] and p["cyclic"] and p["simple_spectrum"]
        for p in report["points"]
    ) and report["fiber_cyclic"]
    return report
