"""q-weight multiplicities: partition counts, alternating Weyl sums,
nilpotent filtrations, limits of weight spaces, and multiplicity algebras.

Two fully independent computations of the same polynomial anchor this
module: kernels of powers of the principal nilpotent on one side, and the
alternating Weyl sum over the q-counted partition function on the other.
"""

from __future__ import annotations

from operator import mul

from .bigalgebra import rational_diagonalizer
from .linalg import (
    QMatrix,
    closure,
    column_solver,
    flat_columns,
    independent_columns,
    kernel,
    rank,
    same_span,
    solve_columns,
)
from .limits import limit_of_span
from .qpoly import QPoly
from . import lie

# ---------------------------------------------------------------------------
# q-analogue of the partition function and the alternating Weyl sum
# ---------------------------------------------------------------------------

# the largest n for which qkostant_partition runs
PARTITION_N_BOUND = 5


def qkostant_partition(pi):
    """P_q(pi): multisets of positive roots summing to pi, q-counted by size.

    pi is a weight in fundamental coordinates; the value is zero unless pi
    is a nonnegative integer combination of simple roots.
    """
    n = len(pi) + 1
    if n > PARTITION_N_BOUND:
        raise ValueError("partition-function guard: n <= %d" % PARTITION_N_BOUND)
    target = lie.root_coords(pi)
    if target is None:
        return QPoly()

    # bounded DP over the box [0, target]
    def points_upto(bound):
        out = [()]
        for b in bound:
            out = [p + (x,) for p in out for x in range(b + 1)]
        return out

    pts = points_upto(target)
    dp = {p: QPoly() for p in pts}
    dp[(0,) * len(pi)] = QPoly.one()
    q = QPoly.q_power(1)
    for r in lie.positive_roots(n):
        for p in pts:  # lex increasing, so p - r is already updated
            prev = tuple(a - b for a, b in zip(p, r))
            if all(x >= 0 for x in prev) and dp[prev]:
                dp[p] = dp[p] + q * dp[prev]
    return dp[target]


def lusztig_m(mu, lam):
    """The alternating Weyl sum of P_q over w(mu+rho) - lam - rho."""
    if not (lie.is_dominant(mu) and lie.is_dominant(lam)):
        raise ValueError("both weights must be dominant")
    mu_rho = tuple(m + 1 for m in mu)
    out = QPoly()
    for perm, sign in lie.weyl_group(len(mu) + 1):
        shifted = lie.weyl_act(perm, mu_rho)
        pi = tuple(s - l - 1 for s, l in zip(shifted, lam))
        p = qkostant_partition(pi)
        if p:
            out = out + p.scale(sign)
    return out


# ---------------------------------------------------------------------------
# Brylinski filtration by kernels of powers of the principal nilpotent
# ---------------------------------------------------------------------------


def h_plus_e_transport(rep):
    """Transport matrix carrying standard weight spaces to those of the
    torus centralizing h + e (same integer spectrum as h, conjugate over Q).
    Computed once per module."""

    def compute():
        L = rep.L
        eigs = [L.h[i, i] for i in range(L.n)]
        return rep.gl_transport(rational_diagonalizer(L.h + L.e, eigs))

    return rep.cached("h_plus_e", compute)


def weight_space_basis(rep, lam, torus="standard"):
    """Columns spanning the lam weight space for the chosen maximal torus."""
    basis = rep.weight_basis(lam)
    if torus == "standard" or not basis.cols:
        return basis
    if torus == "h_plus_e":
        return h_plus_e_transport(rep) * basis
    raise ValueError("unknown torus choice %r" % torus)


def brylinski_filtration(rep, lam, torus="standard"):
    """F_p = {x in the weight space : e^(p+1) x = 0} and its jump polynomial.

    The jump polynomial puts dim(F_p / F_{p-1}) on q^p, which is the
    normalization that matches the alternating Weyl sum on sl_2.
    """
    lam = tuple(lam)
    if lam not in rep.weight_table:
        raise ValueError("lambda is not a weight of this module")
    basis = weight_space_basis(rep, lam, torus)
    e_mat = rep.rho_e
    total = basis.cols
    dims = []
    subspaces = []
    image = e_mat * basis  # e^(p+1) applied to the weight space
    p = 0
    prev_dim = 0
    while prev_dim < total:
        sub = basis * kernel(image)
        dims.append(sub.cols)
        subspaces.append(sub)
        prev_dim = sub.cols
        image = e_mat * image
        p += 1
        if p > rep.dim + 1:
            raise RuntimeError("filtration failed to stabilize")
    jump = QPoly(
        {p: dims[p] - (dims[p - 1] if p else 0) for p in range(len(dims))}
    )
    return {"lam": lam, "dims": dims, "jump": jump, "subspaces": subspaces,
            "basis": basis}


# ---------------------------------------------------------------------------
# the two limits of a weight space
# ---------------------------------------------------------------------------


def e_limit_filtration(rep, lam):
    """sum_p e^p F_p for the torus centralizing h + e."""
    images, *rest = brylinski_filtration(rep, lam, torus="h_plus_e")["subspaces"]
    e_mat = rep.rho_e
    for p, sub in enumerate(rest, 1):
        for _ in range(p):
            sub = e_mat * sub
        images = images.hstack(sub)
    return independent_columns(images)


def e_limit_zlimit(rep, lam):
    """Limit of the scaled weight space as the torus parameter goes to zero.

    Each standard-h-weight-m component of a basis vector scales by w^(-m),
    that is by w^(2 deg) up to a common factor, with deg the module's
    principal grading; after per-column normalization the valuation
    echelon produces the limit.
    """
    basis = weight_space_basis(rep, lam, torus="h_plus_e")
    if basis.cols == 0:
        return QMatrix.zeros(rep.dim, 0)
    deg = rep.grades
    # the integer columns: the span ignores the common denominator
    columns = [[{2 * deg[i]: x} for i, x in enumerate(col)] for col in zip(*basis.num)]
    return limit_of_span(columns)


def e_limit(rep, lam):
    """The e-limit of a weight space, cross-checked between the two routes.

    Kept per module once the routes agree; a disagreement raises each time.
    """
    lam = tuple(lam)

    def compute():
        a = e_limit_filtration(rep, lam)
        b = e_limit_zlimit(rep, lam)
        if a.cols != b.cols or not same_span(a, b):
            raise RuntimeError("limit constructions disagree (bug)")
        return a

    return rep.cached(("e_limit", lam), compute)


# ---------------------------------------------------------------------------
# multiplicity algebras
# ---------------------------------------------------------------------------


def reversal_transport(rep):
    """rho-tilde of the antidiagonal reversal, carrying the principal
    nilpotent to the companion-section nilpotent (an involution)."""
    n = rep.L.n
    j = QMatrix.from_ints([[int(c == n - 1 - r) for c in range(n)] for r in range(n)])
    return rep.gl_transport(j)


def generators_at_e(rep, gens):
    """Calibrated generator values at the zero fiber, in the principal-e frame.

    gens are BigGenerators(rep).ops, so each label has one value per module,
    which is kept in its memo.
    """
    zeros = [0] * (rep.L.n - 1)
    u = reversal_transport(rep)
    return [
        rep.cached(("at_e", op.label), lambda op=op: u * op.evaluate(zeros) * u)
        for op in gens
    ]


def multiplicity_algebra(rep, gens, lam):
    """The restriction of the zero-fiber algebra to the e-limit of a weight
    space, together with its grading and cross-checks."""
    lam = tuple(lam)
    # the limit span is h-stable, so it admits an h-homogeneous basis
    limit = _h_stabilize_limit(rep, e_limit(rep, lam))
    ops_e = generators_at_e(rep, gens)
    solve = column_solver(limit)
    restricted = []
    for op, mat in zip(gens, ops_e):
        try:
            restricted.append((op.label, solve(mat * limit)))
        except ValueError:
            raise RuntimeError(
                "limit space is not invariant under %s (bug)" % op.label
            )

    # the columns are independent and homogeneous in the module's principal
    # grading: count them per degree
    deg = rep.grades
    graded = {}
    for col in zip(*limit.num):
        grade = {deg[i] for i, x in enumerate(col) if x}.pop()
        graded[grade] = graded.get(grade, 0) + 1

    # the degree of lam; e_limit has checked that lam is a weight
    shift = deg[rep.weight_table[lam][0]]
    hilbert = QPoly({shift - g: d for g, d in graded.items()})

    # algebra span of the restricted operators
    _, basis = closure(
        [QMatrix.identity(limit.cols)], [r for _, r in restricted], mul
    )

    return {
        "lam": lam,
        "limit": limit,
        "dim": limit.cols,
        "graded": graded,
        "hilbert": hilbert,
        "restricted": dict(restricted),
        "algebra_span_dim": len(basis),
        "algebra_basis": basis,
    }


def _h_stabilize_limit(rep, limit):
    """Replace limit columns by h-weight-homogeneous ones (the limit is
    h-stable, so splitting by h-components preserves the span).  The
    h-weight of e_i is h(mu) - 2 deg e_i, so the components are the
    homogeneous parts of the principal grading."""
    deg = rep.grades
    # (column, degree) of each component, columns in order, degrees descending
    parts = [
        (j, k)
        for j, col in enumerate(zip(*limit.num))
        for k in sorted({deg[i] for i, x in enumerate(col) if x}, reverse=True)
    ]
    split = [
        [row[j] if deg[i] == k else 0 for j, k in parts]
        for i, row in enumerate(limit.num)
    ]
    out = independent_columns(QMatrix.from_ints(split, limit.den, len(parts)))
    if out.cols != limit.cols:
        raise RuntimeError("limit space is not h-stable (bug)")
    return out


def algebra_structure_table(basis):
    """Basis and multiplication table of the unital algebra with the given
    basis: the algebra_basis of multiplicity_algebra."""
    products = [a * b for a in basis for b in basis]
    coeffs = solve_columns(flat_columns(basis), flat_columns(products))
    table = {
        "%d,%d" % divmod(t, len(basis)): [str(x) for x in col]
        for t, col in enumerate(coeffs.transpose().a)
    }
    return {"basis": [b.to_obj() for b in basis], "table": table}


def quotient_chain_check(rep, gens, lam):
    """lim of the lam space sits inside the lim of the minuscule space, and
    restriction to the smaller space factors through the bigger one."""
    mu_min = lie.minuscule_min(rep.mu)
    l_min = e_limit(rep, mu_min)
    l_lam = e_limit(rep, lam)
    contained = rank(l_min.hstack(l_lam)) == rank(l_min)
    ok_factor = True
    if contained and l_lam.cols:
        on_min, on_lam = column_solver(l_min), column_solver(l_lam)
        inclusion = on_min(l_lam)
        ops_e = generators_at_e(rep, gens)
        for mat in ops_e:
            big = on_min(mat * l_min)
            small = on_lam(mat * l_lam)
            if big * inclusion != inclusion * small:
                ok_factor = False
                break
    return {
        "mu_min": mu_min,
        "contained": contained,
        "factors": ok_factor,
        "dim_min": l_min.cols,
        "dim_lam": l_lam.cols,
    }


def minuscule_quotient_check(rep, gens):
    """Q at the minuscule weight equals the zero fiber modulo the medium
    values: dimensions match and the medium ideal annihilates the limit."""
    mu_min = lie.minuscule_min(rep.mu)
    l_min = e_limit(rep, mu_min)
    ops_e = generators_at_e(rep, gens)
    labels = [op.label for op in gens]
    medium = [m for lab, m in zip(labels, ops_e) if lab.startswith("M")]

    # fiber algebra basis
    span, basis_mats = closure([QMatrix.identity(rep.dim)], ops_e, mul)
    fiber_dim = span.dim

    # ideal generated by medium values inside the fiber algebra
    ideal, ideal_mats = closure(
        [b * m for m in medium for b in basis_mats], ops_e, mul
    )

    annihilates = all((m * l_min).is_zero() for m in ideal_mats)

    return {
        "fiber_dim": fiber_dim,
        "ideal_dim": ideal.dim,
        "quotient_dim": fiber_dim - ideal.dim,
        "limit_dim": l_min.cols,
        "dims_match": fiber_dim - ideal.dim == l_min.cols,
        "ideal_annihilates_limit": annihilates,
    }
