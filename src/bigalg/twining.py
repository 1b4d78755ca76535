"""The pinning-fixing outer involution of sl_n and its coinvariant algebras.

sigma(X) = -w0 X^T w0^{-1} with w0 the antidiagonal matrix of alternating
signs; it fixes the principal triple and permutes the simple root vectors.
On a self-paired module the induced intertwiner is built by flipping the
lowering words of the basis.
"""

from __future__ import annotations

from .bigalgebra import ideal_span, weighted_monomials
from .multipoly import MultiPoly, VarSet
from .linalg import QMatrix, flat_columns, invert, restrict_to_block
from .polymatrix import sum_of_products


def pinning_w0(n):
    """Antidiagonal matrix with alternating signs, fixing the pinning."""
    return QMatrix.from_ints(
        [[(-1) ** i if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]
    )


def sigma_on_matrix(L, x):
    w0 = pinning_w0(L.n)
    # w0 is a signed permutation matrix: its inverse is its transpose
    return -(w0 * x.transpose() * w0.transpose())


def sigma_coord_matrix(L):
    """The linear map on Lie-algebra coordinates induced by sigma, kept on L."""
    return L.cached(
        "sigma", lambda: flat_columns([L.coords_of(sigma_on_matrix(L, b)) for b in L.basis])
    )


def is_sigma_invariant(mu):
    return tuple(mu) == tuple(reversed(tuple(mu)))


def intertwiner(rep):
    """S with S rho(X) S^{-1} = rho(sigma X), normalized on the highest line.

    Built by applying the index-flipped lowering words to the highest-weight
    vector, once per module; uniqueness up to scale follows from
    irreducibility.
    """
    if not is_sigma_invariant(rep.mu):
        raise ValueError("highest weight is not sigma-invariant")

    def compute():
        n = rep.L.n
        lower_ops = [rep.rho[i] for i in rep.L.lowering_index]
        highest = rep.weight_basis(rep.mu)
        cols = []
        for word in rep.words:
            v = highest
            for li in word:
                # sigma sends the li-th lowering operator to the (n-li)-th
                v = lower_ops[n - li - 1] * v
            cols.append(v)
        return flat_columns(cols)

    return rep.cached("intertwiner", compute)


def check_intertwiner(rep, s):
    """S rho(X) = rho(sigma X) S for every basis element, exactly."""
    L = rep.L
    sg = sigma_coord_matrix(L)
    for i, coords in enumerate(sg.columns()):
        lhs = s * rep.rho[i]
        rhs = rep.op(coords) * s
        if lhs != rhs:
            return False
    return True


def _sigma_substitution(L, sg):
    """x_j -> (sigma x)_j, the linear forms of the coordinate map sg."""
    ring = L.x_ring
    mapping = {}
    for j, row in enumerate(sg.a):
        form = MultiPoly.zero(ring)
        for i, c in enumerate(row):
            if c:
                form = form + MultiPoly.variable(ring, "x%d" % i).scale(c)
        mapping["x%d" % j] = form
    return mapping


def sigma_on_element(L, mat, s, s_inv, sg):
    """(sigma F)(x) = S F(sigma x) S^{-1} for F = mat over L.x_ring.

    s is the intertwiner of the module, s_inv its inverse and sg the
    coordinate map of sigma.
    """
    composed = mat.subs(L.x_ring, _sigma_substitution(L, sg))
    conjugated = sum_of_products(L.x_ring, s.rows, composed.cols, [(1, s, composed)])
    return conjugated * s_inv


def sigma_eigenvalues(rep, gens):
    """sigma acts on each calibrated generator by a sign; report them."""
    s = intertwiner(rep)
    s_inv = invert(s)
    sg = sigma_coord_matrix(rep.L)
    out = {}
    for op in gens:
        image = sigma_on_element(rep.L, op.kirillov, s, s_inv, sg)
        if image == op.kirillov:
            out[op.label] = 1
        elif image == -op.kirillov:
            out[op.label] = -1
        else:
            out[op.label] = None
    return out


def sigma_on_invariants(L):
    """Parity of each c_k under sigma: c_k(sigma x) = (-1)^k c_k(x)."""
    ring = L.x_ring
    mapping = _sigma_substitution(L, sigma_coord_matrix(L))
    out = {}
    for k in range(2, L.n + 1):
        ck = L.invariant_ck(k)
        image = ck.subs(ring, mapping)
        if image == ck:
            out[k] = 1
        elif image == -ck:
            out[k] = -1
        else:
            out[k] = None
    return out


def jantzen_trace(rep):
    """Trace of the intertwiner on the zero weight space."""
    s = intertwiner(rep)
    # without a zero weight the basis has no columns and the trace is 0
    return restrict_to_block(s, rep.weight_basis((0,) * (rep.L.n - 1))).trace()


# ---------------------------------------------------------------------------
# coinvariants: the octet instance against the rank-one algebra
# ---------------------------------------------------------------------------


def _is_multiple(poly, divisor, ring):
    """True when divisor divides poly over Q; both weighted-homogeneous."""
    d = poly.weighted_degree()
    span = ideal_span([divisor], ring, d)
    return ideal_span([divisor, poly], ring, d).dim == span.dim


def fixed_scheme_relations(relations, ring):
    """Substitute N1 = M2 = c3 = 0 and drop zero results."""
    out = []
    for rel in relations:
        mapping = {}
        for nm in rel.ring.names:
            if nm in ("N1", "M2", "c3"):
                mapping[nm] = 0
            elif nm in ring.index:
                mapping[nm] = MultiPoly.variable(ring, nm)
            else:
                raise ValueError("unexpected variable %r" % nm)
        image = rel.subs(ring, mapping)
        if not image.is_zero():
            out.append(image)
    return out


def coinvariant_octet_report(octet_relations, sl2_relation):
    """Quotient the octet presentation by the sigma-odd generators and match
    it against the rank-one presentation under a scaling dictionary.

    octet_relations live in variables (M1, N1, c2, c3) and the medium ones
    in (M1, M2, c2, c3); sl2_relation lives in (M1, c2).
    """
    ring = VarSet(["M1", "c2"], [1, 2])
    images = fixed_scheme_relations(octet_relations, ring)
    if not images:
        raise ValueError("no surviving relations")
    for p in images:
        if len({ring.degree(key) for key in p.terms}) > 1:
            raise ValueError("survivor %s is not weighted-homogeneous" % p)
    # the minimal-degree survivor is the parabola; all others are multiples
    images.sort(key=MultiPoly.weighted_degree)
    parabola = images[0]
    multiples = all(_is_multiple(p, parabola, ring) for p in images[1:])

    # dictionary: rescale c2 so the rank-one relation matches the parabola
    m1 = MultiPoly.variable(ring, "M1")
    c2 = MultiPoly.variable(ring, "c2")
    # normalize both monic in M1^2
    def monic(p):
        lead = p.coeff((2, 0))
        if lead == 0:
            raise ValueError("relation is not quadratic in M1")
        return p.scale(1 / lead)

    par = monic(parabola)
    sl2 = monic(sl2_relation.subs(ring, {"M1": m1, "c2": c2}))
    a = par.coeff((0, 1))
    b = sl2.coeff((0, 1))
    scale = a / b if b else None
    matched = scale is not None and sl2.subs(
        ring, {"M1": m1, "c2": c2.scale(scale)}
    ) == par

    # graded dimensions of the quotient ring Q[c2, M1]/(parabola)
    dims = {
        d: len(weighted_monomials(ring, d)) - ideal_span([par], ring, d).dim
        for d in range(9)
    }
    return {
        "parabola": parabola,
        "survivors": [str(p) for p in images],
        "all_multiples_of_parabola": multiples,
        "dictionary_c2_scale": scale,
        "relation_matches": matched,
        "quotient_dims": dims,
    }
