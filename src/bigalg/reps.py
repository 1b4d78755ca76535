"""Irreducible sl_n modules with exact matrices and weight decompositions.

A module V^mu is generated inside the tensor product of fundamental
(exterior-power) representations: locate the highest-weight vector, then
close up under the lowering operators, echelonizing one weight level at a
time.  Basis vectors remember their lowering word, which keeps every
derived basis reproducible.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

from .multipoly import rat, ZERO, ONE
from .linalg import (
    Echelon,
    QMatrix,
    joint_kernel,
    kernel,
    solve_columns,
)
from . import lie

CACHE_VERSION = 1
DIM_BOUND = 400  # largest module dimension built by default


def subsets(n, k):
    return [tuple(s) for s in combinations(range(n), k)]


def wedge_lie_matrix(m, n, k):
    """Derivation action of an n x n matrix on the basis of k-subsets."""
    subs = subsets(n, k)
    index = {s: i for i, s in enumerate(subs)}
    dim = len(subs)
    out = QMatrix.zeros(dim, dim)
    for j, s in enumerate(subs):
        for pos, b in enumerate(s):
            for a in range(n):
                c = m.a[a][b]
                if not c:
                    continue
                if a == b:
                    out.a[j][j] += c
                    continue
                if a in s:
                    continue
                t = list(s)
                t[pos] = a
                sign = 1
                # bubble back to sorted order, tracking the sign
                i = pos
                while i > 0 and t[i - 1] > t[i]:
                    t[i - 1], t[i] = t[i], t[i - 1]
                    sign = -sign
                    i -= 1
                while i < k - 1 and t[i] > t[i + 1]:
                    t[i], t[i + 1] = t[i + 1], t[i]
                    sign = -sign
                    i += 1
                out.a[index[tuple(t)]][j] += sign * c
    return out


def wedge_group_matrix(s, n, k):
    """Minor matrix of an invertible n x n matrix on k-subsets."""
    subs = subsets(n, k)
    dim = len(subs)
    out = QMatrix.zeros(dim, dim)
    for i, rowset in enumerate(subs):
        for j, colset in enumerate(subs):
            out.a[i][j] = _det([[s.a[r][c] for c in colset] for r in rowset])
    return out


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = ZERO
    sign = 1
    for j in range(n):
        if a[0][j]:
            minor = [[a[i][c] for c in range(n) if c != j] for i in range(1, n)]
            total += sign * a[0][j] * _det(minor)
        sign = -sign
    return total


def _subset_weight(s, n):
    """Fundamental-coordinate weight of a k-subset basis vector."""
    return tuple(
        (1 if i in s else 0) - (1 if i + 1 in s else 0) for i in range(n - 1)
    )


class Representation:
    """An irreducible sl_n module with exact matrices for the fixed basis."""

    def __init__(self, L, mu, dim, rho, weights, words, tensor_basis, factors):
        self.L = L
        self.mu = tuple(mu)
        self.dim = dim
        self.rho = rho  # one QMatrix per Lie-algebra basis element
        self.weights = weights  # weight tuple per basis vector
        self.words = words  # lowering word per basis vector
        self.tensor_basis = tensor_basis  # columns: basis vectors in tensor coords
        self.factors = factors  # exterior-power exponents of the ambient tensor
        self.weight_table = {}
        for i, w in enumerate(weights):
            self.weight_table.setdefault(w, []).append(i)
        self._transport_cache = {}

    # ---------- operators ----------

    def op(self, coords):
        """rho of a Lie algebra element given by basis coordinates."""
        out = QMatrix.zeros(self.dim, self.dim)
        for c, m in zip(coords, self.rho):
            if c:
                out = out + m * c
        return out

    @property
    def rho_e(self):
        return self.op(self.L.e_coords)

    @property
    def rho_h(self):
        return self.op(self.L.h_coords)

    def weight_space_columns(self, lam):
        idx = self.weight_table.get(tuple(lam), [])
        cols = []
        for i in idx:
            v = [ZERO] * self.dim
            v[i] = ONE
            cols.append(v)
        return cols

    # ---------- GL transport ----------

    def gl_transport(self, s):
        """The action of an invertible rational matrix on this module.

        V^mu sits inside a tensor product of exterior powers, which carries
        the full GL_n action; the subspace is GL-stable, so the action
        restricts.  Conjugation by the result realizes rho(s X s^-1).
        """
        key = tuple(tuple(row) for row in s.a)
        if key in self._transport_cache:
            return self._transport_cache[key]
        n = self.L.n
        if not self.factors:
            out = QMatrix.identity(1)
        else:
            t = wedge_group_matrix(s, n, self.factors[0])
            for k in self.factors[1:]:
                t = t.kron(wedge_group_matrix(s, n, k))
            out = solve_columns(self.tensor_basis, t * self.tensor_basis)
        self._transport_cache[key] = out
        return out

    # ---------- serialization ----------

    def to_obj(self):
        return {
            "version": CACHE_VERSION,
            "n": self.L.n,
            "mu": list(self.mu),
            "dim": self.dim,
            "basis_words": [list(w) for w in self.words],
            "rho": [m.to_obj() for m in self.rho],
        }


def fundamental_rep(L, k):
    """The k-th exterior power of the standard representation."""
    n = L.n
    if not 1 <= k <= n - 1:
        raise ValueError("fundamental index out of range")
    mu = tuple(1 if i == k - 1 else 0 for i in range(n - 1))
    return build_irrep(L, mu)


def _tensor_scaffold(L, mu):
    """Factor list, tensor matrices for the Lie basis, and basis weights."""
    n = L.n
    factors = []
    for k in range(1, n):
        factors.extend([k] * mu[k - 1])
    if not factors:
        zero = QMatrix.zeros(1, 1)
        return [], [zero for _ in range(L.dim)], [(0,) * (n - 1)]

    factor_mats = []  # per factor: list over Lie basis of wedge matrices
    factor_weights = []
    for k in factors:
        factor_mats.append([wedge_lie_matrix(b, n, k) for b in L.basis])
        factor_weights.append([_subset_weight(s, n) for s in subsets(n, k)])

    dims = [len(w) for w in factor_weights]
    total = 1
    for d in dims:
        total *= d

    tensor_mats = []
    for bi in range(L.dim):
        acc = QMatrix.zeros(total, total)
        for f in range(len(factors)):
            term = None
            for g in range(len(factors)):
                part = factor_mats[g][bi] if g == f else QMatrix.identity(dims[g])
                term = part if term is None else term.kron(part)
            acc = acc + term
        tensor_mats.append(acc)

    weights = []
    def rec(i, acc):
        if i == len(factors):
            weights.append(tuple(acc))
            return
        for w in factor_weights[i]:
            rec(i + 1, [a + b for a, b in zip(acc, w)])
    rec(0, [0] * (n - 1))

    return factors, tensor_mats, weights


def build_irrep(L, mu, dim_bound=DIM_BOUND):
    """Construct the irreducible module with highest weight mu."""
    n = L.n
    mu = tuple(mu)
    if len(mu) != n - 1 or any(c < 0 for c in mu):
        raise ValueError("weight must be dominant with %d coordinates" % (n - 1))
    rd = lie.RootData(n)
    target_dim = rd.weyl_dim(mu)
    if target_dim > dim_bound:
        raise ValueError(
            "dimension %d exceeds bound %d" % (target_dim, dim_bound)
        )

    factors, tensor_mats, tensor_weights = _tensor_scaffold(L, mu)
    total = len(tensor_weights)

    # raising/lowering operators inside the tensor product
    raise_idx = [L._offdiag_index[(i, i + 1)] for i in range(n - 1)]
    lower_idx = [L._offdiag_index[(i + 1, i)] for i in range(n - 1)]

    hw = _highest_weight_vector(mu, tensor_mats, tensor_weights, raise_idx, total)

    # closure under lowering operators, echelonизing per weight level
    level = {}
    accepted = [hw]
    words = [()]
    weights = [mu]
    ech = Echelon()
    ech.add(hw)
    level[mu] = ech
    queue = [0]
    qpos = 0
    while qpos < len(queue):
        vi = queue[qpos]
        qpos += 1
        for li in range(n - 1):
            cand = tensor_mats[lower_idx[li]].mul_vec(accepted[vi])
            if all(x == 0 for x in cand):
                continue
            alpha = rd.simple_root(li + 1)
            w = tuple(a - b for a, b in zip(weights[vi], alpha))
            ech = level.setdefault(w, Echelon())
            if ech.add(cand):
                accepted.append(cand)
                words.append(words[vi] + (li + 1,))
                weights.append(w)
                queue.append(len(accepted) - 1)
                if len(accepted) > target_dim:
                    raise RuntimeError("closure exceeded the Weyl dimension")

    if len(accepted) != target_dim:
        raise RuntimeError(
            "closure produced %d vectors, Weyl dimension is %d"
            % (len(accepted), target_dim)
        )

    basis = QMatrix.from_cols(accepted, rows=total)
    rho = [solve_columns(basis, m * basis) for m in tensor_mats]
    return Representation(L, mu, target_dim, rho, weights, words, basis, factors)


def _highest_weight_vector(mu, tensor_mats, tensor_weights, raise_idx, total):
    """The unique (up to scale) weight-mu vector killed by all raising ops."""
    idx = [i for i, w in enumerate(tensor_weights) if w == mu]
    if not idx:
        raise RuntimeError("no highest-weight vector found")
    cols = []
    for i in idx:
        v = [ZERO] * total
        v[i] = ONE
        cols.append(v)
    proj = QMatrix.from_cols(cols, rows=total)
    if raise_idx:
        stacked = QMatrix(
            [row for ri in raise_idx for row in (tensor_mats[ri] * proj).a]
        )
        vecs = kernel(stacked)
    else:
        vecs = [[ONE if j == 0 else ZERO for j in range(len(idx))]]
    if len(vecs) != 1:
        raise RuntimeError(
            "highest-weight space has dimension %d (internal bug)" % len(vecs)
        )
    combo = vecs[0]
    hw = [ZERO] * total
    for c, i in zip(combo, idx):
        if c:
            hw[i] = c
    # deterministic normalization: first nonzero coordinate equals 1
    for x in hw:
        if x:
            hw = [y / x for y in hw]
            break
    return hw


def weight_spaces(rep, torus_elements):
    """Simultaneous eigenspace decomposition under commuting semisimple ops.

    torus_elements are Lie-algebra elements as coordinate vectors; their
    images must commute and act with rational joint spectrum.
    """
    from .linalg import joint_invariant_decomposition

    mats = [rep.op(x) for x in torus_elements]
    blocks = joint_invariant_decomposition(mats)
    for _, labels in blocks:
        for lab in labels:
            if isinstance(lab, tuple):
                raise ValueError("irrational spectrum")
    return blocks


def g_e_invariants(rep):
    """The joint kernel of the centralizer of the principal nilpotent."""
    cent = rep.L.centralizer(rep.L.e_coords)
    return joint_kernel([rep.op(x) for x in cent])


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def cache_path(cache_dir, n, mu):
    name = "sl%d_mu%s_v%d.json" % (n, "-".join(str(c) for c in mu), CACHE_VERSION)
    return os.path.join(cache_dir, name)


def save_rep(rep, cache_dir):
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, rep.L.n, rep.mu)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep.to_obj(), fh, sort_keys=True)
    return path


def load_rep(L, mu, cache_dir):
    """Rebuild a cached module; returns None when no cache entry exists.

    The tensor scaffolding is rebuilt deterministically from the stored
    lowering words; the matrices come straight from the file.
    """
    path = cache_path(cache_dir, L.n, tuple(mu))
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("version") != CACHE_VERSION or obj["n"] != L.n:
        return None
    mu = tuple(obj["mu"])
    n = L.n
    rd = lie.RootData(n)
    factors, tensor_mats, tensor_weights = _tensor_scaffold(L, mu)
    total = len(tensor_weights)
    raise_idx = [L._offdiag_index[(i, i + 1)] for i in range(n - 1)]
    lower_idx = [L._offdiag_index[(i + 1, i)] for i in range(n - 1)]
    hw = _highest_weight_vector(mu, tensor_mats, tensor_weights, raise_idx, total)
    vectors = []
    weights = []
    words = [tuple(w) for w in obj["basis_words"]]
    for word in words:
        v = hw
        w = mu
        for li in word:
            v = tensor_mats[lower_idx[li - 1]].mul_vec(v)
            alpha = rd.simple_root(li)
            w = tuple(a - b for a, b in zip(w, alpha))
        vectors.append(v)
        weights.append(w)
    basis = QMatrix.from_cols(vectors, rows=total)
    rho = [QMatrix.from_obj(o) for o in obj["rho"]]
    return Representation(L, mu, obj["dim"], rho, weights, words, basis, factors)


def get_rep(L, mu, cache_dir=None, dim_bound=DIM_BOUND):
    if cache_dir:
        rep = load_rep(L, mu, cache_dir)
        if rep is not None:
            return rep
    rep = build_irrep(L, mu, dim_bound=dim_bound)
    if cache_dir:
        save_rep(rep, cache_dir)
    return rep
