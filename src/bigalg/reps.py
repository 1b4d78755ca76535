"""Irreducible sl_n modules with exact matrices and weight decompositions.

A module V^mu is generated inside the tensor product of fundamental
(exterior-power) representations: start from the highest-weight vector,
then close up under the lowering operators, echelonizing one weight level
at a time.  A tensor vector is sparse, a dict from keys (one sorted subset
per exterior factor) to integers, and the Lie algebra acts on it factor by
factor.  Basis vectors remember their lowering word, which keeps every
derived basis reproducible, and each rho(X_b) is solved one weight space
at a time.
"""

from __future__ import annotations

import json
import os
from itertools import combinations, compress, product
from math import lcm

from .linalg import (
    Echelon,
    QMatrix,
    joint_kernel,
    solve_columns,
)
from . import lie

CACHE_VERSION = 1
DIM_BOUND = 400  # largest module dimension built


def subsets(n, k):
    return [tuple(s) for s in combinations(range(n), k)]


def _wedge(entries, s):
    """The derivation action on the subset s, as (subset, coefficient) pairs.

    An entry (a, b, c) of the matrix sends s, when it holds b, to s - b + a
    with sign (-1)^#{y in s strictly between a and b}.
    """
    out = []
    for a, b, c in entries:
        if b not in s:
            continue
        if a == b:
            out.append((s, c))
        elif a not in s:
            lo, hi = min(a, b), max(a, b)
            if sum(1 for y in s if lo < y < hi) % 2:
                c = -c
            out.append((tuple(sorted([y for y in s if y != b] + [a])), c))
    return out


def _action(x):
    """The map vec -> x . vec on sparse tensor vectors, for an n x n integer
    matrix x.

    x acts on each exterior factor as a derivation, and on the tensor
    product as the sum over the factors.  One entry list and one table of
    subset moves serve every vector the map is applied to.
    """
    if x.den != 1:
        raise ValueError("the action needs an integer matrix")
    entries = [
        (a, b, c) for a, row in enumerate(x.num) for b, c in enumerate(row) if c
    ]
    moves = {}  # subset -> its image under x, shared by all vectors and factors

    def act(vec):
        out = {}
        for key, coef in vec.items():
            for f, s in enumerate(key):
                if s not in moves:
                    moves[s] = _wedge(entries, s)
                for t, c in moves[s]:
                    k = key[:f] + (t,) + key[f + 1:]
                    out[k] = out.get(k, 0) + coef * c
        return {k: c for k, c in out.items() if c}

    return act


def _dense(vec, index):
    col = [0] * len(index)
    for key, c in vec.items():
        col[index[key]] = c
    return col


def _matrix(vectors, index):
    """The sparse tensor vectors as the columns of a dense QMatrix."""
    num = [[0] * len(vectors) for _ in index]
    for j, vec in enumerate(vectors):
        for key, c in vec.items():
            num[index[key]][j] = c
    return QMatrix.from_ints(num, 1, len(vectors))


def _solve_rho(images, vectors, weights):
    """Each rho(X_b) from its images X_b . vectors, one weight space at a time.

    An image of a weight vector lies in a single weight space w, so it is
    solved against the vectors of weight w alone, restricted to the tensor
    keys they use.  Raises ValueError when an image leaves their span.
    """
    spaces = {}  # weight -> (its vector indices, the (b, j) of its images)
    home = {}  # tensor key -> the weight of the vectors that use it
    for i, (vec, w) in enumerate(zip(vectors, weights)):
        spaces.setdefault(w, ([], []))[0].append(i)
        home.update(dict.fromkeys(vec, w))
    for b, row in enumerate(images):
        for j, image in enumerate(row):
            if image:
                w = home.get(next(iter(image)))
                if w is None or any(home.get(key) != w for key in image):
                    raise ValueError("target not in span of basis")
                spaces[w][1].append((b, j))
    blocks = []
    for idx, targets in spaces.values():
        if targets:
            keys = dict.fromkeys(key for i in idx for key in vectors[i])
            rows = {key: r for r, key in enumerate(keys)}
            target = _matrix([images[b][j] for b, j in targets], rows)
            basis = _matrix([vectors[i] for i in idx], rows)
            blocks.append((idx, targets, solve_columns(basis, target)))
    # one denominator for all: from_ints normalizes each matrix
    den = lcm(*(x.den for _, _, x in blocks))
    dim = len(vectors)
    nums = [[[0] * dim for _ in range(dim)] for _ in images]
    for idx, targets, x in blocks:
        f = den // x.den
        for i, row in zip(idx, x.num):
            for (b, j), y in zip(targets, row):
                nums[b][i][j] = f * y
    return [QMatrix.from_ints(num, den, dim) for num in nums]


def _carries(r, images, vectors):
    """True iff sum_i r[i][j] vectors[i] == images[j] for every j.

    Both sides are compared as integer vectors, scaled by r.den.
    """
    for col, target in zip(zip(*r.num), images):
        image = {}
        for c, v in zip(compress(col, col), compress(vectors, col)):
            for key, y in v.items():
                image[key] = image.get(key, 0) + c * y
        if {k: c for k, c in image.items() if c} != {
            k: r.den * c for k, c in target.items()
        }:
            return False
    return True


def wedge_group_matrix(s, n, k):
    """Minor matrix of an invertible n x n matrix on k-subsets.

    Each k x k minor of s is the minor of its integer rows over den**k.
    """
    subs = subsets(n, k)
    num = s.num
    minors = [
        [_det([[num[r][c] for c in colset] for r in rowset]) for colset in subs]
        for rowset in subs
    ]
    return QMatrix.from_ints(minors, s.den**k)


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    sign = 1
    for j in range(n):
        if a[0][j]:
            minor = [[a[i][c] for c in range(n) if c != j] for i in range(1, n)]
            total += sign * a[0][j] * _det(minor)
        sign = -sign
    return total


class Representation:
    """An irreducible sl_n module with exact matrices for the fixed basis."""

    def __init__(self, L, mu, dim, rho, weights, words, tensor_basis, factors):
        self.L = L
        self.mu = tuple(mu)
        self.dim = dim
        self.rho = rho  # one QMatrix per Lie-algebra basis element
        self.weights = weights  # weight tuple per basis vector
        self.words = words  # lowering word per basis vector
        # the principal grading deg e_i = (h(mu) - h(w_i)) / 2: each lowering
        # step subtracts a simple root alpha, and alpha(h) = 2
        self.grades = [len(word) for word in words]
        self.tensor_basis = tensor_basis  # columns: basis vectors in tensor coords
        self.factors = factors  # exterior-power exponents of the ambient tensor
        self.weight_table = {}
        for i, w in enumerate(weights):
            self.weight_table.setdefault(w, []).append(i)
        # values computed from rho, kept per module: see cached
        self._memo = {}

    # ---------- operators ----------

    def op(self, coords):
        """rho of a Lie algebra element given by its coordinate column."""
        terms = [(c, m) for c, m in zip(self.L.coord_ints(coords), self.rho) if c]
        den = lcm(*(m.den for _, m in terms))
        num = [[0] * self.dim for _ in range(self.dim)]
        cols = range(self.dim)
        for c, m in terms:
            f = c * (den // m.den)
            for out, row in zip(num, m.num):
                for k in compress(cols, row):  # the nonzero entries of row
                    out[k] += f * row[k]
        return QMatrix.from_ints(num, den * coords.den, self.dim)

    def cached(self, key, compute):
        """compute(), kept on this module under key.

        Nothing is kept when compute raises, so a later call raises again.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def rho_e(self):
        return self.cached("rho_e", lambda: self.op(self.L.e_coords))

    def weight_basis(self, lam):
        """The identity columns at the basis indices of weight lam; dim x 0
        when lam is not a weight."""
        idx = self.weight_table.get(tuple(lam), [])
        num = [[int(i == j) for j in idx] for i in range(self.dim)]
        return QMatrix.from_ints(num, cols=len(idx))

    # ---------- GL transport ----------

    def gl_transport(self, s):
        """The action of an invertible rational matrix on this module.

        V^mu sits inside a tensor product of exterior powers, which carries
        the full GL_n action; the subspace is GL-stable, so the action
        restricts.  Conjugation by the result realizes rho(s X s^-1).
        """
        return self.cached(("gl", s.den, tuple(map(tuple, s.num))),
                           lambda: self._gl_transport(s))

    def _gl_transport(self, s):
        if not self.factors:
            return QMatrix.identity(1)
        n = self.L.n
        t = wedge_group_matrix(s, n, self.factors[0])
        for k in self.factors[1:]:
            t = t.kron(wedge_group_matrix(s, n, k))
        return solve_columns(self.tensor_basis, t * self.tensor_basis)

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


def _ambient(n, mu):
    """The tensor product of exterior powers that holds V^mu.

    Returns its factors (the exponents), the position of each key in the
    Kronecker order of its basis, and the highest-weight vector, which spans
    its one-dimensional weight-mu space.
    """
    factors = [k for k in range(1, n) for _ in range(mu[k - 1])]
    index = {
        key: i
        for i, key in enumerate(product(*(subsets(n, k) for k in factors)))
    }
    return factors, index, {tuple(tuple(range(k)) for k in factors): 1}


def _lowering(L):
    """The actions of the lowering operators E_{i+1,i}, one per simple root."""
    return [_action(L.basis[i]) for i in L.lowering_index]


def _module(L, mu, factors, index, vectors, weights, words, rho=None):
    """The Representation on the span of the sparse tensor vectors.

    Without rho, each rho(X_b) is solved from the images X_b . vectors.  A
    given rho is checked against those images instead, and None is returned
    when one of them does not match.
    """
    images = (list(map(_action(x), vectors)) for x in L.basis)
    if rho is None:
        rho = _solve_rho(list(images), vectors, weights)
    elif not all(_carries(r, im, vectors) for r, im in zip(rho, images)):
        return None
    basis = _matrix(vectors, index)
    return Representation(L, mu, len(vectors), rho, weights, words, basis, factors)


def build_irrep(L, mu):
    """Construct the irreducible module with highest weight mu."""
    n = L.n
    mu = tuple(mu)
    if len(mu) != n - 1 or any(c < 0 for c in mu):
        raise ValueError("weight must be dominant with %d coordinates" % (n - 1))
    target_dim = lie.weyl_dim(mu)
    if target_dim > DIM_BOUND:
        raise ValueError(
            "dimension %d exceeds bound %d" % (target_dim, DIM_BOUND)
        )

    factors, index, hw = _ambient(n, mu)
    lowering = _lowering(L)

    # closure under lowering operators, echelonizing per weight level
    ech = Echelon()
    ech.add(_dense(hw, index))
    level = {mu: ech}
    vectors = [hw]
    words = [()]
    weights = [mu]
    vi = 0
    while vi < len(vectors):
        for li in range(n - 1):
            cand = lowering[li](vectors[vi])
            if not cand:
                continue
            alpha = lie.simple_root(n, li + 1)
            w = tuple(a - b for a, b in zip(weights[vi], alpha))
            ech = level.setdefault(w, Echelon())
            if ech.add(_dense(cand, index)):
                vectors.append(cand)
                words.append(words[vi] + (li + 1,))
                weights.append(w)
                if len(vectors) > target_dim:
                    raise RuntimeError("closure exceeded the Weyl dimension")
        vi += 1

    if len(vectors) != target_dim:
        raise RuntimeError(
            "closure produced %d vectors, Weyl dimension is %d"
            % (len(vectors), target_dim)
        )
    return _module(L, mu, factors, index, vectors, weights, words)


def g_e_invariants(rep):
    """The joint kernel of the centralizer of the principal nilpotent."""
    cent = rep.L.centralizer(rep.L.e_coords)
    return joint_kernel([rep.op(x) for x in cent.columns()])


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
    """Read a cached module; None when the entry is missing or corrupted.

    The tensor vectors are replayed from the stored lowering words, each word
    extending the longest of its prefixes replayed before it, and each stored
    rho(X_b) must carry them to the tensor action X_b . vectors.  Their
    span is then a nonzero submodule of V^mu, hence all of it, so an entry
    with Weyl-dimension many nonzero vectors that passes is a basis of V^mu
    with its exact matrices.
    """
    n = L.n
    mu = tuple(mu)
    path = cache_path(cache_dir, n, mu)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        words = [tuple(w) for w in obj["basis_words"]]
        rho = [QMatrix.from_obj(o) for o in obj["rho"]]
        header = (obj["version"], obj["n"], obj["mu"], obj["dim"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError):
        # OverflowError: an entry Infinity; ZeroDivisionError: an entry "p/0"
        return None
    dim = lie.weyl_dim(mu)
    if (
        header != (CACHE_VERSION, n, list(mu), dim)
        or len(words) != dim
        or len(rho) != L.dim
        or any((r.rows, r.cols) != (dim, dim) for r in rho)
        or any(li not in range(1, n) for word in words for li in word)
    ):
        return None
    factors, index, hw = _ambient(n, mu)
    lowering = _lowering(L)
    replayed = {(): (hw, mu)}  # word -> (vector, weight)
    for word in words:
        k = 0
        while k < len(word) and word[: k + 1] in replayed:
            k += 1
        v, w = replayed[word[:k]]
        for li in word[k:]:
            v = lowering[li - 1](v)
            w = tuple(a - b for a, b in zip(w, lie.simple_root(n, li)))
            if not v:
                return None
        replayed[word] = (v, w)
    vectors = [replayed[word][0] for word in words]
    weights = [replayed[word][1] for word in words]
    return _module(L, mu, factors, index, vectors, weights, words, rho)


def get_rep(L, mu, cache_dir=None):
    if cache_dir:
        rep = load_rep(L, mu, cache_dir)
        if rep is not None:
            return rep
    rep = build_irrep(L, mu)
    if cache_dir:
        save_rep(rep, cache_dir)
    return rep
