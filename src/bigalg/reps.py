"""Irreducible sl_n modules with exact matrices and weight decompositions.

A module V^mu is generated inside the tensor product over k of the
symmetric powers Sym^{mu_k}(Lambda^k C^n), whose Cartan component it is
(Fulton and Harris, Representation Theory, Lecture 15): start from the
highest-weight vector, then close up under the lowering operators,
echelonizing one weight level at a time.  A tensor vector is sparse, a dict
from keys to integers.  A key holds one sorted k-subset per unit of mu_k,
and the subsets of each run of equal exterior powers are sorted, so a key
is a monomial of the symmetric powers and the ambient's size is polynomial
in mu.  The Lie algebra acts on a key run by run as a derivation, and GL_n
through the minors of its matrix.  Basis vectors remember their lowering
word, which keeps every derived basis reproducible, and each rho(X_b) is
solved one weight space at a time.
"""

from __future__ import annotations

import json
import os
from bisect import bisect
from functools import cache
from itertools import combinations, combinations_with_replacement, compress
from math import lcm

from .linalg import (
    Echelon,
    QMatrix,
    column_solver,
    joint_kernel,
    solve_columns,
)
from . import lie

CACHE_VERSION = 2
DIM_BOUND = 400  # largest module dimension built


@cache
def subsets(n, k):
    return tuple(combinations(range(n), k))


def _insert(run, t):
    """The sorted run with t added."""
    j = bisect(run, t)
    return run[:j] + (t,) + run[j:]


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


def _action(x, runs):
    """The map vec -> x . vec on sparse tensor vectors, for an n x n integer
    matrix x and the runs of the ambient's keys.

    x acts on each exterior factor as a derivation, and on a symmetric power
    and the tensor product as the sum over the factors: a subset repeated m
    times in its run moves once with coefficient m, and the run is sorted
    again.  One entry list, one table of subset moves and one table of run
    moves serve every vector the map is applied to.
    """
    if x.den != 1:
        raise ValueError("the action needs an integer matrix")
    entries = [
        (a, b, c) for a, row in enumerate(x.num) for b, c in enumerate(row) if c
    ]
    # a run of one subset is moved through the subset table, without slicing
    # the key: most factors of most modules are such runs, and sending them
    # through move as well makes the builds of such modules ~15% slower
    singles = [lo for lo, hi in runs if hi - lo == 1]
    longs = [(lo, hi) for lo, hi in runs if hi - lo > 1]
    wedges = {}  # subset -> its image under x, shared by all vectors and runs
    moves = {}  # run of two or more subsets -> its image under x

    def move(run):
        out = {}
        for i, s in enumerate(run):
            if i and run[i - 1] == s:
                continue  # moved with the first copy
            if s not in wedges:
                wedges[s] = _wedge(entries, s)
            m = run.count(s)
            rest = run[:i] + run[i + 1:]
            for t, c in wedges[s]:
                r = _insert(rest, t)
                out[r] = out.get(r, 0) + m * c
        return [(r, c) for r, c in out.items() if c]

    def act(vec):
        out = {}
        for key, coef in vec.items():
            for f in singles:
                s = key[f]
                if s not in wedges:
                    wedges[s] = _wedge(entries, s)
                for t, c in wedges[s]:
                    k = key[:f] + (t,) + key[f + 1:]
                    out[k] = out.get(k, 0) + coef * c
            for lo, hi in longs:
                run = key[lo:hi]
                if run not in moves:
                    moves[run] = move(run)
                for r, c in moves[run]:
                    k = key[:lo] + r + key[hi:]
                    out[k] = out.get(k, 0) + coef * c
        return {k: c for k, c in out.items() if c}

    return act


def _induced(s, runs):
    """The map vec -> s . vec on sparse tensor vectors, for an invertible
    n x n matrix s and the runs of the ambient's keys, with integer
    coefficients over s.den ** (the total size of a key's subsets).

    s acts on each exterior factor by the column of k x k minors of s.num
    at its subset, and on a symmetric power and the tensor product factor
    by factor, one run after another.  A run's image is the image of the
    run without its last subset times the column of that subset, each term
    sorted again.  One table of run images, prefixes and single subsets
    included, serves every vector.
    """
    n = len(s.num)
    moves = {}  # run -> its image under s

    def move(run):
        if len(run) == 1:
            c = run[0]
            rows = [[row[j] for j in c] for row in s.num]  # the columns c of s
            return [
                ((r,), m) for r in subsets(n, len(c)) if (m := _det([rows[i] for i in r]))
            ]
        head, last = run[:-1], run[-1:]
        for part in (head, last):
            if part not in moves:
                moves[part] = move(part)
        out = {}
        for r, a in moves[head]:
            for (t,), m in moves[last]:
                k = _insert(r, t)
                out[k] = out.get(k, 0) + a * m
        return [(r, a) for r, a in out.items() if a]

    def act(vec):
        for lo, hi in runs:
            out = {}
            for key, coef in vec.items():
                run = key[lo:hi]
                if run not in moves:
                    moves[run] = move(run)
                head, tail = key[:lo], key[hi:]
                for r, c in moves[run]:
                    k = head + r + tail
                    out[k] = out.get(k, 0) + coef * c
            vec = out
        return vec

    return act


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


def _dense(vec, index):
    col = [0] * len(index)
    for key, c in vec.items():
        col[index[key]] = c
    return col


def _matrix(vectors, index, den=1):
    """The sparse tensor vectors over den as the columns of a dense QMatrix."""
    num = [[0] * len(vectors) for _ in index]
    for j, vec in enumerate(vectors):
        for key, c in vec.items():
            num[index[key]][j] = c
    return QMatrix.from_ints(num, den, len(vectors))


def _solve_rho(images, vectors, weights):
    """Each rho(X_b) from its images X_b . vectors, one weight space at a time.

    An image of a weight vector lies in a single weight space w, so it is
    solved against the vectors of weight w alone, restricted to the tensor
    keys they use.  Raises ValueError when the vectors of a weight are
    dependent or an image leaves their span.
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


class Representation:
    """An irreducible sl_n module with exact matrices for the fixed basis."""

    def __init__(self, L, mu, dim, rho, weights, words, vectors, index, runs):
        self.L = L
        self.mu = tuple(mu)
        self.dim = dim
        self.rho = rho  # one QMatrix per Lie-algebra basis element
        self.weights = weights  # weight tuple per basis vector
        self.words = words  # lowering word per basis vector
        # the principal grading deg e_i = (h(mu) - h(w_i)) / 2: each lowering
        # step subtracts a simple root alpha, and alpha(h) = 2
        self.grades = [len(word) for word in words]
        self.vectors = vectors  # basis vectors as sparse tensor vectors
        self.index = index  # tensor key -> its row in tensor_basis
        self.runs = runs  # (start, end) in a key of each symmetric power
        self.weight_table = {}
        for i, w in enumerate(weights):
            self.weight_table.setdefault(w, []).append(i)
        # values computed on first read, kept per module: see cached
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

    @property
    def tensor_basis(self):
        """The basis vectors as the columns of a tensor dim x dim QMatrix."""
        return self.cached("tensor_basis", lambda: _matrix(self.vectors, self.index))

    def weight_basis(self, lam):
        """The identity columns at the basis indices of weight lam; dim x 0
        when lam is not a weight."""
        idx = self.weight_table.get(tuple(lam), [])
        num = [[int(i == j) for j in idx] for i in range(self.dim)]
        return QMatrix.from_ints(num, cols=len(idx))

    # ---------- GL transport ----------

    def gl_transport(self, s):
        """The action of an invertible rational matrix on this module.

        V^mu sits inside a tensor product of symmetric powers of exterior
        powers, which carries the full GL_n action; the subspace is
        GL-stable, so the action restricts.  Conjugation by the result
        realizes rho(s X s^-1).
        """
        return self.cached(("gl", s.den, tuple(map(tuple, s.num))),
                           lambda: self._gl_transport(s))

    def _gl_transport(self, s):
        images = list(map(_induced(s, self.runs), self.vectors))
        den = s.den ** sum(k * m for k, m in enumerate(self.mu, 1))
        # one elimination of tensor_basis, kept on the module, serves every
        # transport of it
        solve = self.cached("solver", lambda: column_solver(self.tensor_basis))
        return solve(_matrix(images, self.index, den))

    # ---------- serialization ----------

    def to_obj(self):
        return {
            "version": CACHE_VERSION,
            "n": self.L.n,
            "mu": list(self.mu),
            "dim": self.dim,
            "basis_words": [list(w) for w in self.words],
        }


def _ambient(n, mu):
    """The tensor product of symmetric powers of exterior powers that holds
    V^mu.

    A key holds one k-subset per unit of mu_k, in runs of equal k.  Returns
    the (start, end) positions of the runs in a key, the position of each
    key in the order of the basis (the product over k of the sorted
    mu_k-multisets of k-subsets, flattened), and the highest-weight vector,
    which spans its one-dimensional weight-mu space.
    """
    runs, keys, hw = [], [()], ()
    for k, m in enumerate(mu, 1):
        if m:
            runs.append((len(hw), len(hw) + m))
            hw += (tuple(range(k)),) * m
            power = list(combinations_with_replacement(subsets(n, k), m))
            keys = [key + run for key in keys for run in power]
    return runs, dict(zip(keys, range(len(keys)))), {hw: 1}


def _lowering(L, runs):
    """The actions of the lowering operators E_{i+1,i}, one per simple root."""
    return [_action(L.basis[i], runs) for i in L.lowering_index]


def _module(L, mu, runs, index, vectors, weights, words):
    """The Representation on the span of the sparse tensor vectors, each
    rho(X_b) solved from the images X_b . vectors.

    Raises ValueError when the vectors are dependent or an image leaves
    their span.
    """
    images = [list(map(_action(x, runs), vectors)) for x in L.basis]
    rho = _solve_rho(images, vectors, weights)
    return Representation(L, mu, len(vectors), rho, weights, words, vectors, index, runs)


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

    runs, index, hw = _ambient(n, mu)
    lowering = _lowering(L, runs)

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
    return _module(L, mu, runs, index, vectors, weights, words)


def g_e_invariants(rep):
    """The joint kernel of the centralizer g^e of the principal nilpotent e.

    A regular nilpotent commutes only with the polynomials in itself, so
    g^e is spanned by e, e^2, ..., e^(n-1) (Kostant, "The principal
    three-dimensional subgroup...", Amer. J. Math. 81, 1959).
    """
    L = rep.L
    powers = [L.e]
    for _ in range(L.n - 2):
        powers.append(powers[-1] * L.e)
    return joint_kernel([rep.op(L.coords_of(p)) for p in powers])


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

    An entry holds the lowering words of the basis in the order a build
    finds them: the first is (), and each later word is an earlier word
    plus one letter, with the pairs (position of that word, letter)
    strictly increasing.  Each word is replayed from that earlier word with
    one lowering, and rho is solved from the vectors as a build solves it,
    which raises when they are dependent or an image leaves their span.
    Their span is then a nonzero submodule of V^mu, hence all of it, so an
    entry of Weyl-dimension many words that passes is a basis of V^mu.
    """
    n = L.n
    mu = tuple(mu)
    path = cache_path(cache_dir, n, mu)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        words = [tuple(w) for w in obj.pop("basis_words")]
    except (ValueError, KeyError, TypeError, AttributeError):
        # AttributeError: a JSON value other than an object
        return None
    dim = lie.weyl_dim(mu)
    if (
        # the header is all that is left: an entry of another version, or
        # with a field beside the words, is refused
        obj != {"version": CACHE_VERSION, "n": n, "mu": list(mu), "dim": dim}
        or len(words) != dim
        or words[0] != ()
        # True and 1.0 pass a range test, so a letter must be an int
        or any(type(li) is not int or not 0 < li < n for word in words for li in word)
    ):
        return None
    runs, index, hw = _ambient(n, mu)
    lowering = _lowering(L, runs)
    vectors, weights = [hw], [mu]
    position = {(): 0}  # word -> its position
    last = (0, 0)
    for word in words[1:]:
        if not word or word[:-1] not in position:
            return None
        step = (position[word[:-1]], word[-1])
        if step <= last:
            return None
        last = step
        i, li = step
        v = lowering[li - 1](vectors[i])
        if not v:
            return None
        position[word] = len(vectors)
        vectors.append(v)
        weights.append(tuple(a - b for a, b in zip(weights[i], lie.simple_root(n, li))))
    try:
        return _module(L, mu, runs, index, vectors, weights, words)
    except ValueError:
        return None


def get_rep(L, mu, cache_dir=None):
    if cache_dir:
        rep = load_rep(L, mu, cache_dir)
        if rep is not None:
            return rep
    rep = build_irrep(L, mu)
    if cache_dir:
        save_rep(rep, cache_dir)
    return rep
