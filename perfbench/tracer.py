"""An external call tracer for the ``bigalg`` package.

It wraps, from outside the program, every public function of every
``bigalg`` module and every public method (plus ``__init__`` and the
arithmetic operators) of every class defined there.  Functions that other
``bigalg`` modules re-imported are rebound in those namespaces too, as are
module-level lists and dicts that hold them (``acceptance.CRITERIA``), so a
call through any name is counted once under the defining module.

Per traced function it records calls, inclusive time and self time (the
inclusive time minus the time of traced calls made inside it, kept with a
span stack), read from ``timer``.  Probes add exact counts at chosen
functions.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

# Dunder methods worth tracing; other dunders are protocol plumbing.
TRACED_DUNDERS = frozenset(
    ("__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__rsub__",
     "__neg__", "__pow__")
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount


def _entry_stats(m):
    zeros = ints = 0
    for row in m.a:
        for x in row:
            if not x:
                zeros += 1
                ints += 1
            elif x.denominator == 1:
                ints += 1
    return zeros, ints, m.rows * m.cols


def _probe_qmatrix_mul(stat, args, kwargs, result):
    a, b = args
    if type(b) is not type(a):
        return
    stat.add("madds", a.rows * a.cols * b.cols)
    for m in (a, b):
        zeros, ints, cells = _entry_stats(m)
        stat.add("zeros", zeros)
        stat.add("ints", ints)
        stat.add("entries", cells)


def _probe_kernel(stat, args, kwargs, result):
    m = args[0]
    stat.add("cells", m.rows * m.cols)


def _probe_echelon_add(stat, args, kwargs, result):
    stat.add("useful", 1 if result else 0)


def _probe_multipoly_mul(stat, args, kwargs, result):
    a, b = args
    if type(b) is type(a):
        stat.add("term_pairs", len(a.terms) * len(b.terms))


def _probe_build_irrep(stat, args, kwargs, result):
    stat.add("tensor_dim", result.tensor_basis.rows)


def _probe_load_rep(stat, args, kwargs, result):
    stat.add("hits", 0 if result is None else 1)


def _probe_save_rep(stat, args, kwargs, result):
    stat.add("bytes", os.path.getsize(result))


def _probe_derive_relations(stat, args, kwargs, result):
    _, info = result
    stat.add("monomials", sum(row["monomials"] for row in info))
    stat.add("kernel", sum(row["kernel"] for row in info))


PROBES = {
    "linalg.QMatrix.__mul__": _probe_qmatrix_mul,
    "linalg.kernel": _probe_kernel,
    "linalg.Echelon.add": _probe_echelon_add,
    "multipoly.MultiPoly.__mul__": _probe_multipoly_mul,
    "reps.build_irrep": _probe_build_irrep,
    "reps.load_rep": _probe_load_rep,
    "reps.save_rep": _probe_save_rep,
    "bigalgebra.derive_relations": _probe_derive_relations,
}


def _is_public(name):
    return not name.startswith("_") or name in TRACED_DUNDERS


def package_modules():
    """bigalg and all of its modules, imported."""
    pkg = importlib.import_module("bigalg")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module("bigalg." + info.name))
    return mods


class Tracer:
    """Install with ``install()``, read ``stats``, restore with ``uninstall()``."""

    def __init__(self, timer=perf_counter):
        self.timer = timer
        self.stats = {}
        self._stack = []
        self._patches = []  # (setter, owner, key, original), in install order

    # ---------- wrapping ----------

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        probe = PROBES.get(key)
        timer = self.timer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = timer()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = timer() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.depth:  # inclusive time of the outermost call only
                    stat.total_s += dt
                if stack:
                    stack[-1] += dt
            if probe is not None:
                t1 = timer()
                probe(stat, args, kwargs, result)
                if stack:  # probe time belongs to no span
                    stack[-1] += timer() - t1
            return result

        return traced

    def _set(self, owner, name, value, original):
        setattr(owner, name, value)
        self._patches.append((setattr, owner, name, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrapped = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    w = self._wrap(obj, "%s.%s" % (short, obj.__qualname__))
                    wrapped[id(obj)] = (obj, w)
                    self._set(mod, name, w, obj)
                elif inspect.isclass(obj):
                    self._install_class(obj, short)
        # rebind re-imported names and container entries everywhere
        for mod in modules:
            for name, obj in sorted(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj and getattr(mod, name) is obj:
                    self._set(mod, name, hit[1], obj)
                elif type(obj) is list:
                    for i, item in enumerate(obj):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            obj[i] = hit[1]
                            self._patches.append((_setitem, obj, i, item))
                elif type(obj) is dict:
                    for k, item in list(obj.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            obj[k] = hit[1]
                            self._patches.append((_setitem, obj, k, item))
        return self

    def _install_class(self, cls, short):
        for name, raw in sorted(vars(cls).items()):
            if not _is_public(name):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not inspect.isfunction(fn):
                    continue
                w = type(raw)(self._wrap(fn, "%s.%s" % (short, fn.__qualname__)))
            elif inspect.isfunction(raw):
                w = self._wrap(raw, "%s.%s" % (short, raw.__qualname__))
            else:
                continue
            self._set(cls, name, w, raw)

    def uninstall(self):
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ---------- results ----------

    def snapshot(self):
        """Plain-dict view: key -> {calls, total_s, self_s, extra counts}."""
        out = {}
        for key, st in self.stats.items():
            if not st.calls:
                continue
            row = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
            row.update(st.extra)
            out[key] = row
        return out


def _setitem(container, key, value):
    container[key] = value


def layer_value(row, stat):
    """One reported statistic of a snapshot row (0 when never called)."""
    if not row:
        return 0
    if stat == "zero_frac":
        return row.get("zeros", 0) / row["entries"] if row.get("entries") else 0
    if stat == "int_frac":
        return row.get("ints", 0) / row["entries"] if row.get("entries") else 0
    if stat == "useful_ratio":
        return row.get("useful", 0) / row["calls"]
    return row.get(stat, 0)
