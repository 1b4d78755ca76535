"""Sparse multivariate polynomials with exact rational coefficients.

Exponent vectors are packed into single Python integers, 16 bits per
variable, so that multiplying two monomials is one integer addition.
Variables declared Laurent carry an offset of 2**15 and may take negative
exponents; all exponents must stay inside the 16-bit window.
"""

from __future__ import annotations

from fractions import Fraction

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_LAURENT_OFFSET = 1 << 15


def rat(*args) -> Fraction:
    """Coerce ints, 'p/q' strings or rationals to the coefficient type."""
    return Fraction(*args)


ZERO = rat(0)
ONE = rat(1)


class VarSet:
    """An ordered set of named variables with a fixed packing layout."""

    __slots__ = ("names", "laurent", "index", "offsets", "origin", "_units")

    def __init__(self, names, laurent=()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.laurent = frozenset(laurent)
        stray = self.laurent - set(self.names)
        if stray:
            raise ValueError("laurent variables not in set: %s" % sorted(stray))
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.offsets = tuple(
            _LAURENT_OFFSET if nm in self.laurent else 0 for nm in self.names
        )
        self.origin = sum(off << (_SHIFT * i) for i, off in enumerate(self.offsets))
        self._units = tuple(1 << (_SHIFT * i) for i in range(len(self.names)))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.names, self.laurent))

    def __repr__(self):
        return "VarSet(%r)" % (self.names,)

    def pack(self, exps):
        if len(exps) != len(self.names):
            raise ValueError("exponent arity mismatch")
        key = 0
        for i, (e, off) in enumerate(zip(exps, self.offsets)):
            v = e + off
            if not 0 <= v <= _MASK:
                raise OverflowError(
                    "exponent %s of %s out of packing range" % (e, self.names[i])
                )
            key += v << (_SHIFT * i)
        return key

    def unpack(self, key):
        return tuple(
            ((key >> (_SHIFT * i)) & _MASK) - off
            for i, off in enumerate(self.offsets)
        )

    def exponent(self, key, i):
        return ((key >> (_SHIFT * i)) & _MASK) - self.offsets[i]

    def total_degree(self, key):
        return sum(self.unpack(key))


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise ValueError("variable-set mismatch: %r vs %r" % (a.ring, b.ring))


class MultiPoly:
    """A polynomial as a map packed-exponent -> nonzero rational coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _trusted=False):
        self.ring = ring
        if _trusted:
            self.terms = terms
        else:
            self.terms = {k: rat(c) for k, c in terms.items() if c != 0}

    # ---------- constructors ----------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, _trusted=True)

    @classmethod
    def const(cls, ring, c):
        c = rat(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {ring.origin: c}, _trusted=True)

    @classmethod
    def variable(cls, ring, name):
        i = ring.index[name]
        return cls(ring, {ring.origin + ring._units[i]: ONE}, _trusted=True)

    @classmethod
    def monomial(cls, ring, exps, c=1):
        c = rat(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {ring.pack(exps): c}, _trusted=True)

    # ---------- queries ----------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        td = self.ring.total_degree
        return max(td(k) for k in self.terms)

    def is_homogeneous(self):
        """The common total degree of all terms, or None."""
        if not self.terms:
            return 0
        td = self.ring.total_degree
        degs = {td(k) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def weighted_degree(self, weights):
        """Max of sum(e_i * weights[name_i]); -1 for zero."""
        if not self.terms:
            return -1
        ws = [weights[nm] for nm in self.ring.names]
        best = None
        for k in self.terms:
            e = self.ring.unpack(k)
            d = sum(ei * wi for ei, wi in zip(e, ws))
            best = d if best is None else max(best, d)
        return best

    def coeff(self, exps):
        return self.terms.get(self.ring.pack(exps), ZERO)

    def var_range(self, name):
        """(min, max) exponent of a variable over the support; None if zero."""
        if not self.terms:
            return None
        i = self.ring.index[name]
        exps = [self.ring.exponent(k, i) for k in self.terms]
        return min(exps), max(exps)

    # ---------- arithmetic ----------

    def __neg__(self):
        return MultiPoly(self.ring, {k: -c for k, c in self.terms.items()}, _trusted=True)

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        _check_same_ring(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly(self.ring, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        _check_same_ring(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        origin = self.ring.origin
        out = {}
        get = out.get
        for k1, c1 in a.items():
            k0 = k1 - origin
            for k2, c2 in b.items():
                k = k0 + k2
                s = get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return MultiPoly(self.ring, out, _trusted=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        return MultiPoly(
            self.ring, {k: c * v for k, v in self.terms.items()}, _trusted=True
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        result = MultiPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if not self.terms:
            return other == 0
        if len(self.terms) == 1 and self.ring.origin in self.terms:
            return self.terms[self.ring.origin] == other
        return False

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # ---------- calculus and substitution ----------

    def diff(self, name):
        """Formal partial derivative with respect to one variable."""
        if name not in self.ring.index:
            raise ValueError("unknown variable %r" % name)
        i = self.ring.index[name]
        unit = self.ring._units[i]
        exp = self.ring.exponent
        out = {}
        for k, c in self.terms.items():
            e = exp(k, i)
            if e:
                out[k - unit] = c * e
        return MultiPoly(self.ring, out, _trusted=True)

    def shift_var(self, name, step):
        """Multiply by name**step (step may be negative for Laurent vars)."""
        if step == 0 or not self.terms:
            return self
        i = self.ring.index[name]
        unit = self.ring._units[i]
        off = self.ring.offsets[i]
        exp = self.ring.exponent
        delta = step * unit
        out = {}
        for k, c in self.terms.items():
            e = exp(k, i) + step
            if not -off <= e <= _MASK - off:
                raise OverflowError("shifted exponent out of packing range")
            out[k + delta] = c
        return MultiPoly(self.ring, out, _trusted=True)

    def evaluate(self, values):
        """Evaluate at a rational point given as {name: value}."""
        point = [rat(values[nm]) for nm in self.ring.names]
        total = ZERO
        for k, c in self.terms.items():
            v = c
            for i, e in enumerate(self.ring.unpack(k)):
                if e:
                    v = v * point[i] ** e
            total += v
        return total

    def subs(self, target_ring, mapping):
        """Substitute each variable by a polynomial (or rational) in target_ring."""
        images = []
        for nm in self.ring.names:
            img = mapping[nm]
            if not isinstance(img, MultiPoly):
                img = MultiPoly.const(target_ring, img)
            elif img.ring != target_ring:
                raise ValueError("substitution image in wrong ring")
            images.append(img)
        powers = [{0: MultiPoly.const(target_ring, 1)} for _ in images]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        total = MultiPoly.zero(target_ring)
        for k, c in self.terms.items():
            term = MultiPoly.const(target_ring, c)
            for i, e in enumerate(self.ring.unpack(k)):
                if e < 0:
                    raise ValueError("cannot substitute into negative exponent")
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    # ---------- presentation ----------

    def sorted_terms(self):
        """Terms as (exponent tuple, coeff), graded-lex descending."""
        items = [(self.ring.unpack(k), c) for k, c in self.terms.items()]
        items.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return items

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            factors = []
            for nm, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(nm)
                elif e:
                    factors.append("%s^%d" % (nm, e))
            mono = "*".join(factors)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (c, mono))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__

    # ---------- serialization ----------

    def to_obj(self):
        terms = [[list(e), str(c)] for e, c in sorted(
            ((self.ring.unpack(k), c) for k, c in self.terms.items()),
            key=lambda t: t[0],
        )]
        return {"variables": list(self.ring.names), "terms": terms}

    @classmethod
    def from_obj(cls, obj, ring=None):
        if ring is None:
            ring = VarSet(obj["variables"])
        elif list(ring.names) != list(obj["variables"]):
            raise ValueError("variable-set mismatch in serialized polynomial")
        terms = {}
        for exps, c in obj["terms"]:
            terms[ring.pack(tuple(exps))] = rat(c)
        return cls(ring, terms)
