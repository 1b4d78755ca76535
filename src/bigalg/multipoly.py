"""Sparse multivariate polynomials with exact rational coefficients.

Exponent vectors are packed into single Python integers, 16 bits per
variable, so that multiplying two monomials is one integer addition.  Every
exponent lies in 0..2**15 - 1, so that a sum of two keys cannot carry into
the next field; a product past the range raises OverflowError.  The
constant monomial is key 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1


def rat(*args) -> Fraction:
    """Coerce ints, 'p/q' strings or rationals to the coefficient type."""
    return Fraction(*args)


ZERO = rat(0)
ONE = rat(1)


class VarSet:
    """An ordered set of named variables with a fixed packing layout.

    Each variable carries a positive integer weight, 1 unless given; a
    monomial's degree is the weighted sum of its exponents.
    """

    __slots__ = ("names", "weights", "index", "_units", "_tops")

    def __init__(self, names, weights=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.weights = (1,) * len(self.names) if weights is None else tuple(weights)
        if len(self.weights) != len(self.names):
            raise ValueError("need one weight per variable")
        if not all(isinstance(w, int) and w > 0 for w in self.weights):
            raise ValueError("weights must be positive integers")
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self._units = tuple(1 << (_SHIFT * i) for i in range(len(self.names)))
        # the top bit of every field, which no packed exponent sets
        self._tops = sum(self._units) << (_SHIFT - 1)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return "VarSet(%r, %r)" % (self.names, self.weights)

    def pack(self, exps):
        if len(exps) != len(self.names):
            raise ValueError("exponent arity mismatch")
        key = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= _MASK >> 1:
                raise OverflowError(
                    "exponent %s of %s out of packing range" % (e, self.names[i])
                )
            key += e << (_SHIFT * i)
        return key

    def check_key(self, key):
        """Raise OverflowError unless key, a sum of two packed keys or the
        bitwise or of such sums, keeps its exponents in the packing range."""
        if key & self._tops:
            raise OverflowError("exponent past %d in a product" % (_MASK >> 1))

    def unpack(self, key):
        return tuple((key >> (_SHIFT * i)) & _MASK for i in range(len(self.names)))

    def degree(self, key):
        """The weighted degree of the monomial key."""
        return sum(e * w for e, w in zip(self.unpack(key), self.weights))

    def support(self, key):
        """[(i, e)] for every variable i with exponent e != 0, i ascending.

        Walks only the nonzero fields of the key.
        """
        out = []
        while key:
            shift = (key & -key).bit_length() - 1
            shift -= shift % _SHIFT
            e = (key >> shift) & _MASK
            out.append((shift // _SHIFT, e))
            key -= e << shift
        return out


def _check_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
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
        return cls(ring, {0: c}, _trusted=True)

    @classmethod
    def variable(cls, ring, name):
        i = ring.index[name]
        return cls(ring, {ring._units[i]: ONE}, _trusted=True)

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

    def weighted_degree(self):
        """The largest weighted degree of a term; -1 for zero."""
        return max(map(self.ring.degree, self.terms), default=-1)

    def coeff(self, exps):
        return self.terms.get(self.ring.pack(exps), ZERO)

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
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        self.ring.check_key(reduce(or_, out, 0))
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
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0] == other
        return False

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # ---------- substitution ----------

    def subs(self, target_ring, mapping):
        """Substitute each variable by a polynomial (or rational) in target_ring."""
        images = []
        for nm in self.ring.names:
            img = mapping[nm]
            if not isinstance(img, MultiPoly):
                img = MultiPoly.const(target_ring, img)
            elif img.ring is not target_ring and img.ring != target_ring:
                raise ValueError("substitution image in wrong ring")
            images.append(img)
        return substitute(
            self, images, MultiPoly.zero(target_ring), MultiPoly.const(target_ring, 1)
        )

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


def monomial_values(images, one):
    """A memoized map from a monomial key to its value at images.

    images[i] is the value of variable i and one the identity of a
    commutative ring whose elements need ``*`` by an image.  Each distinct
    monomial is computed once, as the monomial with its first nonzero
    exponent lowered by one, times that variable's image.
    """
    memo = {0: one}

    def value(key):
        chain = []
        while key not in memo:
            i = ((key & -key).bit_length() - 1) // _SHIFT
            chain.append((key, i))
            key -= 1 << (_SHIFT * i)
        v = memo[key]
        for key, i in reversed(chain):
            v = memo[key] = v * images[i]
        return v

    return value


def substitute(poly, images, zero, one):
    """poly with variable i replaced by images[i], in any commutative ring.

    zero and one are the ring's identities; its elements need ``+``, ``*``
    by an image and ``*`` by a rational.
    """
    value = monomial_values(images, one)
    total = zero
    for k, c in poly.terms.items():
        total = total + value(k) * c
    return total
