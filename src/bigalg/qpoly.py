"""Laurent polynomials in the grading variable q with integer coefficients.

Exponents are Fractions in general (half-integer gradings occur before the
usual shifts), normalized to ints whenever possible.
"""

from __future__ import annotations

from fractions import Fraction


def _norm_exp(e):
    e = Fraction(e)
    return int(e) if e.denominator == 1 else e


class QPoly:
    """Finitely supported map exponent -> integer coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    self.coeffs[_norm_exp(e)] = c

    @classmethod
    def q_power(cls, e, c=1):
        return cls({e: c})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def from_pairs(cls, pairs):
        out = {}
        for e, c in pairs:
            e = _norm_exp(e)
            out[e] = out.get(e, 0) + c
        return cls(out)

    def pairs(self):
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = _norm_exp(e1 + e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return QPoly(out)

    def scale(self, c):
        return QPoly({e: c * v for e, v in self.coeffs.items()})

    def shift(self, delta):
        return QPoly({_norm_exp(e + delta): c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def eval_at_one(self):
        return sum(self.coeffs.values())

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else None

    def nonnegative(self):
        return all(c >= 0 for c in self.coeffs.values())

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.pairs():
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                power = "q" if e == 1 else "q^%s" % e
                bits.append(head + power)
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__

    def to_pairs_obj(self):
        return [[str(e) if isinstance(e, Fraction) else e, c] for e, c in self.pairs()]


def geometric_quotient(numer_exps, denom_exps):
    """Expand prod(1 - q^a) / prod(1 - q^b) when the quotient is a polynomial."""
    num = QPoly.one()
    for a in numer_exps:
        num = num * (QPoly.one() - QPoly.q_power(a))
    for b in denom_exps:
        num = _exact_div_one_minus(num, b)
    return num


def _exact_div_one_minus(p, b):
    """Divide by (1 - q^b) exactly; raises when the division is not exact."""
    coeffs = dict(p.coeffs)
    out = {}
    bound = (p.max_exp() or 0) + 1
    while coeffs:
        e = min(coeffs)
        if e >= bound:
            raise ValueError("quotient by (1 - q^%s) is not a polynomial" % b)
        c = coeffs.pop(e)
        out[e] = out.get(e, 0) + c
        # (1 - q^b) * c q^e  =  c q^e - c q^{e+b}
        e2 = e + b
        s = coeffs.get(e2, 0) + c
        if s:
            coeffs[e2] = s
        elif e2 in coeffs:
            del coeffs[e2]
    return QPoly(out)
