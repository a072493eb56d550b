"""Minimal multivariate polynomials over Q, for the symbolic Frobenius
computations (non-ordinary locus equation, structural matrix identities).

Monomials are sorted tuples of (variable, exponent); coefficients are
Fractions so p-powers like 1/p survive exactly.
"""

from fractions import Fraction


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    @staticmethod
    def const(c):
        c = Fraction(c)
        return Poly({(): c} if c else {})

    @staticmethod
    def var(name):
        return Poly({((name, 1),): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly()
        p.terms = out
        return p

    def __neg__(self):
        p = Poly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly()
        p.terms = out
        return p

    __rmul__ = __mul__
    __radd__ = __add__

    def reduce_mod(self, p):
        """Drop terms whose coefficient has positive p-valuation; error on
        denominators divisible by p (not p-integral)."""
        out = Poly()
        for m, c in self.terms.items():
            if c.denominator % p == 0:
                raise ArithmeticError(f"coefficient {c} is not p-integral")
            if c.numerator % p != 0:
                out.terms[m] = c
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def _mono_mul(m1, m2):
    d = {}
    for v, e in m1:
        d[v] = d.get(v, 0) + e
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))
