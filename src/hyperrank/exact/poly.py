"""Dense univariate polynomials over Q, exact throughout.

Coefficients are ascending (coeffs[i] multiplies x^i) and stored as Fraction.
The zero polynomial has an empty coefficient tuple and degree -1.  Everything
here is desk scale (degree <= a few dozen), so the quadratic algorithms are
fine and favored for being auditable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ..errors import BothZero, ZeroPolynomial


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # --- constructors ---

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    # --- basics ---

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # __bool__, __eq__, __hash__: without them truth is True, == identity
    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # --- ring ops ---

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        if self.degree < other.degree:
            return QPoly.zero(), self
        rem = list(self.coeffs)
        lead = other.leading()
        dq = self.degree - other.degree
        quo = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return QPoly(quo), QPoly(rem[:other.degree])

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other.coeffs} does not divide {self.coeffs}")
        return q

    # --- derivative and monic part ---

    def derivative(self):
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        lead = self.leading()
        if lead == 1:
            return self
        return QPoly([c / lead for c in self.coeffs])

    # --- integer normal forms ---

    def denominator_lcm(self):
        return math.lcm(*(c.denominator for c in self.coeffs))

    def int_coeffs(self):
        """Primitive integer coefficient list with positive leading coefficient.

        Raises ZeroPolynomial on the zero polynomial.
        """
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no primitive part")
        d = self.denominator_lcm()
        ints = [c.numerator * (d // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return ints


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    return QPoly((x,))


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic gcd over Q; gcd(f, 0) = monic f; gcd(0, 0) raises BothZero.

    Fraction-free: Euclid with pseudo-remainders on integer primitive parts,
    each remainder reduced to its primitive part (primitive PRS).
    """
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    if g.is_zero():
        return f.monic()
    if f.is_zero():
        return g.monic()
    a, b = f.int_coeffs(), g.int_coeffs()
    while b:
        r = _pseudo_rem(a, b)
        content = math.gcd(*r)
        a, b = b, [x // content for x in r]
    return QPoly(a).monic()


def _pseudo_rem(a, b):
    """Remainder of lc(b)^k * a by b, k <= deg a - deg b + 1; ascending int
    lists."""
    a = list(a)
    lead, tail = b[-1], b[:-1]
    while len(a) >= len(b):
        c = a.pop()
        shift = len(a) - len(tail)
        if lead != 1:
            a = [lead * x for x in a]
        for j, y in enumerate(tail):
            a[shift + j] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_decomposition(f: QPoly):
    """Yun's algorithm over Q: returns [(g_i, i)] with f = lc * prod g_i^i, g_i monic squarefree."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    f = f.monic()
    out = []
    if f.degree == 0:
        return out
    fp = f.derivative()
    a = poly_gcd(f, fp)
    if a.degree == 0:
        return [(f, 1)]
    b = f.exact_div(a)
    c = fp.exact_div(a)
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = poly_gcd(b, d) if not d.is_zero() else b.monic()
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = d.exact_div(g) if not d.is_zero() else QPoly.zero()
        i += 1
    return out


def euler_phi(n):
    # a loop of its own, not padic.factor_int: every is_ergodic call reaches
    # it, and building the factor dict makes it about twice as slow
    out, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic(m: int) -> QPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = QPoly.monomial(m) - QPoly.one()
    for d in range(1, m):
        if m % d == 0:
            num = num.exact_div(cyclotomic(d))
    return num


def cyclotomic_indices_up_to_degree(d: int):
    """All m with euler_phi(m) <= d.  phi(m) >= sqrt(m/2), so m <= 2 d^2 suffices."""
    return [m for m in range(1, 2 * d * d + 2) if euler_phi(m) <= d]
