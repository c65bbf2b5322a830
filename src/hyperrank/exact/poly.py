"""Polynomials over Q, exact throughout: gcd, squarefree parts, cyclotomics.

A polynomial is an ascending tuple of coefficients (f[i] multiplies x^i),
trimmed of trailing zeros, so the zero polynomial is ().  The coefficients
are ints, or Fractions where a denominator is real, as in the charpoly of a
rational matrix.  The ring operations are modp's list kernels, run with the
modulus None; on the monic integer charpolys that factoring feeds them, they
stay in int and form no Fraction.  QPoly is the value type of acceptance
criterion 3, which builds Newton polygon inputs with it: construction,
monomial, * and coeffs.  Everything here is desk scale (degree <= a few
dozen), so the quadratic algorithms are fine and favored for being
auditable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ..errors import BothZero, ZeroPolynomial
from . import modp


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, k):
        return cls((0,) * k + (1,))

    def __mul__(self, other):
        return QPoly(modp.mul(self.coeffs, other.coeffs, None))


def poly_gcd(f, g):
    """Monic gcd over Q, of trimmed ascending coefficient sequences, as a
    tuple; gcd(f, 0) = monic f; gcd(0, 0) raises BothZero.

    Fraction-free: Euclid with pseudo-remainders on integer primitive parts,
    each remainder reduced to its primitive part (primitive PRS).  So a gcd
    whose primitive part is monic, as every divisor of a monic integer
    polynomial is (Gauss's lemma), comes back with int coefficients.
    """
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    if f and g:
        f, g = _primitive(f), _primitive(g)
        while g:
            r = _pseudo_rem(f, g)
            content = math.gcd(*r)
            f, g = g, [x // content for x in r]
    return tuple(modp.monic(f or g, None))


def _primitive(cs):
    """Primitive integer multiple, with positive leading coefficient, of a
    nonzero rational coefficient list."""
    d = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (d // c.denominator) for c in cs]
    g = math.gcd(*ints)
    return [v // g for v in ints] if ints[-1] > 0 else [-v // g for v in ints]


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


def squarefree_decomposition(f):
    """Yun's algorithm over Q on an ascending coefficient sequence:
    [(g_i, i)] with f = lc * prod g_i^i, each g_i a monic squarefree tuple,
    i ascending.

    On integer coefficients with leading coefficient +-1, as a charpoly
    has, every step stays in int: every gcd and divisor is monic, by Gauss's
    lemma, and the modulus-None kernels divide by a monic list in int.
    """
    f = modp.monic(modp.trim(list(f)), None)
    if not f:
        raise ZeroPolynomial("zero polynomial")
    if len(f) == 1:
        return []
    fp = modp.derivative(f, None)
    a = poly_gcd(f, fp)
    if len(a) == 1:
        return [(tuple(f), 1)]
    b, c = _exact_quotient(f, a), _exact_quotient(fp, a)
    out = []
    i = 1
    while len(b) > 1:
        d = modp.sub(c, modp.derivative(b, None), None)
        g = poly_gcd(b, d) if d else b
        if len(g) > 1:
            out.append((tuple(g), i))
        b = _exact_quotient(b, g)
        c = _exact_quotient(d, g)
        i += 1
    return out


def _exact_quotient(f, g):
    q, r = modp.divmod_p(f, g, None)
    if r:
        raise ValueError(f"{g} does not divide {f}")
    return q


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
def cyclotomic(m: int) -> tuple:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _exact_quotient(num, cyclotomic(d))
    return tuple(num)


def cyclotomic_indices_up_to_degree(d: int):
    """All m with euler_phi(m) <= d.  phi(m) >= sqrt(m/2), so m <= 2 d^2 suffices."""
    return [m for m in range(1, 2 * d * d + 2) if euler_phi(m) <= d]
