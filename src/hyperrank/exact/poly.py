"""Dense univariate polynomials over Q, exact throughout.

QPoly is a value type over modp's list kernels, run with the modulus None:
its ring operations are theirs.  Coefficients are ascending (coeffs[i]
multiplies x^i) and stored as Fraction.  The zero polynomial has an empty
coefficient tuple and degree -1.  poly_gcd also takes plain coefficient
lists, and squarefree_decomposition takes only those: on the monic integer
charpolys that factoring feeds them, they stay in int and form no Fraction.
Everything here is desk scale (degree <= a few dozen), so the quadratic
algorithms are fine and favored for being auditable.
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

    # --- constructors ---

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

    # __bool__, __eq__, __hash__: without them truth is True, == identity
    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # --- ring ops, on the kernels of modp with the modulus None ---

    def __add__(self, other):
        return QPoly(modp.add(self.coeffs, _coerce(other).coeffs, None))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(modp.scalar_mul(-1, self.coeffs, None))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        return QPoly(modp.mul(self.coeffs, _coerce(other).coeffs, None))

    __rmul__ = __mul__

    def __divmod__(self, other):
        q, r = modp.divmod_p(self.coeffs, _coerce(other).coeffs, None)
        return QPoly(q), QPoly(r)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other.coeffs} does not divide {self.coeffs}")
        return q


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    return QPoly((x,))


def poly_gcd(f, g):
    """Monic gcd over Q; gcd(f, 0) = monic f; gcd(0, 0) raises BothZero.

    f and g are both QPolys, or both trimmed ascending coefficient lists,
    and the gcd comes back as the same kind.  Fraction-free: Euclid with
    pseudo-remainders on integer primitive parts, each remainder reduced to
    its primitive part (primitive PRS).  So from integer lists a gcd whose
    primitive part is monic, as every divisor of a monic integer polynomial
    is (Gauss's lemma), comes back with int coefficients.
    """
    qpoly = isinstance(f, QPoly)
    a, b = (f.coeffs, g.coeffs) if qpoly else (f, g)
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    if a and b:
        a, b = _primitive(a), _primitive(b)
        while b:
            r = _pseudo_rem(a, b)
            content = math.gcd(*r)
            a, b = b, [x // content for x in r]
    out = modp.monic(a or b, None)
    return QPoly(out) if qpoly else out


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
    """Yun's algorithm over Q on an ascending coefficient list: [(g_i, i)]
    with f = lc * prod g_i^i, each g_i a monic squarefree list, i ascending.

    On an integer list with leading coefficient +-1, as a charpoly has,
    every step stays in int: every gcd and divisor is monic, by Gauss's
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
        return [(f, 1)]
    b, c = _exact_quotient(f, a), _exact_quotient(fp, a)
    out = []
    i = 1
    while len(b) > 1:
        d = modp.sub(c, modp.derivative(b, None), None)
        g = poly_gcd(b, d) if d else b
        if len(g) > 1:
            out.append((g, i))
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
