"""The polynomial list kernels of exact/modp.py against sympy.

With the modulus None the kernels compute over Q on int and Fraction
coefficients; QPoly's ring operations are these calls.  Mod q, for primes
and composite prime powers alike, they must return the exact integer result
reduced into [0, q) afterwards, on unreduced and negative inputs too.  The
exact results come from sympy's polynomials over QQ, a test-only dependency.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from hyperrank.errors import ZeroPolynomial
from hyperrank.exact import modp

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SEED = 20161

X = sympy.Symbol("x")
MODULI = [2, 3, 4, 5, 8, 9, 25, 27, 49, 125, 2 ** 10, 3 ** 7]

ints = st.integers(-20, 20)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# int and Fraction lists, trailing zeros allowed
polys = st.lists(st.one_of(ints, rationals), max_size=6)
nonzero_polys = polys.filter(lambda f: any(f))


def trimmed(f):
    return modp.trim(list(f))


def sym(f):
    return sympy.Poly([sympy.Rational(Fraction(c).numerator,
                                      Fraction(c).denominator)
                       for c in reversed(f)] or [0], X, domain=sympy.QQ)


def unsym(poly):
    """Ascending Fraction list, trimmed, of a sympy polynomial over QQ."""
    return modp.trim([Fraction(int(c.p), int(c.q))
                      for c in reversed(poly.all_coeffs())])


def reduced(f, q):
    """An exact list reduced mod q; every denominator is a unit mod q."""
    return modp.trim([c.numerator * pow(c.denominator, -1, q) % q
                      for c in map(Fraction, f)])


@st.composite
def modulus_and_polys(draw):
    """(q, f, g, h), h with a leading coefficient that is a unit mod q;
    entries run from -3q to 3q, so they are unreduced and negative."""
    q = draw(st.sampled_from(MODULI))
    entries = st.integers(-3 * q, 3 * q)
    f = draw(st.lists(entries, max_size=6))
    g = draw(st.lists(entries, max_size=6))
    lead = draw(entries.filter(lambda c: math.gcd(c, q) == 1))
    h = draw(st.lists(entries, max_size=5)) + [lead]
    return q, f, g, h


# --- exact, modulus None ---------------------------------------------------


@seed(SEED)
@SETTINGS
@given(polys, polys)
def test_add_sub_mul_over_q(f, g):
    assert modp.add(f, g, None) == unsym(sym(f) + sym(g))
    assert modp.sub(f, g, None) == unsym(sym(f) - sym(g))
    assert modp.mul(f, g, None) == unsym(sym(f) * sym(g))


@seed(SEED)
@SETTINGS
@given(polys, nonzero_polys)
def test_divmod_over_q(f, g):
    q, r = modp.divmod_p(f, trimmed(g), None)
    want_q, want_r = sympy.div(sym(f), sym(g), domain=sympy.QQ)
    assert q == unsym(want_q)
    assert r == unsym(want_r)


@seed(SEED)
@SETTINGS
@given(polys, nonzero_polys, st.one_of(ints, rationals))
def test_derivative_monic_scalar_over_q(f, g, c):
    assert modp.derivative(f, None) == unsym(sym(f).diff(X))
    assert modp.monic(trimmed(g), None) == unsym(sym(g).monic())
    assert modp.monic([], None) == []
    assert modp.scalar_mul(c, f, None) == unsym(sym(f) * sym([c]))


def test_divide_by_zero_polynomial_raises():
    for q in (None, 9):
        with pytest.raises(ZeroPolynomial):
            modp.divmod_p([1, 2, 1], [], q)
        with pytest.raises(ZeroPolynomial):
            modp.mod([1, 2, 1], [], q)


@seed(SEED)
@SETTINGS
@given(polys, nonzero_polys)
def test_mod_is_the_remainder_over_q(f, g):
    assert modp.mod(f, trimmed(g), None) == modp.divmod_p(f, trimmed(g),
                                                          None)[1]


@seed(SEED)
@SETTINGS
@given(st.lists(ints, max_size=8), st.lists(ints, max_size=5),
       st.sampled_from([1, -1]))
def test_unit_leading_coefficients_stay_in_int(f, g, lead):
    # 1 / +-1 is +-1: dividing int lists by such a divisor forms no Fraction
    g = g + [lead]
    quo, rem = modp.divmod_p(f, g, None)
    assert modp.mod(f, g, None) == rem
    assert all(type(c) is int for c in quo + rem + modp.monic(g, None))


# --- mod q, q a prime or a prime power -------------------------------------


@seed(SEED)
@SETTINGS
@given(modulus_and_polys())
def test_ring_kernels_mod_q_reduce_the_exact_result(case):
    q, f, g, _ = case
    assert modp.add(f, g, q) == reduced(unsym(sym(f) + sym(g)), q)
    assert modp.sub(f, g, q) == reduced(unsym(sym(f) - sym(g)), q)
    assert modp.mul(f, g, q) == reduced(unsym(sym(f) * sym(g)), q)
    assert modp.derivative(f, q) == reduced(unsym(sym(f).diff(X)), q)
    for c in g[:2]:
        assert (modp.scalar_mul(c, f, q)
                == reduced(unsym(sym(f) * sym([c])), q))


@seed(SEED)
@SETTINGS
@given(modulus_and_polys())
def test_divmod_and_monic_mod_q_reduce_the_exact_result(case):
    # h's leading coefficient is a unit mod q, so the exact quotient and
    # remainder have unit denominators and reduce to the ones mod q
    q, f, _, h = case
    quo, rem = modp.divmod_p(f, h, q)
    want_q, want_r = sympy.div(sym(f), sym(h), domain=sympy.QQ)
    assert quo == reduced(unsym(want_q), q)
    assert rem == reduced(unsym(want_r), q)
    assert modp.monic(h, q) == reduced(unsym(sym(h).monic()), q)
    assert all(0 <= c < q for c in quo + rem)


@seed(SEED)
@SETTINGS
@given(modulus_and_polys())
def test_mod_is_the_remainder_mod_q(case):
    # prime and composite q, unreduced and negative f and h
    q, f, _, h = case
    assert modp.mod(f, h, q) == modp.divmod_p(f, h, q)[1]
    assert modp.mod(f + [0, -q], h, q) == modp.divmod_p(f, h, q)[1]


@seed(SEED)
@SETTINGS
@given(modulus_and_polys(), st.integers(0, 9))
def test_pow_mod_reduces_the_exact_power(case, n):
    q, f, _, h = case
    h = [0] + h     # degree >= 1, as every caller's modulus polynomial
    want = sympy.rem(sym(f) ** n, sym(h), domain=sympy.QQ)
    assert modp.pow_mod(f, n, h, q) == reduced(unsym(want), q)
