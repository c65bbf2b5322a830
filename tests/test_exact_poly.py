"""Rational polynomial layer: gcd, squarefree, cyclotomics.

Polynomials are ascending coefficient tuples; products and remainders come
from modp's kernels with the modulus None.  Cyclotomic values are
cross-checked against an independent Moebius-product oracle (prod over d | m
of (x^(m/d) - 1)^mu(d)), divided out in sympy, rather than the recursive
division the implementation uses.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperrank.errors import BothZero, ZeroPolynomial
from hyperrank.exact import cyclotomic, euler_phi, modp, poly_gcd
from hyperrank.exact.poly import (_primitive, cyclotomic_indices_up_to_degree,
                                  squarefree_decomposition)

X = sympy.Symbol("x")


def random_poly(rng, max_deg, lo=-5, hi=5, monic=False):
    d = rng.randrange(max_deg + 1)
    cs = [Fraction(rng.randrange(lo, hi + 1)) for _ in range(d + 1)]
    if monic:
        cs[-1] = Fraction(1)
    elif cs[-1] == 0:
        cs[-1] = Fraction(1)
    return tuple(cs)


def mul(f, g):
    return tuple(modp.mul(f, g, None))


def cyclotomic_oracle(m):
    """Moebius product form, as a quotient of two explicit products."""
    num, den = sympy.Poly(1, X), sympy.Poly(1, X)
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = int(sympy.mobius(d))
        f = sympy.Poly(X ** (m // d) - 1, X)
        if mu == 1:
            num = num * f
        elif mu == -1:
            den = den * f
    q, r = sympy.div(num, den)
    assert r.is_zero
    return tuple(int(c) for c in reversed(q.all_coeffs()))


def test_arithmetic_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        f = random_poly(rng, 6)
        g = random_poly(rng, 4)
        if not g:
            continue
        q, r = modp.divmod_p(f, g, None)
        assert modp.add(modp.mul(q, g, None), r, None) == list(f)
        assert len(r) < len(g)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroPolynomial):
        modp.divmod_p((1, 2), (), None)


def test_gcd_properties():
    rng = random.Random(11)
    for _ in range(100):
        common = random_poly(rng, 3, monic=True)
        f = mul(common, random_poly(rng, 3))
        g = mul(common, random_poly(rng, 3))
        if not f and not g:
            continue
        d = poly_gcd(f, g)
        assert type(d) is tuple and d[-1] == 1
        if f:
            assert not modp.mod(f, d, None)
        if g:
            assert not modp.mod(g, d, None)
        if len(common) > 1 and f and g:
            assert len(d) >= len(common)


def test_gcd_both_zero_raises():
    with pytest.raises(BothZero):
        poly_gcd((), ())


def list_power(g, m):
    out = [1]
    for _ in range(m):
        out = modp.mul(out, g, None)
    return out


def test_squarefree_decomposition_rebuilds():
    rng = random.Random(3)
    for _ in range(50):
        f = (1,)
        for _ in range(rng.randrange(1, 4)):
            g = random_poly(rng, 2, monic=True)
            if len(g) == 1:
                continue
            for _ in range(rng.randrange(1, 4)):
                f = mul(f, g)
        if len(f) == 1:
            continue
        ints = [int(c) for c in f]
        parts = squarefree_decomposition(ints)
        rebuilt = [1]
        for g, m in parts:
            assert type(g) is tuple and g[-1] == 1
            assert all(type(c) is int for c in g)
            rebuilt = modp.mul(rebuilt, list_power(g, m), None)
        assert rebuilt == ints
        # parts pairwise coprime and squarefree
        for i, (g, _) in enumerate(parts):
            assert poly_gcd(g, modp.derivative(g, None)) == (1,)
            for h, _ in parts[i + 1:]:
                assert poly_gcd(g, h) == (1,)


# monic integer factors of degree 1 to 3, each to a power up to 5
_factor_powers = st.lists(
    st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
              st.integers(1, 5)), min_size=1, max_size=4)


@seed(20163)
@settings(max_examples=150, deadline=None)
@given(_factor_powers)
def test_squarefree_decomposition_matches_sympy(factor_powers):
    f = [1]
    for tail, m in factor_powers:
        if len(f) - 1 + len(tail) * m <= 12:
            f = modp.mul(f, list_power(tail + [1], m), None)
    want = sympy.sqf_list(sympy.Poly(list(reversed(f)), X))[1]
    got = squarefree_decomposition(f)
    assert got == [(tuple(int(c) for c in reversed(g.all_coeffs())), m)
                   for g, m in want]
    assert all(type(c) is int for g, _ in got for c in g)


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_known_values():
    for m, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic(m) == coeffs
        assert all(type(c) is int for c in cyclotomic(m))


def test_cyclotomic_against_mobius_oracle():
    for m in range(1, 40):
        assert cyclotomic(m) == cyclotomic_oracle(m)


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient other than 0, +-1 appears
    assert -2 in cyclotomic(105)


def test_cyclotomic_product_is_x_m_minus_one():
    for m in (1, 2, 6, 12, 30):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = mul(prod, cyclotomic(d))
        assert prod == (-1,) + (0,) * (m - 1) + (1,)


def test_euler_phi_matches_brute_force():
    import math
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute


def test_cyclotomic_indices_complete():
    for d in (1, 2, 3, 4, 6, 10):
        idx = cyclotomic_indices_up_to_degree(d)
        assert all(euler_phi(m) <= d for m in idx)
        # completeness: any m not listed has phi(m) > d
        bound = 2 * d * d + 1
        listed = set(idx)
        for m in range(1, 4 * bound):
            if euler_phi(m) <= d:
                assert m in listed


def test_int_coeffs_primitive():
    f = (Fraction(2, 3), Fraction(4, 3), Fraction(-2))
    assert _primitive(f) == [-1, -2, 3]
    assert _primitive([-4, 6, 2]) == [-2, 3, 1]
