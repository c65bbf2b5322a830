"""Rational polynomial layer: gcd, squarefree, cyclotomics.

Cyclotomic values are cross-checked against an independent Moebius-product
oracle (prod over d | m of (x^(m/d) - 1)^mu(d)) rather than the recursive
division the implementation uses.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hyperrank.errors import BothZero, ZeroPolynomial
from hyperrank.exact import cyclotomic, euler_phi, modp, poly_gcd
from hyperrank.exact.poly import (QPoly, _primitive,
                                  cyclotomic_indices_up_to_degree,
                                  squarefree_decomposition)

X = sympy.Symbol("x")


def random_poly(rng, max_deg, lo=-5, hi=5, monic=False):
    d = rng.randrange(max_deg + 1)
    cs = [Fraction(rng.randrange(lo, hi + 1)) for _ in range(d + 1)]
    if monic:
        cs[-1] = Fraction(1)
    elif cs[-1] == 0:
        cs[-1] = Fraction(1)
    return QPoly(cs)


def cyclotomic_oracle(m):
    """Moebius product form, as a quotient of two explicit products."""
    num, den = QPoly.one(), QPoly.one()
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = int(sympy.mobius(d))
        f = QPoly.monomial(m // d) - QPoly.one()
        if mu == 1:
            num = num * f
        elif mu == -1:
            den = den * f
    return num.exact_div(den)


def test_arithmetic_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        f = random_poly(rng, 6)
        g = random_poly(rng, 4)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroPolynomial):
        divmod(QPoly((1, 2)), QPoly(()))


def test_gcd_properties():
    rng = random.Random(11)
    for _ in range(100):
        common = random_poly(rng, 3, monic=True)
        f = common * random_poly(rng, 3)
        g = common * random_poly(rng, 3)
        if f.is_zero() and g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert d.coeffs[-1] == 1
        if not f.is_zero():
            assert divmod(f, d)[1].is_zero()
        if not g.is_zero():
            assert divmod(g, d)[1].is_zero()
        if common.degree > 0 and not f.is_zero() and not g.is_zero():
            assert d.degree >= common.degree


def test_gcd_both_zero_raises():
    with pytest.raises(BothZero):
        poly_gcd(QPoly(()), QPoly(()))


def list_power(g, m):
    out = [1]
    for _ in range(m):
        out = modp.mul(out, g, None)
    return out


def test_squarefree_decomposition_rebuilds():
    rng = random.Random(3)
    for _ in range(50):
        f = QPoly.one()
        for _ in range(rng.randrange(1, 4)):
            g = random_poly(rng, 2, monic=True)
            if g.degree == 0:
                continue
            f = math.prod([g] * rng.randrange(1, 4), start=f)
        if f.degree == 0:
            continue
        ints = [int(c) for c in f.coeffs]
        parts = squarefree_decomposition(ints)
        rebuilt = [1]
        for g, m in parts:
            assert g[-1] == 1
            assert all(type(c) is int for c in g)
            rebuilt = modp.mul(rebuilt, list_power(g, m), None)
        assert rebuilt == ints
        # parts pairwise coprime and squarefree
        for i, (g, _) in enumerate(parts):
            assert poly_gcd(g, modp.derivative(g, None)) == [1]
            for h, _ in parts[i + 1:]:
                assert poly_gcd(g, h) == [1]


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
    assert got == [([int(c) for c in reversed(g.all_coeffs())], m)
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
        assert cyclotomic(m).coeffs == tuple(Fraction(c) for c in coeffs)


def test_cyclotomic_against_mobius_oracle():
    for m in range(1, 40):
        assert cyclotomic(m) == cyclotomic_oracle(m)


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient other than 0, +-1 appears
    assert Fraction(-2) in cyclotomic(105).coeffs


def test_cyclotomic_product_is_x_m_minus_one():
    for m in (1, 2, 6, 12, 30):
        prod = QPoly.one()
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == QPoly.monomial(m) - QPoly.one()


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
