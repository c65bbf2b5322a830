"""Rational factorization: rebuilt products and known-irreducible inputs.

Irreducibility of the stock factors used to build test inputs is known on
independent grounds (cyclotomics, Eisenstein at 2, negative discriminants),
not by the code under test.
"""

import random

from hyperrank.exact import cyclotomic, modp, poly_gcd
from hyperrank.exact.factorq import factor_over_q


def product(factors):
    """The product of coefficient tuples, by modp's kernel over Q."""
    out = [1]
    for g in factors:
        out = modp.mul(out, g, None)
    return tuple(out)


def irreducible(f):
    facs = factor_over_q(f)
    return len(facs) == 1 and facs[0][1] == 1


STOCK_IRREDUCIBLE = [
    (-1, 1),
    (3, 1),
    (-2, 0, 1),             # x^2 - 2, Eisenstein at 2
    (1, 0, 1),              # x^2 + 1, Phi_4
    (1, -3, 1),             # x^2 - 3x + 1, disc 5, not a square
    (-2, 0, 0, 1),          # x^3 - 2, Eisenstein at 2
    # x^3 + x^2 - 2x - 1: totally real cubic, disc 49, no rational root
    (-1, -2, 1, 1),
    cyclotomic(5),
    cyclotomic(12),
]


def test_stock_factors_detected_irreducible():
    for f in STOCK_IRREDUCIBLE:
        assert irreducible(f), f


def test_random_products_recovered():
    rng = random.Random(77)
    for _ in range(40):
        chosen = {}
        factors = []
        for _ in range(rng.randrange(1, 4)):
            g = rng.choice(STOCK_IRREDUCIBLE)
            m = rng.randrange(1, 3)
            chosen[g] = chosen.get(g, 0) + m
            factors += [g] * m
        got = factor_over_q(product(factors))
        assert sorted(got) == sorted(chosen.items())


def test_product_property_random_coeffs():
    rng = random.Random(78)
    for _ in range(30):
        d = rng.randrange(1, 7)
        f = tuple(rng.randrange(-6, 7) for _ in range(d)) + (1,)
        got = factor_over_q(f)
        for h, m in got:
            assert type(h) is tuple and h[-1] == 1
            assert all(type(c) is int for c in h)
        assert product(h for h, m in got for _ in range(m)) == f
        for i, (h, _) in enumerate(got):
            for g, _ in got[i + 1:]:
                assert poly_gcd(h, g) == (1,)


def test_cyclotomic_product_resolved():
    # x^12 - 1 = product of Phi_d over d | 12; all six factors recovered
    f = (-1,) + (0,) * 11 + (1,)
    got = factor_over_q(f)
    assert sorted(h for h, _ in got) == sorted(
        cyclotomic(d) for d in (1, 2, 3, 4, 6, 12))
    assert all(m == 1 for _, m in got)


def test_high_multiplicity():
    g = (1, 0, 1)
    f = product([g] * 3 + [(-2, 1)] * 2)
    got = factor_over_q(f)
    assert (g, 3) in got
    assert ((-2, 1), 2) in got


def test_swinnerton_dyer_style_recombination():
    # minimal poly of sqrt2 + sqrt3: irreducible of degree 4 that splits into
    # four linears mod every prime, the classic recombination stress case
    assert irreducible((1, 0, -10, 0, 1))
