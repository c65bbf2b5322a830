"""Rational factorization: rebuilt products and known-irreducible inputs.

Irreducibility of the stock factors used to build test inputs is known on
independent grounds (cyclotomics, Eisenstein at 2, negative discriminants),
not by the code under test.
"""

import math
import random

from hyperrank.exact import QPoly, cyclotomic, poly_gcd
from hyperrank.exact.factorq import factor_over_q

X = QPoly((0, 1))


def irreducible(f):
    facs = factor_over_q(f)
    return len(facs) == 1 and facs[0][1] == 1


STOCK_IRREDUCIBLE = [
    X - 1,
    X + 3,
    QPoly.monomial(2) - 2,            # Eisenstein at 2
    QPoly.monomial(2) + 1,            # Phi_4
    QPoly.monomial(2) - 3 * X + 1,    # disc 5, not a square
    QPoly.monomial(3) - 2,            # Eisenstein at 2
    # totally real cubic, disc 49, no rational root
    QPoly.monomial(3) + QPoly.monomial(2) - 2 * X - 1,
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
        f = QPoly.one()
        for _ in range(rng.randrange(1, 4)):
            g = rng.choice(STOCK_IRREDUCIBLE)
            m = rng.randrange(1, 3)
            chosen[g.coeffs] = chosen.get(g.coeffs, 0) + m
            f = math.prod([g] * m, start=f)
        got = factor_over_q(f)
        assert sorted((h.coeffs, m) for h, m in got) == sorted(chosen.items())


def test_product_property_random_coeffs():
    rng = random.Random(78)
    for _ in range(30):
        d = rng.randrange(1, 7)
        coeffs = [rng.randrange(-6, 7) for _ in range(d)] + [1]
        f = QPoly(coeffs)
        got = factor_over_q(f)
        rebuilt = QPoly.one()
        for h, m in got:
            assert h.leading() == 1
            rebuilt = math.prod([h] * m, start=rebuilt)
        assert rebuilt == f.monic()
        for i, (h, _) in enumerate(got):
            for g, _ in got[i + 1:]:
                assert poly_gcd(h, g).degree == 0


def test_cyclotomic_product_resolved():
    # x^12 - 1 = product of Phi_d over d | 12; all six factors recovered
    f = QPoly.monomial(12) - QPoly.one()
    got = factor_over_q(f)
    assert sorted(h.coeffs for h, _ in got) == sorted(
        cyclotomic(d).coeffs for d in (1, 2, 3, 4, 6, 12))
    assert all(m == 1 for _, m in got)


def test_high_multiplicity():
    g = QPoly.monomial(2) + 1
    f = math.prod([g] * 3 + [X - 2] * 2, start=QPoly.one())
    got = factor_over_q(f)
    assert (g.coeffs, 3) in [(h.coeffs, m) for h, m in got]
    assert ((X - 2).coeffs, 2) in [(h.coeffs, m) for h, m in got]


def test_swinnerton_dyer_style_recombination():
    # minimal poly of sqrt2 + sqrt3: irreducible of degree 4 that splits into
    # four linears mod every prime, the classic recombination stress case
    f = QPoly.monomial(4) - 10 * QPoly.monomial(2) + 1
    assert irreducible(f)
