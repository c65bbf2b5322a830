"""p-adic valuations, CRT, and Newton polygons.

The polygon is cross-checked two ways: a gift-wrapping hull oracle (pick the
next vertex by minimal slope, independent of the monotone-chain code), and
product constructions (x^e - c p^h factors) whose root valuations are known
in closed form.
"""

import random
from fractions import Fraction

import pytest

from hyperrank.exact import (QPoly, crt_integers, newton_polygon, vp_fraction,
                             vp_int)


def hull_oracle(points):
    """Lower hull by gift wrapping: repeatedly take the smallest-slope edge."""
    pts = sorted(points)
    hull = [pts[0]]
    while hull[-1] != pts[-1]:
        x0, y0 = hull[-1]
        best = None
        for (x, y) in pts:
            if x <= x0:
                continue
            slope = Fraction(y - y0, x - x0)
            if best is None or slope < best[0] or (slope == best[0] and x > best[1][0]):
                best = (slope, (x, y))
        hull.append(best[1])
    return hull


def test_vp_int():
    assert vp_int(40, 2) == 3
    assert vp_int(40, 5) == 1
    assert vp_int(-12, 2) == 2
    with pytest.raises(ValueError):
        vp_int(0, 2)


def test_vp_fraction_negative():
    assert vp_fraction(Fraction(3, 4), 2) == -2
    assert vp_fraction(Fraction(8, 3), 2) == 3
    assert vp_fraction(Fraction(9, 5), 3) == 2


def test_crt_frozen_example():
    # 3 mod 4 and 1 mod 9 meet at 19 mod 36
    assert crt_integers([(3, 4), (1, 9)]) == (19, 36)


def test_crt_random_roundtrip():
    rng = random.Random(21)
    for _ in range(100):
        moduli = rng.sample([4, 9, 25, 49, 121, 8, 27], k=rng.randrange(1, 4))
        seen = set()
        ok = []
        for m in moduli:
            p = min(q for q in (2, 3, 5, 7, 11) if m % q == 0)
            if p not in seen:
                seen.add(p)
                ok.append(m)
        target = rng.randrange(10 ** 6)
        x, M = crt_integers([(target % m, m) for m in ok])
        assert x == target % M


def test_crt_rejects_common_factor():
    with pytest.raises(ValueError):
        crt_integers([(1, 4), (3, 8)])


def test_newton_polygon_frozen_example():
    # x^2 - 6x + 4 at p = 2: both roots have valuation 1
    np2 = newton_polygon(QPoly((4, -6, 1)), 2)
    assert np2.valuations() == [Fraction(1), Fraction(1)]
    assert np2.zero_roots == 0
    assert np2.vertices == ((0, 2), (2, 0))


def test_newton_polygon_simple_cases():
    # x - p: single root of valuation 1
    assert newton_polygon(QPoly((-5, 1)), 5).valuations() == [Fraction(1)]
    # x - 3: unit root at p=5
    assert newton_polygon(QPoly((-3, 1)), 5).valuations() == [Fraction(0)]
    # x^2 - p: ramified, valuation 1/2 twice
    assert newton_polygon(QPoly((-5, 0, 1)), 5).valuations() == [
        Fraction(1, 2), Fraction(1, 2)]


def test_newton_polygon_zero_roots_split():
    f = QPoly((0, 0, 12, 1))  # x^2 (x + 12)
    np2 = newton_polygon(f, 2)
    assert np2.zero_roots == 2
    assert np2.valuations() == [Fraction(2)]


def test_newton_polygon_mixed_slopes():
    # (x - p)(x - p^3) = x^2 - (p + p^3) x + p^4 at p = 3
    p = 3
    f = QPoly((p ** 4, -(p + p ** 3), 1))
    poly = newton_polygon(f, p)
    assert poly.valuations() == [Fraction(1), Fraction(3)]


def test_newton_polygon_product_construction():
    rng = random.Random(33)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        expected = []
        f = QPoly.one()
        for _ in range(rng.randrange(1, 4)):
            e = rng.randrange(1, 4)
            h = rng.randrange(0, 4)
            c = rng.choice([c for c in range(1, p)] or [1])
            f = f * (QPoly.monomial(e) - QPoly((c * p ** h,)))
            expected.extend([Fraction(h, e)] * e)
        got = newton_polygon(f, p).valuations()
        assert sorted(got) == sorted(expected)


def test_newton_polygon_hull_matches_gift_wrapping_oracle():
    rng = random.Random(34)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        d = rng.randrange(1, 8)
        coeffs = [rng.randrange(1, 200) * p ** rng.randrange(0, 5)
                  for _ in range(d)] + [1]
        # random sign flips and occasional zeros inside
        coeffs = [c if rng.random() < 0.8 else 0 for c in coeffs[:-1]] + [1]
        if coeffs[0] == 0:
            coeffs[0] = p ** rng.randrange(0, 4)
        f = QPoly(coeffs)
        got = newton_polygon(f, p)
        pts = [(i, Fraction(vp_int(int(c), p))) for i, c in enumerate(coeffs) if c != 0]
        assert list(got.vertices) == hull_oracle(pts)


def test_newton_polygon_valuation_sum_is_constant_term_valuation():
    rng = random.Random(35)
    for _ in range(60):
        p = rng.choice([2, 3])
        d = rng.randrange(1, 6)
        coeffs = [rng.randrange(1, 50) for _ in range(d + 1)]
        coeffs[-1] = 1
        f = QPoly(coeffs)
        poly = newton_polygon(f, p)
        assert sum(poly.valuations()) == vp_int(coeffs[0], p)


def test_newton_polygon_rational_coefficients():
    # rational matrix charpolys can carry negative valuations
    f = QPoly((Fraction(1, 4), 1)) # root -1/4, valuation -2 at p=2
    assert newton_polygon(f, 2).valuations() == [Fraction(-2)]
