"""Mod-p factorization and Hensel lifting.

Irreducibility of returned factors is verified by an exhaustive-divisor
oracle (all monic polynomials of smaller degree), and the factor lists by
sympy's factor_list over GF(p), both independent of the
distinct-degree/equal-degree pipeline under test.  The quadratic Hensel step
is held to the one-digit lift it replaced (tests/helpers.py), bit for bit.
"""

import itertools
import random

import pytest
import sympy

from helpers import scalar_hensel_pair
from hyperrank.errors import NotCoprime
from hyperrank.exact import modp
from hyperrank.exact.modp import hensel_lift


def all_monic(degree, p):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def is_irreducible_oracle(f, p):
    d = modp.deg(f)
    if d <= 0:
        return False
    for k in range(1, d):
        for g in all_monic(k, p):
            if not modp.mod(f, g, p):
                return False
    return True


def random_monic(rng, degree, p):
    return [rng.randrange(p) for _ in range(degree)] + [1]


def is_squarefree(f, p):
    return modp.is_one(modp.gcd(f, modp.derivative(f, p), p))


def random_squarefree(rng, degree, p):
    while True:
        f = random_monic(rng, degree, p)
        if is_squarefree(f, p):
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_rebuilds_and_irreducible(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        f = random_squarefree(rng, rng.randrange(1, 6), p)
        factors = modp.factor(f, p, seed=0)
        prod = [1]
        for g in factors:
            assert g[-1] == 1
            if modp.deg(g) <= 3:
                assert is_irreducible_oracle(g, p)
            prod = modp.mul(prod, g, p)
        assert prod == f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factor_matches_sympy(p):
    rng = random.Random(1600 + p)
    x = sympy.Symbol("x")
    for _ in range(40):
        f = random_squarefree(rng, rng.randint(1, 8), p)
        _, facs = sympy.Poly(f[::-1], x, modulus=p).factor_list()
        want = sorted(([int(c) % p for c in reversed(g.all_coeffs())]
                       for g, m in facs if m == 1 and g.degree() > 0),
                      key=lambda g: (len(g), g))
        assert len(want) == len(facs)
        assert modp.factor(f, p, seed=rng.randrange(100)) == want, (f, p)


def test_factor_deterministic_across_seeds_content():
    # the factor multiset is canonical whatever the seed; the sorted output
    # must be literally identical
    p = 5
    f = [2, 0, 1, 3, 0, 1]   # (x + 2)(x^2 + x + 2)(x^2 + 2x + 3) mod 5
    out0 = modp.factor(f, p, seed=0)
    for seed in range(1, 8):
        assert modp.factor(f, p, seed=seed) == out0


def test_factor_known_splitting():
    # x^2 + 1 mod 5 = (x + 2)(x + 3)
    assert modp.factor([1, 0, 1], 5, seed=0) == [[2, 1], [3, 1]]


def test_hensel_frozen_example():
    # x^2 + 1 = (x - 2)(x + 2) mod 5 lifts to (x - 7)(x + 7) mod 25
    lifted = hensel_lift([1, 0, 1], [[3, 1], [2, 1]], 5, 2)
    assert sorted(lifted) == [[7, 1], [18, 1]]  # 18 = -7 mod 25


def test_hensel_random_roundtrip():
    rng = random.Random(42)
    for p in (2, 3, 5):
        for _ in range(20):
            f = random_monic(rng, rng.randrange(2, 7), p)
            # need squarefree mod p for coprime factors
            if not is_squarefree(f, p):
                continue
            facs = modp.factor(f, p, seed=3)
            if len(facs) < 2:
                continue
            K = 6
            q = p ** K
            lifted = hensel_lift(f, facs, p, K)
            prod = [1]
            for g in lifted:
                assert g[-1] == 1
                prod = modp.mul(prod, g, q)
            assert prod == [c % q for c in f]
            for orig, lift in zip(facs, lifted):
                assert [c % p for c in lift] == orig


def test_hensel_not_coprime():
    # each product is f mod 5, but two of the factors share the root -2:
    # an adjacent pair, then non-adjacent pairs, among two to four factors
    for factors in ([[2, 1], [2, 1]],
                    [[1, 1], [2, 1], [2, 1]],
                    [[2, 1], [1, 1], [2, 1]],
                    [[1, 1], [3, 1], [2, 1], [2, 1]],
                    [[2, 1], [1, 1], [3, 1], [2, 1]],
                    [[1, 1], [2, 1], [3, 1], [2, 1]]):
        f = [1]
        for g in factors:
            f = modp.mul(f, g, 5)
        with pytest.raises(NotCoprime):
            hensel_lift(f, factors, 5, 3)


def test_hensel_deep_lift():
    # single pair, deep precision: f = x^2 - 2 mod 7^8 (2 is a QR mod 7)
    p, K = 7, 8
    f = [-2, 0, 1]
    facs = modp.factor(f, p, seed=0)
    assert len(facs) == 2
    lifted = hensel_lift(f, facs, p, K)
    q = p ** K
    for g in lifted:
        root = (-g[0]) % q
        assert root * root % q == 2 % q


HENSEL_PRIMES = (2, 3, 5, 7, 11, 13)


def test_quadratic_pair_matches_the_one_digit_lift():
    rng = random.Random(1513)
    done, depths = 0, set()
    while done < 2100:
        p = rng.choice(HENSEL_PRIMES)
        g = random_monic(rng, rng.randint(1, 4), p)
        h = random_monic(rng, rng.randint(1, 4), p)
        d, s, t = modp.ext_gcd(g, h, p)
        if not modp.is_one(d):
            continue
        K = 1 + done % 70
        q = p ** K
        # any integer f with f = g h mod p, monic, reduced mod p^K
        f = [(c + p * rng.randrange(q)) % q
             for c in modp.mul(g, h, p)[:-1]] + [1]
        assert (modp._hensel_pair(f, g, h, s, t, p, K)
                == scalar_hensel_pair(f, g, h, s, t, p, K)), (f, g, h, p, K)
        depths.add(K)
        done += 1
    assert depths == set(range(1, 71))


def test_hensel_lift_of_several_factors_matches_the_one_digit_lift(
        monkeypatch):
    rng = random.Random(1514)
    cases = []
    while len(cases) < 150:
        p = rng.choice(HENSEL_PRIMES)
        f = random_monic(rng, rng.randrange(3, 9), p)
        f = [c + p * rng.randint(-50, 50) for c in f[:-1]] + [1]
        fbar = modp.reduce_mod(f, p)
        if not is_squarefree(fbar, p):
            continue
        factors = modp.factor(f, p, seed=1)
        if len(factors) < 3:
            continue
        cases.append((f, factors, p, rng.randint(1, 40)))
    got = [hensel_lift(*case) for case in cases]
    monkeypatch.setattr(modp, "_hensel_pair", scalar_hensel_pair)
    want = [hensel_lift(*case) for case in cases]
    assert got == want
    assert max(len(facs) for _, facs, _, _ in cases) >= 4
