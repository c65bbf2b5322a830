"""The integer helpers of the exact core.

They are the package's one copy of each integer job: the p-adic valuation
of an integer or a rational (vp_int, vp_fraction), the primality test
(is_prime), the prime factorization (factor_int) and the integer Chinese
remainder solve (crt_integers).  A p-adic quantity elsewhere in the package
is a plain int residue mod p^K.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..errors import FactorSearchInconclusive


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (0 when p does not divide it);
    raises on 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(x, p: int):
    """Valuation of a nonzero Fraction (may be negative)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


# Miller-Rabin with the first 13 primes as bases is exact below _MR_EXACT
# (J. Sorenson and J. Webster, Strong pseudoprimes to twelve prime bases,
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
_TRIAL_LIMIT = 1 << 12
_RHO_STEPS = 1 << 20       # Pollard-Brent steps per cofactor split
_RHO_BATCH = 128           # steps per gcd


def factor_int(n: int):
    """Prime factorization {p: e} of |n|, primes ascending; {} for |n| <= 1.

    Trial division below 2^12, then Miller-Rabin on the cofactor and
    Pollard-Brent rho to split it when composite.  Raises
    FactorSearchInconclusive when rho spends its step budget, or when a
    cofactor passes Miller-Rabin beyond the range where the test is exact.
    """
    n = abs(n)
    out = {}
    p = 2
    while p < _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    # n has no prime factor below the limit now, so below its square n is
    # 1 or a prime, and so is every factor of n that rho splits off
    if n < _TRIAL_LIMIT ** 2:
        if n > 1:
            out[n] = 1
        return out
    cofactors = [n]
    while cofactors:
        m = cofactors.pop()
        if m < _TRIAL_LIMIT ** 2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            cofactors += [d, m // d]
    return dict(sorted(out.items()))


def is_prime(n: int) -> bool:
    """Is the integer n prime?  Miller-Rabin on the bases _MR_BASES, exact
    below _MR_EXACT; raises FactorSearchInconclusive when n passes it at or
    beyond _MR_EXACT, where it may be a prime or a strong pseudoprime."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise FactorSearchInconclusive(
            f"{n} passes Miller-Rabin beyond the range where the test is "
            "exact")
    return True


def _pollard_brent(n):
    """A proper factor of the composite n with no prime factor below
    _TRIAL_LIMIT (R. P. Brent, An improved Monte Carlo factorization
    algorithm, BIT 20, 1980), within _RHO_STEPS steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise FactorSearchInconclusive(
                    f"Pollard rho found no factor of {n} in {_RHO_STEPS} "
                    "steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch passed the collision: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def crt_integers(residues_moduli):
    """Integer x mod prod(m_i) with x = r_i mod m_i; moduli pairwise coprime.

    Returns (x, M) with 0 <= x < M.
    """
    x, M = 0, 1
    for r, m in residues_moduli:
        if m <= 0:
            raise ValueError("moduli must be positive")
        g = math.gcd(M, m)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        # x' = x + M * t with t = (r - x)/M mod m
        t = (r - x) * pow(M, -1, m) % m
        x = x + M * t
        M *= m
    return x % M, M
