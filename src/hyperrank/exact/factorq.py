"""Factorization over Q: squarefree split, then mod-p factors Hensel-lifted
and recombined over Z.

Inputs here are characteristic polynomials of integer matrices, so everything
is monic with integer coefficients, and the whole chain (squarefree split,
mod-p factors, lifts, trial divisions) runs on int coefficient lists;
factor_over_q takes and gives int coefficient tuples (poly.py).  Degrees are
<= 10 at desk scale, which keeps subset recombination trivial; candidate
factor degrees are pruned by intersecting the attainable-degree sets of the
mod-p patterns at three usable primes.
"""

from __future__ import annotations

import itertools
import math

from ..errors import FactorSearchInconclusive
from . import modp
from .modp import hensel_lift
from .padic import is_prime
from .poly import squarefree_decomposition


def _usable_primes(ints):
    """First three primes below 500 keeping the monic ints squarefree."""
    out = []
    p = 2
    while len(out) < 3 and p < 500:
        if is_prime(p):
            fbar = modp.reduce_mod(ints, p)
            if modp.is_one(modp.gcd(fbar, modp.derivative(fbar, p), p)):
                out.append(p)
        p += 1
    return out


def _attainable_degrees(pattern, total):
    """Subset sums of a mod-p factor degree pattern."""
    reach = 1  # bitmask
    for d in pattern:
        reach |= reach << d
    return {k for k in range(total + 1) if reach >> k & 1}


def _mignotte_bound(ints):
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    return 2 ** (len(ints) - 1) * norm2


def _symmetric(c, q):
    c %= q
    return c - q if c > q // 2 else c


def _factor_squarefree_monic_int(ints):
    """Irreducible monic integer factors of a squarefree monic integer poly."""
    deg = len(ints) - 1
    if deg <= 1:
        return [list(ints)]
    primes = _usable_primes(ints)
    if not primes:
        raise FactorSearchInconclusive(
            f"no usable prime below 500 for degree-{deg} input")
    trials = []
    degree_sets = []
    for p in primes:
        factors = modp.factor(ints, p)
        trials.append((p, factors))
        degree_sets.append(_attainable_degrees(map(modp.deg, factors), deg))
    allowed = set.intersection(*degree_sets)
    if allowed == {0, deg}:
        return [list(ints)]
    p, mod_factors = min(trials, key=lambda t: len(t[1]))
    if len(mod_factors) == 1:
        return [list(ints)]
    B = _mignotte_bound(ints)
    K = 1
    while p ** K <= 2 * B:
        K += 1
    lifted = hensel_lift(ints, mod_factors, p, K)
    q = p ** K

    out = []
    pool = list(range(len(lifted)))
    current = ints
    size = 1
    while 2 * size <= len(pool):
        hit = None
        for subset in itertools.combinations(pool, size):
            dsum = sum(len(lifted[i]) - 1 for i in subset)
            if dsum not in allowed:
                continue
            prod = [1]
            for i in subset:
                prod = modp.mul(prod, lifted[i], q)
            cand = [_symmetric(c, q) for c in prod]
            quo, rem = modp.divmod_p(current, cand, None)
            if not rem:
                hit = (subset, cand, quo)
                break
        if hit is None:
            size += 1
            continue
        subset, cand, quo = hit
        out.append(cand)
        pool = [i for i in pool if i not in subset]
        current = quo
        size = 1
    if len(current) > 1:
        out.append(current)
    return out


def factor_over_q(f):
    """[(monic irreducible factor, multiplicity)] of a monic integer
    polynomial, as int coefficient tuples, canonically sorted.

    The squarefree parts of a monic integer polynomial are monic integer
    polynomials, and so are their irreducible factors (Gauss's lemma).
    """
    return sorted(((tuple(fac), m) for g, m in squarefree_decomposition(f)
                   for fac in _factor_squarefree_monic_int(g)),
                  key=lambda t: (len(t[0]), t[0]))
