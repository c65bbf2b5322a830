"""Polynomial arithmetic over Q or mod q, and factorization over F_p.

Polynomials are ascending coefficient lists (f[i] multiplies x^i).  The ring
kernels (add, sub, mul, scalar_mul, divmod_p, mod, monic, derivative) are
exact over Q, on int or Fraction coefficients, when the modulus is None;
QPoly (poly.py) is a value type over them.  A leading coefficient +-1 is
its own inverse, so int lists divided by one stay int.  Otherwise they
reduce each result into [0, q), from inputs that may be unreduced or
negative; mod, the remainder alone, reduces at every step.  q need not be
prime so long as every leading coefficient inverted is a unit mod q, though
factoring needs a prime p: a monic input that is squarefree mod p factors by
distinct-degree, then seeded equal-degree splitting (J. von zur Gathen and
J. Gerhard, Modern Computer Algebra, ch. 14), so results are deterministic
for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..errors import NotCoprime, ZeroPolynomial


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def reduce_mod(coeffs, p):
    """coeffs reduced into [0, p) and trimmed; only trimmed if p is None."""
    return trim(list(coeffs) if p is None else [c % p for c in coeffs])


def _inverse(c, p):
    if p is not None:
        return pow(c, -1, p)
    return c if c in (1, -1) else Fraction(1) / c


def deg(f):
    return len(f) - 1


def is_one(f):
    return len(f) == 1 and f[0] == 1


def add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return reduce_mod(out, p)


def sub(f, g, p):
    return add(f, [-c for c in g], p)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return reduce_mod(out, p)


def scalar_mul(c, f, p):
    return reduce_mod([c * a for a in f], p)


def divmod_p(f, g, p):
    if not g:
        raise ZeroPolynomial("division by the zero polynomial")
    f = list(f)
    dg, df = deg(g), deg(f)
    if df < dg:
        return [], reduce_mod(f, p)
    inv_lead = _inverse(g[-1], p)
    quo = [0] * (df - dg + 1)
    for k in range(df - dg, -1, -1):
        c = f[dg + k] * inv_lead
        if p is not None:
            c %= p
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                f[j + k] -= c * b
    return trim(quo), reduce_mod(f[:dg], p)


def mod(f, g, p):
    """divmod_p's remainder, without the quotient; mod p, the coefficients
    are reduced first and each one a step changes at once."""
    if not g:
        raise ZeroPolynomial("division by the zero polynomial")
    r = list(f) if p is None else [c % p for c in f]
    dg = deg(g)
    if len(r) > dg:
        inv_lead = _inverse(g[-1], p)
        tail = g[:-1]
        for k in range(len(r) - 1 - dg, -1, -1):
            c = r.pop() * inv_lead
            if p is None:
                if c:
                    for j, b in enumerate(tail):
                        r[j + k] -= c * b
            elif c % p:
                c %= p
                for j, b in enumerate(tail):
                    r[j + k] = (r[j + k] - c * b) % p
    return trim(r)


def monic(f, p):
    if not f:
        return []
    return scalar_mul(_inverse(f[-1], p), f, p)


def gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def ext_gcd(f, g, p):
    """(d, s, t) with s f + t g = d, d monic gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    c = _inverse(r0[-1], p)
    return scalar_mul(c, r0, p), scalar_mul(c, s0, p), scalar_mul(c, t0, p)


def pow_mod(f, n, g, p):
    """f^n mod g.  mod reduces its input first, so the products are formed
    without a reduction of their own."""
    out, base = [1], mod(f, g, p)
    while n:
        if n & 1:
            out = mod(mul(out, base, None), g, p)
        base = mod(mul(base, base, None), g, p)
        n >>= 1
    return out


def derivative(f, p):
    return reduce_mod([i * c for i, c in enumerate(f)][1:], p)


def distinct_degree(f, p):
    """[(product of irreducibles of degree d, d)] for monic squarefree f."""
    out = []
    rest = list(f)
    h = [0, 1]  # will hold x^(p^i) mod rest
    i = 0
    while deg(rest) >= 2 * (i + 1):
        i += 1
        h = pow_mod(h, p, rest, p)
        g = gcd(rest, sub(h, [0, 1], p), p)
        if not is_one(g):
            out.append((g, i))
            rest = divmod_p(rest, g, p)[0]
            h = mod(h, rest, p)
    if deg(rest) >= 1:
        out.append((rest, deg(rest)))
    return out


def _random_poly(max_deg, p, rng):
    while True:
        f = trim([rng.randrange(p) for _ in range(max_deg + 1)])
        if deg(f) >= 1:
            return f


def equal_degree_split(f, d, p, rng):
    """Factor monic squarefree f, all of whose irreducible factors have degree d."""
    n = deg(f)
    if n == d:
        return [f]
    while True:
        u = _random_poly(n - 1, p, rng)
        if p == 2:
            # additive trace map of F_{2^d} over F_2, evaluated at u mod f
            t = list(u)
            acc = list(u)
            for _ in range(d - 1):
                acc = pow_mod(acc, 2, f, p)
                t = add(t, acc, p)
            g = gcd(f, t, p)
        else:
            w = pow_mod(u, (p ** d - 1) // 2, f, p)
            g = gcd(f, sub(w, [1], p), p)
        if 0 < deg(g) < n:
            left = equal_degree_split(g, d, p, rng)
            right = equal_degree_split(divmod_p(f, g, p)[0], d, p, rng)
            return left + right


def factor(f, p, seed=0):
    """Monic irreducible factors of f mod p, for f monic and squarefree mod
    p, sorted by degree, then coefficients, so output is stable."""
    rng = random.Random(seed)
    out = [irr for h, d in distinct_degree(reduce_mod(f, p), p)
           for irr in equal_degree_split(h, d, p, rng)]
    out.sort(key=lambda g: (deg(g), g))
    return out


# --- Hensel ----------------------------------------------------------------


def _hensel_pair(f, g, h, s, t, p, K):
    """Lift f = g h from mod p to mod p^K; g, h monic coprime, s g + t h = 1
    mod p with deg s < deg h and deg t < deg g.

    Quadratic steps (J. von zur Gathen and J. Gerhard, Modern Computer
    Algebra, Alg. 15.10) from mod m to mod m^2, capped at p^K: ceil(log2 K)
    of them.  Monic lifts are unique, so this is the digit-by-digit lift.
    """
    g, h = list(g), list(h)
    k = 1
    while k < K:
        k = min(2 * k, K)
        m = p ** k
        e = sub(f, mul(g, h, m), m)
        q, r = divmod_p(mul(s, e, m), h, m)
        g = add(g, add(mul(t, e, m), mul(q, g, m), m), m)
        h = add(h, r, m)
        if k < K:
            b = sub(add(mul(s, g, m), mul(t, h, m), m), [1], m)
            c, d = divmod_p(mul(s, b, m), h, m)
            s = sub(s, d, m)
            t = sub(t, add(mul(t, b, m), mul(c, g, m), m), m)
    return g, h


def hensel_lift(f, factors, p, K):
    """Lift monic factors of f mod p, coprime in pairs, to monic factors of
    f mod p^K, in the order given.

    f is an integer coefficient list; the factors are reduced mod p and
    multiply to f mod p, as both callers build them.  The factors split into
    halves whose products are lifted as a pair, then each half recursively;
    a pair that shares a root mod p has no Bezout relation at the split
    that separates it, which raises NotCoprime.
    """
    if len(factors) == 1:
        return [[c % p ** K for c in f]]
    mid = len(factors) // 2
    left = [1]
    for g in factors[:mid]:
        left = mul(left, g, p)
    right = [1]
    for g in factors[mid:]:
        right = mul(right, g, p)
    d, s, t = ext_gcd(left, right, p)
    if not is_one(d):
        raise NotCoprime(f"factor products share {d} mod {p}")
    lL, lR = _hensel_pair(f, left, right, s, t, p, K)
    return (hensel_lift(lL, factors[:mid], p, K)
            + hensel_lift(lR, factors[mid:], p, K))
