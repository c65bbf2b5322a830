"""Truncated p-adic integers and the integer helpers of the exact core.

The helpers are the package's one copy of each integer job: the p-adic
valuation of an integer or a rational (vp_int, vp_fraction), the prime
factorization by trial division (factor_int) and the integer Chinese
remainder solve (crt_integers).

A PadicTruncated value is a residue mod p^K together with the convention that
valuation() == K means "valuation at least K" (the residue is 0, so the true
valuation is unknowable at this precision).  Division is only defined by
units; everything else must be done by explicit shifting at the call site,
which keeps precision loss visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import NonUnitInverse


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


def factor_int(n: int):
    """Prime factorization {p: e} of |n| by trial division (desk-scale
    determinants and denominators); {} for |n| <= 1."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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


@dataclass(frozen=True)
class PadicTruncated:
    """Element of Z_p / p^K, exact arithmetic on residues."""

    p: int
    prec: int
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.p ** self.prec)

    @classmethod
    def from_fraction(cls, x, p, prec):
        x = Fraction(x)
        q = p ** prec
        if x.denominator % p == 0:
            raise NonUnitInverse(
                f"{x} has negative {p}-adic valuation, not a {p}-adic integer")
        return cls(p, prec, x.numerator * pow(x.denominator, -1, q))

    def _check(self, other):
        if self.p != other.p or self.prec != other.prec:
            raise ValueError("mixed p or precision in p-adic arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PadicTruncated(self.p, self.prec, self.residue + other.residue)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PadicTruncated(self.p, self.prec, self.residue - other.residue)

    def __neg__(self):
        return PadicTruncated(self.p, self.prec, -self.residue)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return PadicTruncated(self.p, self.prec, self.residue * other.residue)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PadicTruncated):
            return other
        if isinstance(other, int):
            return PadicTruncated(self.p, self.prec, other)
        if isinstance(other, Fraction):
            return PadicTruncated.from_fraction(other, self.p, self.prec)
        raise TypeError(f"cannot coerce {other!r} into Z_{self.p}")

    def is_unit(self):
        return self.residue % self.p != 0

    def inverse(self):
        if not self.is_unit():
            raise NonUnitInverse(
                f"residue {self.residue} is divisible by {self.p}; "
                "only units are invertible at finite precision")
        return PadicTruncated(self.p, self.prec,
                              pow(self.residue, -1, self.p ** self.prec))

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self * other.inverse()

    def valuation(self):
        """min(v_p(residue), prec); equals prec exactly when the residue is 0,
        in which case it is only a lower bound ("at least prec")."""
        if self.residue == 0:
            return self.prec
        return min(vp_int(self.residue, self.p), self.prec)

    def valuation_is_exact(self):
        return self.residue != 0

    def unit_part(self):
        """Residue divided by p^valuation, at correspondingly reduced precision."""
        v = self.valuation()
        if v >= self.prec:
            raise NonUnitInverse("zero residue has no unit part")
        return PadicTruncated(self.p, self.prec - v, self.residue // self.p ** v)

    def __repr__(self):
        return f"PadicTruncated({self.residue} mod {self.p}^{self.prec})"
