"""Builders and an oracle shared by the unit tests.

None of these is reached from a command: the tests use them to set up
points, observables and group elements, and to cross-check the joint
p-adic spectrum against single-matrix Newton polygons.
"""

from fractions import Fraction

from hyperrank.errors import RankDeficient
from hyperrank.exact import QMat
from hyperrank.exact.newton import newton_polygon
from hyperrank.nilpotent import NilElement, nil_element
from hyperrank.solenoid import SolenoidPoint, TrigFunction


def padic_lyapunov(matrix, p):
    """[(valuation, multiplicity)] of the eigenvalues in Q_p-bar, exact,
    ascending by valuation.  Newton polygon of the characteristic polynomial."""
    m = matrix if isinstance(matrix, QMat) else QMat(matrix)
    cp = m.charpoly()
    if cp[0] == 0:
        raise RankDeficient("singular matrix has an eigenvalue 0")
    return list(newton_polygon(cp, p).slopes)


def solenoid_point(x, xi=None, primes=(), prec=32):
    """Build a point; without explicit fibers, embeds the rational torus
    coordinate (denominators must then avoid the primes in S)."""
    xs = tuple(Fraction(c) % 1 for c in x)
    if xi is None:
        xi = {}
        for p in primes:
            q = p ** prec
            res = []
            for c in xs:
                if c.denominator % p == 0:
                    raise ValueError(
                        f"cannot embed denominator {c.denominator} at p = {p}; "
                        "pass the fiber coordinate explicitly")
                # fibers carry the negative of the p-adic value of x, so the
                # embedded point pairs with characters the same way the torus
                # point does
                res.append(-c.numerator * pow(c.denominator, -1, q) % q)
            xi[p] = (prec, tuple(res))
    packed = []
    for p in sorted(xi):
        pr, res = xi[p]
        packed.append((p, pr, tuple(int(r) % p ** pr for r in res)))
        if len(packed[-1][2]) != len(xs):
            raise ValueError("fiber dimension disagrees with the torus part")
    return SolenoidPoint(x=xs, xi=tuple(packed))


def cosine(mode, primes=()):
    """cos(2 pi <m, .>) as a TrigFunction."""
    mode = tuple(Fraction(c) for c in mode)
    return TrigFunction.build([(mode, 0.5),
                               (tuple(-c for c in mode), 0.5)], primes)


def nil_identity(structure) -> NilElement:
    return nil_element(structure, [0] * structure.dim)
