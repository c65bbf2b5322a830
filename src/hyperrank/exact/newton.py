"""Newton polygons: exact p-adic valuations of polynomial roots.

For f = sum a_i x^i the polygon is the lower convex hull of the points
(i, v_p(a_i)) over the support.  A hull segment from (i1, y1) to (i2, y2)
certifies i2 - i1 roots of valuation -(y2 - y1)/(i2 - i1), exactly.  Roots at
zero (a trailing x^r factor) are split off first and reported separately.
f is a trimmed ascending coefficient sequence of ints or Fractions, or a
QPoly, as acceptance criterion 3 builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ZeroPolynomial
from .padic import vp_fraction


@dataclass(frozen=True)
class NewtonPolygon:
    p: int
    vertices: tuple            # hull vertices (i, v_p(a_i)), i ascending
    slopes: tuple              # ((valuation: Fraction, multiplicity: int), ...) ascending
    zero_roots: int            # multiplicity of the root 0 (infinite valuation)

    def valuations(self):
        """Root valuations with multiplicity, ascending; excludes zero roots."""
        out = []
        for v, m in self.slopes:
            out.extend([v] * m)
        return out


def lower_hull(points):
    """Monotone-chain lower hull of (x, y) points with distinct ascending x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the middle point only when slopes strictly increase through it;
            # collinear points are dropped so vertices are genuine corners
            if (y2 - y1) * (pt[0] - x2) < (pt[1] - y2) * (x2 - x1):
                break
            hull.pop()
        hull.append(pt)
    return hull


def newton_polygon(f, p: int) -> NewtonPolygon:
    coeffs = f if isinstance(f, (list, tuple)) else f.coeffs
    if not coeffs:
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    zero_roots = 0
    while coeffs[zero_roots] == 0:
        zero_roots += 1
    points = [(i, vp_fraction(c, p))
              for i, c in enumerate(coeffs) if c != 0]
    hull = lower_hull(points)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        val = Fraction(-(y2 - y1), x2 - x1)
        if slopes and slopes[-1][0] == val:
            slopes[-1] = (val, slopes[-1][1] + (x2 - x1))
        else:
            slopes.append((val, x2 - x1))
    # ascending valuation = descending slope; hull walks left to right with
    # increasing slope, i.e. decreasing valuation, so reverse.
    slopes.reverse()
    return NewtonPolygon(p=p, vertices=tuple(hull),
                         slopes=tuple(slopes), zero_roots=zero_roots)
