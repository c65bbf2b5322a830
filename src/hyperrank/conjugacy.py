"""Numerical conjugacy between a perturbed expanding torus map and its
linear part.

tau(x) = Ax + q(x) mod 1 with A an expanding integer matrix and q a small
periodic perturbation.  The conjugacy phi = id + h with phi o tau = A o phi
has displacement h solving the cohomological equation A h = q + h o tau, and
the sweep

    h  <-  A^{-1} (q + h o tau)

is a sup-norm contraction at rate ||A^{-1}||_inf < 1, so the series
h = sum_i A^{-(i+1)} q o tau^i is summed by straight fixed-point iteration
on a periodic grid.  Everything here is floating point; the exactness story
lives in the other modules, and this one is honest about being numerics:
residuals are measured, logged, and re-verified off-grid.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .errors import DegenerateField, NoConvergence, NotExpanding
from .exact import QMat
from .spectra import real_lyapunov

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrigPerturbation:
    """Finite trigonometric series q(x) = Re sum_t c_t e^{2 pi i <k_t, x>},
    one complex coefficient tuple per term (one entry per component)."""

    dim: int
    terms: tuple          # ((k tuple of ints, coeffs tuple of complex), ...)

    def __call__(self, x):
        out = [0.0] * self.dim
        for k, coeffs in self.terms:
            phase = cmath.exp(2j * math.pi * sum(a * b for a, b in zip(k, x)))
            for j, c in enumerate(coeffs):
                out[j] += (c * phase).real
        return tuple(out)

    def sup_bound(self):
        """Componentwise-max bound on ||q||_inf: sum of |c| per component."""
        if not self.terms:
            return 0.0
        return max(sum(abs(coeffs[j]) for _, coeffs in self.terms)
                   for j in range(self.dim))

    def deriv_bound(self):
        # |d_l q_j| <= sum_t 2 pi |k_l| |c_j|; Frobenius of that entrywise
        # bound matrix dominates the operator norm of Dq everywhere
        total = 0.0
        for j in range(self.dim):
            for l in range(self.dim):
                m = sum(TWO_PI * abs(k[l]) * abs(coeffs[j])
                        for k, coeffs in self.terms)
                total += m * m
        return math.sqrt(total)


def trig_perturbation(dim, terms) -> TrigPerturbation:
    packed = []
    for k, coeffs in terms:
        k = tuple(int(t) for t in k)
        coeffs = tuple(complex(c) for c in coeffs)
        if len(k) != dim or len(coeffs) != dim:
            raise ValueError("term arity disagrees with the dimension")
        packed.append((k, coeffs))
    return TrigPerturbation(dim=dim, terms=tuple(packed))


@dataclass(frozen=True)
class PerturbedMap:
    """tau(x) = lin x + q(x) mod 1; build through perturbed_map()."""

    lin: QMat
    q: object             # callable [0,1)^d -> R^d, 1-periodic
    q_bound: float
    dq_bound: float

    @property
    def dim(self):
        return self.lin.shape[0]

    def min_modulus(self):
        """Smallest eigenvalue modulus of the linear part."""
        return math.exp(real_lyapunov(self.lin)[0][0])

    def check_expanding(self):
        if self.lin.det() == 0:
            raise NotExpanding("linear part is singular")
        lam = self.min_modulus()
        if lam <= 1.0 + 1e-12:
            raise NotExpanding(
                f"smallest eigenvalue modulus {lam:.6g} is not > 1; "
                "the linear part does not expand")
        if self.dq_bound >= lam - 1.0:
            raise NotExpanding(
                f"perturbation derivative bound {self.dq_bound:.6g} reaches "
                f"the expansion margin {lam - 1.0:.6g}")

    def tau(self, x):
        lin = [sum(float(c) * t for c, t in zip(row, x))
               for row in self.lin.rows]
        qv = self.q(x)
        return tuple((a + b) % 1.0 for a, b in zip(lin, qv))


def perturbed_map(lin, q=None, q_bound=None, dq_bound=None) -> PerturbedMap:
    """Validated constructor.  q may be a TrigPerturbation (bounds derived)
    or any periodic callable (bounds must be supplied)."""
    m = lin if isinstance(lin, QMat) else QMat(lin)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("linear part must be square")
    if any(c.denominator != 1 for row in m.rows for c in row):
        raise ValueError("linear part must be an integer matrix to act on "
                         "the torus")
    if q is None:
        q = trig_perturbation(rows, [])
    if isinstance(q, TrigPerturbation):
        if q.dim != rows:
            raise ValueError("perturbation dimension disagrees with the "
                             "linear part")
        q_bound = q.sup_bound() if q_bound is None else float(q_bound)
        dq_bound = q.deriv_bound() if dq_bound is None else float(dq_bound)
    else:
        if q_bound is None or dq_bound is None:
            raise ValueError("callable perturbations need explicit q_bound "
                             "and dq_bound")
        q_bound = float(q_bound)
        dq_bound = float(dq_bound)
    return PerturbedMap(lin=m, q=q, q_bound=q_bound, dq_bound=dq_bound)


# --- displacement fields ----------------------------------------------------


@dataclass(frozen=True)
class ConjugacyField:
    """h on a uniform periodic grid, one flat value tuple per component,
    row-major over axes; the sweep log rides along."""

    dim: int
    grid: int
    values: tuple         # dim tuples, each of length grid**dim
    residuals: tuple      # sup |h_new - h_old| per sweep
    rate_bound: float     # ||A^{-1}||_inf, the contraction certificate

    @property
    def sweeps(self):
        return len(self.residuals)

    def displacement(self, x):
        """Multilinear periodic interpolation at any real point."""
        n = self.grid
        base, frac = [], []
        for t in x:
            s = t * n
            b = math.floor(s)
            base.append(b)
            frac.append(s - b)
        out = [0.0] * self.dim
        for corner in range(1 << self.dim):
            w = 1.0
            idx = 0
            for axis in range(self.dim):
                bit = (corner >> axis) & 1
                w *= frac[axis] if bit else 1.0 - frac[axis]
                idx = idx * n + (base[axis] + bit) % n
            if w == 0.0:
                continue
            for j in range(self.dim):
                out[j] += w * self.values[j][idx]
        return tuple(out)

    def phi(self, x):
        return tuple(t + d for t, d in zip(x, self.displacement(x)))


def _grid_points(dim, n):
    pts = []
    idx = [0] * dim
    for flat in range(n ** dim):
        r = flat
        for axis in range(dim - 1, -1, -1):
            idx[axis] = r % n
            r //= n
        pts.append(tuple(i / n for i in idx))
    return pts


def solve_conjugacy(pmap: PerturbedMap, grid, tol=1e-8,
                    budget=200) -> ConjugacyField:
    """Iterate h <- A^{-1}(q + h o tau) on the grid until the sup update
    falls under tol; geometric at rate <= ||A^{-1}||_inf by expansion."""
    pmap.check_expanding()
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = pmap.dim
    ainv = pmap.lin.inverse()
    rate = float(max(sum(abs(c) for c in row) for row in ainv.rows))
    ainv_f = [[float(c) for c in row] for row in ainv.rows]
    pts = _grid_points(d, grid)
    qx = [pmap.q(x) for x in pts]
    # tau is sweep-independent: precompute the pullback points once
    taux = [tuple((sum(float(c) * t for c, t in zip(row, x)) + qv[i]) % 1.0
                  for i, row in enumerate(pmap.lin.rows))
            for x, qv in zip(pts, qx)]
    h = ConjugacyField(dim=d, grid=grid,
                       values=tuple(tuple([0.0] * len(pts))
                                    for _ in range(d)),
                       residuals=(), rate_bound=rate)
    history = []
    for _ in range(budget):
        new = [[0.0] * len(pts) for _ in range(d)]
        residual = 0.0
        for pt in range(len(pts)):
            pulled = h.displacement(taux[pt])
            for j in range(d):
                v = sum(ainv_f[j][l] * (qx[pt][l] + pulled[l])
                        for l in range(d))
                new[j][pt] = v
                residual = max(residual, abs(v - h.values[j][pt]))
        history.append(residual)
        h = ConjugacyField(dim=d, grid=grid,
                           values=tuple(tuple(c) for c in new),
                           residuals=tuple(history), rate_bound=rate)
        if residual < tol:
            return h
    raise NoConvergence(budget, tuple(history))


@dataclass(frozen=True)
class ResidualReport:
    sup: float
    mean: float
    count: int


def verify_conjugacy(pmap: PerturbedMap, field: ConjugacyField,
                     samples=500, seed=0) -> ResidualReport:
    """Off-grid check of phi o tau = A o phi at random points; the residual
    is the toral distance, reported exactly as sampled."""
    rng = random.Random(seed)
    d = pmap.dim
    sup = 0.0
    acc = 0.0
    for _ in range(samples):
        x = tuple(rng.random() for _ in range(d))
        y = pmap.tau(x)
        left = field.phi(y)
        px = field.phi(x)
        right = [sum(float(c) * t for c, t in zip(row, px))
                 for row in pmap.lin.rows]
        r = max(abs(a - b - round(a - b)) for a, b in zip(left, right))
        sup = max(sup, r)
        acc += r
    return ResidualReport(sup=sup, mean=acc / samples, count=samples)


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    ci_low: float
    ci_high: float
    scales: tuple
    moduli: tuple


_HOLDER_BINS = 12
_HOLDER_SPAN = 10.0


def holder_estimate(field: ConjugacyField, pairs=3000,
                    seed=0) -> HolderEstimate:
    """Regularity exponent of h from the modulus of continuity.

    Distances are confined to the resolution band [delta, 10 delta] with
    delta the grid step; at each of 12 log-spaced scales the largest sampled
    increment estimates omega(t), and the slope of log omega against log t
    is the exponent.  The confidence interval is the 95 percent band of the
    regression slope.
    """
    # constant up to the solver's own convergence noise is still constant;
    # each component is judged on its own range
    floor = 1e-15 + 10.0 * (field.residuals[-1] if field.residuals else 0.0)
    if all(max(c) - min(c) <= floor for c in field.values):
        raise DegenerateField("displacement field is constant")
    rng = random.Random(seed)
    d = field.dim
    delta = 1.0 / field.grid
    per_bin = max(8, pairs // _HOLDER_BINS)
    scales, moduli = [], []
    for b in range(_HOLDER_BINS):
        t = delta * _HOLDER_SPAN ** (b / (_HOLDER_BINS - 1))
        best = 0.0
        for _ in range(per_bin):
            x = tuple(rng.random() for _ in range(d))
            axis = rng.randrange(d)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            y = tuple(v + (sign * t if j == axis else 0.0)
                      for j, v in enumerate(x))
            hx = field.displacement(x)
            hy = field.displacement(y)
            best = max(best, max(abs(a - b2) for a, b2 in zip(hx, hy)))
        if best > 0.0:
            scales.append(t)
            moduli.append(best)
    if len(scales) < 3:
        raise DegenerateField("displacement increments vanish on the "
                              "sampled band")
    xs = [math.log(t) for t in scales]
    ys = [math.log(m) for m in moduli]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((a - mx) ** 2 for a in xs)
    slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx
    inter = my - slope * mx
    ssr = sum((b - (inter + slope * a)) ** 2 for a, b in zip(xs, ys))
    se = math.sqrt(ssr / (k - 2) / sxx) if k > 2 else 0.0
    half = 1.96 * se
    return HolderEstimate(exponent=slope, ci_low=slope - half,
                          ci_high=slope + half, scales=tuple(scales),
                          moduli=tuple(moduli))


def field_to_csv(field: ConjugacyField) -> str:
    """Plottable dump: flat index, grid coordinates, h components."""
    n = field.grid
    d = field.dim
    head = ["index"] + [f"x{j}" for j in range(d)] \
        + [f"h{j}" for j in range(d)]
    lines = [",".join(head)]
    for flat in range(n ** d):
        r = flat
        idx = [0] * d
        for axis in range(d - 1, -1, -1):
            idx[axis] = r % n
            r //= n
        row = [str(flat)] + [repr(i / n) for i in idx] \
            + [repr(field.values[j][flat]) for j in range(d)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
