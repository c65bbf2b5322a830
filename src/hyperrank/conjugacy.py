"""Numerical conjugacy between a perturbed expanding torus map and its
linear part.

tau(x) = Ax + q(x) mod 1 with A an expanding integer matrix and q a small
trigonometric series.  The conjugacy phi = id + h with phi o tau = A o phi
has displacement h solving the cohomological equation A h = q + h o tau, and
the sweep

    h  <-  A^{-1} (q + h o tau)

sums the series h = sum_i A^{-(i+1)} q o tau^i by straight fixed-point
iteration on a periodic grid.  Each update is A^{-1} applied to the previous
one pulled back along tau, and the pull-back (multilinear interpolation)
does not raise the sup norm, so the n-th update is at most
||A^{-(n-1)}||_inf times the first.  That goes to 0 because every eigenvalue
of A^{-1} lies inside the unit disc.  The sweep is a sup-norm contraction
at rate ||A^{-1}||_inf only when that norm is below 1, which expansion does
not imply: the norm is 2 for [[0, -10^6], [1, 10^6]].

The sweep is floating point, and honest about being numerics: residuals
are measured, logged, and re-verified off-grid.  Only the perturbation's
phases <k, x> mod 1 are exact, rounded once by solenoid's phase kernel.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateField, NoConvergence, NotExpanding,
                     RootFindingFailure)
from .exact import QMat
from .solenoid import characters_at
from .spectra import real_lyapunov


@dataclass(frozen=True)
class TrigPerturbation:
    """Finite trigonometric series q(x) = Re sum_t c_t e^{2 pi i <k_t, x>},
    one complex coefficient tuple per term (one entry per component)."""

    dim: int
    terms: tuple          # ((k tuple of ints, coeffs tuple of complex), ...)

    def at(self, xs):
        """q at the columns of a (dim, count) array, as a (dim, count)
        array; rounded as the scalar sum of Re(c e^{2 pi i <k, x>}) over
        the terms in order, each from its exact phase (characters_at)."""
        out = np.zeros((self.dim, xs.shape[1]))
        chars = characters_at([k for k, _ in self.terms], xs)
        for (_, coeffs), e in zip(self.terms, chars):
            for j, c in enumerate(coeffs):
                out[j] = out[j] + (c.real * e.real - c.imag * e.imag)
        return out

    def deriv_bound(self):
        # |d_l q_j| <= sum_t 2 pi |k_l| |c_j|; Frobenius of that entrywise
        # bound matrix dominates the operator norm of Dq everywhere
        total = 0.0
        for j in range(self.dim):
            for l in range(self.dim):
                m = sum(2 * math.pi * abs(k[l]) * abs(coeffs[j])
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
    """tau(x) = lin x + q(x) mod 1, the expansion check reading q's
    derivative bound; build through perturbed_map()."""

    lin: QMat
    q: TrigPerturbation

    @property
    def dim(self):
        return self.lin.shape[0]

    def min_modulus(self):
        """Smallest eigenvalue modulus of the linear part."""
        return math.exp(real_lyapunov(self.lin)[0][0])

    def check_expanding(self):
        if self.lin.det() == 0:
            raise NotExpanding("linear part is singular")
        try:
            lam = self.min_modulus()
        except RootFindingFailure as exc:
            raise NotExpanding(f"{exc}; the linear part is not shown to "
                               "expand") from exc
        if lam <= 1.0 + 1e-12:
            raise NotExpanding(
                f"smallest eigenvalue modulus {lam:.6g} is not > 1; "
                "the linear part does not expand")
        dq_bound = self.q.deriv_bound()
        if dq_bound >= lam - 1.0:
            raise NotExpanding(
                f"perturbation derivative bound {dq_bound:.6g} reaches "
                f"the expansion margin {lam - 1.0:.6g}")

    def tau_at(self, xs):
        """tau at the columns of a (dim, count) array."""
        return (_linear(self.lin, xs) + self.q.at(xs)) % 1.0


def perturbed_map(lin, q=None) -> PerturbedMap:
    """Validated constructor; q is a TrigPerturbation of the linear part's
    dimension, zero if omitted."""
    m = lin if isinstance(lin, QMat) else QMat(lin)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("linear part must be square")
    if not m.is_integer():
        raise ValueError("linear part must be an integer matrix to act on "
                         "the torus")
    if q is None:
        q = trig_perturbation(rows, [])
    if not isinstance(q, TrigPerturbation):
        raise ValueError("perturbation must be a TrigPerturbation")
    if q.dim != rows:
        raise ValueError("perturbation dimension disagrees with the linear "
                         "part")
    return PerturbedMap(lin=m, q=q)


# --- array helpers ----------------------------------------------------------
#
# Points travel as the columns of a (dim, count) float array.  Every routine
# below rounds each point exactly as the scalar formula it replaces: sums run
# left to right from 0.0, and numpy's elementwise float operations are the
# IEEE ones CPython uses.


def _linear(m: QMat, xs):
    """m x at every column of xs, each row summed left to right."""
    out = np.zeros((len(m.rows), xs.shape[1]))
    for i, row in enumerate(m.rows):
        for c, t in zip(row, xs):
            out[i] = out[i] + float(c) * t
    return out


def _corners(xs, n):
    """The 2^dim corners of multilinear periodic interpolation on the
    n-grid at every column of xs: per corner the flat row-major grid index
    and the weight, the product of frac or 1 - frac over the axes in order.
    A zero weight needs no skipping: times a finite value it adds +-0.0 to
    a sum that starts at +0.0, which changes no partial sum."""
    s = xs * n
    base = np.floor(s)
    frac = s - base
    base = base.astype(np.int64)
    out = []
    for corner in range(1 << len(xs)):
        w = np.ones(xs.shape[1])
        idx = np.zeros(xs.shape[1], dtype=np.int64)
        for axis in range(len(xs)):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            idx = idx * n + (base[axis] + bit) % n
        out.append((idx, w))
    return out


def _interpolate(values, corners):
    """The field with grid values (dim, n^dim) at the points the corners
    were built for, as a (dim, count) array, corners summed in order."""
    out = np.zeros((len(values), len(corners[0][0])))
    for idx, w in corners:
        out = out + w * values[:, idx]
    return out


# --- displacement fields ----------------------------------------------------


@dataclass(frozen=True)
class ConjugacyField:
    """h on a uniform periodic grid, one flat value tuple per component,
    row-major over axes; the sweep log rides along."""

    dim: int
    grid: int
    values: tuple         # dim tuples, each of length grid**dim
    residuals: tuple      # sup |h_new - h_old| per sweep
    rate_bound: float     # ||A^{-1}||_inf; certifies contraction if < 1

    @cached_property
    def array(self):
        """values as a (dim, grid**dim) float array."""
        return np.array(self.values, dtype=float).reshape(self.dim, -1)

    def displacement_at(self, xs):
        """Multilinear periodic interpolation at the columns of a
        (dim, count) array of real points."""
        return _interpolate(self.array, _corners(xs, self.grid))


def solve_conjugacy(pmap: PerturbedMap, grid, tol=1e-8,
                    budget=200) -> ConjugacyField:
    """Iterate h <- A^{-1}(q + h o tau) on the grid until the sup update
    falls under tol.  The updates shrink geometrically since A is
    expanding, each sweep by at most ||A^{-1}||_inf when that is below 1.

    tau, q and the interpolation corners of tau's grid images are fixed
    across sweeps, so they are built once, q evaluated on the grid once for
    both; a sweep is 2^dim gathers and a dim x dim combination."""
    pmap.check_expanding()
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = pmap.dim
    ainv = pmap.lin.inverse()
    rate = float(max(sum(abs(c) for c in row) for row in ainv.rows))
    # grid points, row-major with the last axis fastest
    pts = np.indices((grid,) * d).reshape(d, -1) / grid
    qx = pmap.q.at(pts)
    # tau_at's operations on the q just evaluated, so the same bits
    corners = _corners((_linear(pmap.lin, pts) + qx) % 1.0, grid)
    h = np.zeros((d, grid ** d))
    history = []
    for _ in range(budget):
        new = _linear(ainv, qx + _interpolate(h, corners))
        # fmax skips NaN as the scalar running max(residual, r) does
        residual = float(np.fmax.reduce(np.abs(new - h), axis=None,
                                        initial=0.0))
        history.append(residual)
        h = new
        if residual < tol:
            return ConjugacyField(dim=d, grid=grid,
                                  values=tuple(map(tuple, h.tolist())),
                                  residuals=tuple(history), rate_bound=rate)
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
    xs = np.array([rng.random() for _ in range(samples * d)],
                  dtype=float).reshape(samples, d).T
    y = pmap.tau_at(xs)
    left = y + field.displacement_at(y)
    right = _linear(pmap.lin, xs + field.displacement_at(xs))
    diff = left - right
    r = np.abs(diff - np.rint(diff)).max(axis=0, initial=0.0)
    acc = 0.0
    for v in r.tolist():       # the scalar running sum, in sample order
        acc += v
    return ResidualReport(sup=float(r.max(initial=0.0)), mean=acc / samples,
                          count=samples)


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
    vals = field.array
    if np.all(vals.max(axis=1) - vals.min(axis=1) <= floor):
        raise DegenerateField("displacement field is constant")
    rng = random.Random(seed)
    d = field.dim
    delta = 1.0 / field.grid
    per_bin = max(8, pairs // _HOLDER_BINS)
    ts = [delta * _HOLDER_SPAN ** (b / (_HOLDER_BINS - 1))
          for b in range(_HOLDER_BINS)]
    count = per_bin * _HOLDER_BINS
    uniform, below = rng.random, rng.randrange
    draws, axes, coins = [], [], []     # a sign is + when its coin is < 0.5
    for _ in range(count):
        for _ in range(d):
            draws.append(uniform())
        axes.append(below(d))
        coins.append(uniform())
    starts = np.array(draws, dtype=float).reshape(count, d).T
    # each pair steps by +-t along one axis, t the scale of its bin
    steps = np.zeros((d, count))
    signs = np.where(np.array(coins) < 0.5, 1.0, -1.0)
    steps[axes, np.arange(count)] = signs * np.repeat(ts, per_bin)
    ends = starts + steps
    gaps = np.abs(field.displacement_at(starts) - field.displacement_at(ends))
    scales, moduli = [], []
    for t, gap in zip(ts, np.split(gaps.max(axis=0), _HOLDER_BINS)):
        best = float(gap.max(initial=0.0))
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
    # grid points in flat order: the last axis varies fastest
    coords = itertools.product([repr(i / n) for i in range(n)], repeat=d)
    values = zip(*(map(repr, v) for v in field.values))
    lines = [",".join(head)]
    lines += [",".join((str(flat), *x, *h))
              for flat, (x, h) in enumerate(zip(coords, values))]
    return "\n".join(lines) + "\n"
