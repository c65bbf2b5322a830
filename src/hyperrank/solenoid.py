"""S-adic solenoid points, characters, correlations, and mixing diagnostics.

Points live in the fundamental domain T^d x prod_p Z_p^d: a rational torus
coordinate plus truncated p-adic fibers, one for each prime in S.  A pair
(x, xi) and its translate (x + r, xi - r) by r in Z[1/S]^d name the same
point, so whenever the torus coordinate is reduced into [0, 1) the dropped
integer vector is added to every fiber.  The dual lattice is Z[1/S]^d, and
a character evaluates to

    exp(2 pi i (<m, x> + sum_p {<m, xi_p>}_p))

with {.}_p the p-adic fractional part; pushing a point forward through an
integer matrix multiplies the mode by the transpose, and that identity holds
exactly on the rational phases, which is what the exact correlation and the
inverse-branch arithmetic lean on.

Phases are exact rationals end to end; floats appear only inside the final
complex exponential and in Monte Carlo and Birkhoff averaging.  Monte Carlo
and the CLT check share one phase kernel: each character is evaluated on
all points at once from integer phase numerators N over a common
denominator D (summed mod 2^64 when D = 2^b with b <= 64, which is all
such a phase needs), and N mod D / D is rounded once, as the scalar
Fraction evaluation (float of the phase, then cmath.exp) rounds.  The CLT
check steps its orbits at once on exact integer states, and its Birkhoff
sums round as the one-orbit-at-a-time loop's would.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegenerateFit, LeavesDualLattice, NotAnAutomorphism,
                     PrecisionExhausted)
from .exact import QMat, crt_integers, factor_int, vp_int
from .exact.intmat import mat_mul_mod


_GRID_BITS = 32         # sampled torus coordinates lie on 2^-32 Z
_MIN_DIGITS = 32        # the fewest p-adic digits a sampled fiber carries
_ESCAPE_CAP = 200       # dual-orbit steps _escape_index may take
_CLT_REF_TERMS = 64     # lags in clt_check's exact series variance
_CLT_BINS = 16          # bins of clt_check's histogram
_CLT_BLOCK = 16         # Birkhoff steps clt_check sums at once
_TOP_BITS = 1000        # phase bits _unit_phases rounds without int division
_TIE_FREE = 1 << 118    # top bits below this take the int division
_LOW64 = (1 << 64) - 1


# --- points -----------------------------------------------------------------


@dataclass(frozen=True)
class SolenoidPoint:
    x: tuple                   # Fractions, reduced into [0, 1)
    xi: tuple                  # ((p, prec, residues), ...) ascending in p

    @property
    def dim(self):
        return len(self.x)

    @property
    def primes(self):
        return tuple(p for p, _, _ in self.xi)

    def xi_at(self, p):
        for q, prec, res in self.xi:
            if q == p:
                return prec, res
        raise KeyError(f"no fiber coordinate for p = {p}")


def haar_sample(count, dim, primes=(), seed=0, prec=_MIN_DIGITS, *,
                columns=False):
    """Haar-distributed points: uniform 2^-32 torus coordinates and
    independent uniform residues in each fiber.

    Per point the torus coordinates are drawn first, then the residues prime
    by prime in the order given; the fibers are stored ascending in p, and a
    prime given twice keeps its last draw.  With columns=True the same draws
    come back as integer columns instead of points: per torus axis the
    numerators over 2^32, and {p: residues per axis} ascending in p."""
    randrange = random.Random(seed).randrange
    den = 1 << _GRID_BITS
    last = {p: i for i, p in enumerate(primes)}
    # each fiber's offset in a point's draws
    order = [(p, dim * (1 + last[p])) for p in sorted(last)]
    bounds = [den] * dim + [p ** prec for p in primes for _ in range(dim)]
    w = len(bounds)
    flat = [randrange(b) for _ in range(count) for b in bounds]
    if columns:
        cols = [flat[j::w] for j in range(w)]
        return cols[:dim], {p: cols[o:o + dim] for p, o in order}
    rows = [flat[k * w:(k + 1) * w] for k in range(count)]
    return [SolenoidPoint(x=tuple([Fraction(u, den) for u in row[:dim]]),
                          xi=tuple([(p, prec, tuple(row[o:o + dim]))
                                    for p, o in order])) for row in rows]


# --- the action and its inverse ---------------------------------------------


def apply(a: QMat, pt: SolenoidPoint) -> SolenoidPoint:
    """Forward image under an integer matrix; fiber precision is unchanged.

    The integer part dropped when the torus coordinate is reduced mod 1 is
    added to every fiber, keeping the pair a single representative.
    """
    rows = a.int_rows()
    raw = [sum(Fraction(rows[i][j]) * pt.x[j] for j in range(pt.dim))
           for i in range(pt.dim)]
    x = tuple(r % 1 for r in raw)
    carry = [int(r - r % 1) for r in raw]
    xi = []
    for p, prec, res in pt.xi:
        q = p ** prec
        xi.append((p, prec, tuple(
            (sum(rows[i][j] * res[j] for j in range(pt.dim)) + carry[i]) % q
            for i in range(pt.dim))))
    return SolenoidPoint(x=x, xi=tuple(xi))


def inverse_levels(a: QMat):
    """Per-prime branching level l_p = v_p(det) - min_ij v_p(adj_ij): the
    inverse needs the fiber coordinate mod p^{l_p} to pick its integer
    translate."""
    det = int(a.det())
    adj = a.adjugate()
    out = {}
    for p in factor_int(det):
        d = vp_int(det, p)
        m0 = min(vp_int(int(c), p) if c != 0 else d
                 for row in adj.rows for c in row)
        out[p] = d - min(m0, d)
    return out


def apply_inverse(a: QMat, pt: SolenoidPoint) -> SolenoidPoint:
    """Preimage under the solenoid automorphism extending the integer matrix.

    Resolves the branch with the fiber residues: n = CRT(xi_p mod p^{l_p}),
    then x' = a^{-1}(x + n) exactly and xi'_p = a^{-1}(xi_p - n) with l_p
    digits of precision spent at each prime dividing det.
    """
    det = int(a.det())
    if det == 0:
        raise NotAnAutomorphism("singular matrix")
    have = set(pt.primes)
    for p in factor_int(det):
        if p not in have:
            raise NotAnAutomorphism(
                f"determinant prime {p} is not inverted in this solenoid")
    levels = inverse_levels(a)
    for p, l in levels.items():
        prec, _ = pt.xi_at(p)
        if prec < l:
            raise PrecisionExhausted(
                f"need {l} digits at p = {p}, have {prec}")
    n = []
    for i in range(pt.dim):
        pairs = []
        for p, l in sorted(levels.items()):
            if l > 0:
                _, res = pt.xi_at(p)
                pairs.append((res[i] % p ** l, p ** l))
        n.append(crt_integers(pairs)[0] if pairs else 0)
    ainv = a.inverse()
    raw = [sum(ainv.rows[i][j] * (pt.x[j] + n[j]) for j in range(pt.dim))
           for i in range(pt.dim)]
    x = tuple(r % 1 for r in raw)
    carry = [int(r - r % 1) for r in raw]
    xi = []
    for p, prec, res in pt.xi:
        new_prec = prec - levels.get(p, 0)
        v = [sum(ainv.rows[i][j] * (res[j] - n[j]) for j in range(pt.dim))
             for i in range(pt.dim)]
        if any(c.denominator % p == 0 for c in v):
            raise PrecisionExhausted(
                "branch translate failed to clear the level")
        qn = p ** new_prec
        xi.append((p, new_prec, tuple(
            (c.numerator * pow(c.denominator, -1, qn) + k) % qn
            for c, k in zip(v, carry))))
    return SolenoidPoint(x=x, xi=tuple(xi))


# --- characters and trigonometric observables -------------------------------


@dataclass(frozen=True)
class TrigFunction:
    """Finite combination sum_m c_m chi_m with modes in Z[1/S]^d."""

    terms: tuple               # ((mode, coeff complex), ...) deduplicated
    primes: tuple              # the S the modes are allowed to use

    @classmethod
    def build(cls, terms, primes=()):
        primes = tuple(sorted(set(primes)))
        merged = {}
        dim = None
        for mode, coeff in terms:
            mode = tuple(Fraction(c) for c in mode)
            if dim is None:
                dim = len(mode)
            elif len(mode) != dim:
                raise ValueError("modes of mixed dimension")
            bad = {p for c in mode
                   for p in factor_int(c.denominator)} - set(primes)
            if bad:
                raise LeavesDualLattice(
                    f"mode {tuple(str(c) for c in mode)} has denominator "
                    f"primes {sorted(bad)} outside S = {list(primes)}")
            merged[mode] = merged.get(mode, 0) + complex(coeff)
        cleaned = tuple((m, c) for m, c in sorted(merged.items(),
                                                  key=lambda mc: tuple(
                                                      map(str, mc[0])))
                        if c != 0)
        return cls(terms=cleaned, primes=primes)

    @property
    def dim(self):
        return len(self.terms[0][0]) if self.terms else 0

    def fiber_digits(self):
        """The largest exponent of a prime of S in a mode denominator: the
        fiber digits a point needs to evaluate every character."""
        return max((vp_int(c.denominator, p) for m, _ in self.terms
                    for c in m for p in self.primes), default=0)

    def mean(self):
        for mode, coeff in self.terms:
            if all(c == 0 for c in mode):
                return coeff
        return 0j

    def conjugate(self):
        return TrigFunction.build(
            [(tuple(-c for c in m), coeff.conjugate())
             for m, coeff in self.terms], self.primes)

    def pushforward(self, a: QMat):
        """f o rho(a): every mode m becomes a^T m."""
        at = a.transpose()
        return TrigFunction.build(
            [(at.matvec(m), coeff) for m, coeff in self.terms], self.primes)


# --- exact correlation and mixing curves ------------------------------------


def exact_correlation(f: TrigFunction, g: TrigFunction, a: QMat, n_max):
    """C(n) = int (f o rho(a)^n) g  -  (int f)(int g), for n = 0..n_max.

    Mode bookkeeping is exact: the only contributions are pairs with
    (a^T)^n k + m = 0, so each value is a finite sum and the zero values are
    exact zeros, not numerically small ones.  The integer matrix a steps
    the integer numerators of the modes over one common denominator, the
    lcm of every mode denominator of f and g.
    """
    rows = a.int_rows()
    lcm = math.lcm(*(c.denominator for fn in (f, g) for m, _ in fn.terms
                     for c in m))
    targets = {tuple(-int(c * lcm) for c in m): coeff for m, coeff in g.terms}
    base = f.mean() * g.mean()
    modes = [tuple(int(c * lcm) for c in m) for m, _ in f.terms]
    coeffs = [c for _, c in f.terms]
    out = []
    for _ in range(n_max + 1):
        s = sum((c * targets[m] for m, c in zip(modes, coeffs)
                 if m in targets), 0j)
        out.append(s - base)
        # the row m a is the mode (a^T m)^T
        modes = [tuple(m) for m in mat_mul_mod(modes, rows)]
    return out


def _escape_index(a: QMat, modes, radius):
    """First n from which every dual orbit (a^T)^n k certifiably stays outside
    the closed sup-norm ball of the given radius.

    Float eigen-splitting with a conservative margin: once the expanding
    coordinates of the orbit carry enough mass, they grow monotonically and
    bound the sup norm from below.  Rational modes run as L k against the
    radius L r, L the lcm of their denominators.  Returns None when a^T has
    (numerically) unimodular eigenvalues or _ESCAPE_CAP steps do not suffice.
    """
    at = np.array(a.transpose().int_rows(), dtype=float)
    eigvals, eigvecs = np.linalg.eig(at)
    mods = np.abs(eigvals)
    if np.any(np.abs(mods - 1.0) < 1e-9):
        return None
    expanding = mods > 1.0
    if not np.any(expanding):
        return None
    pinv = np.linalg.inv(eigvecs)
    kappa = np.max(np.sum(np.abs(pinv), axis=1))
    lcm = math.lcm(*(c.denominator for k in modes for c in k))
    threshold = float(radius * lcm) * kappa * (1 + 1e-9)
    worst = 0
    rows = a.int_rows()
    for k in modes:
        w = [int(c * lcm) for c in k]
        n = 0
        while True:
            coords = pinv @ np.array(w, dtype=float)
            if np.max(np.abs(coords[expanding])) > threshold:
                break
            n += 1
            if n > _ESCAPE_CAP:
                return None
            w = mat_mul_mod([w], rows)[0]      # (a^T w)^T = w^T a
        worst = max(worst, n)
    return worst


@dataclass(frozen=True)
class MixingCurve:
    values: tuple              # exact correlations C(0..n_max)
    decay_rate: float          # -slope of the log|C| OLS fit; None if < 2 points
    intercept: float
    fit_points: int
    zero_from: int             # start of the exactly-zero tail (or None)
    certified_zero_from: int   # dual-orbit escape certificate (or None)


def mixing_curve(f: TrigFunction, g: TrigFunction, a: QMat, n_max,
                 fit_range=None) -> MixingCurve:
    """Exact correlation curve plus decay diagnostics.

    The decay rate is fitted on the lags with nonzero correlation; passing an
    explicit fit_range makes an underpopulated fit an error (DegenerateFit)
    instead of a None rate.
    """
    values = exact_correlation(f, g, a, n_max)
    zero_from = None
    for i in range(len(values) - 1, -1, -1):
        if values[i] != 0:
            break
        zero_from = i
    radius = max((abs(c) for m, _ in g.terms for c in m), default=0)
    nz = [m for m, _ in f.terms if any(m)]
    if not nz or (not radius and a.det() != 0):
        # a constant f meets only g's mean term, and a constant g under an
        # invertible A only f's: that term cancels
        cert = 0
    else:
        try:
            cert = _escape_index(a, nz, radius) if radius else None
        except OverflowError:   # modes past the float range: no certificate
            cert = None
    pts = [(n, math.log(abs(values[n])))
           for n in (fit_range if fit_range is not None
                     else range(len(values)))
           if values[n] != 0]
    if len(pts) < 2:
        if fit_range is not None:
            raise DegenerateFit(
                f"{len(pts)} nonzero correlation values in the requested "
                "range: no decay rate to fit")
        return MixingCurve(values=tuple(values), decay_rate=None,
                           intercept=None, fit_points=len(pts),
                           zero_from=zero_from, certified_zero_from=cert)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return MixingCurve(values=tuple(values), decay_rate=float(-slope),
                       intercept=float(intercept), fit_points=len(pts),
                       zero_from=zero_from, certified_zero_from=cert)


# --- Monte Carlo ------------------------------------------------------------


@dataclass(frozen=True)
class McCorrelation:
    n: int
    value: complex
    stderr: float
    samples: int


def _columns(torus, fibers):
    """haar_sample's integer columns, per torus axis the numerators over
    2^32 and per prime of S its fiber residues per axis: once as object
    arrays of Python ints, once as uint64 arrays of the same values mod 2^64
    (the columns of _phases' wrapping path)."""
    wide = ([np.array(col, dtype=object) for col in torus],
            {p: [np.array(col, dtype=object) for col in cols]
             for p, cols in fibers.items()})
    low = ([np.array(col, dtype=np.uint64) for col in torus],
           {p: [(col & _LOW64).astype(np.uint64) for col in cols]
            for p, cols in wide[1].items()})
    return wide, low


def _combine(vec, cols, count):
    """sum_j vec_j cols_j entrywise over arrays of count entries.

    On object arrays of Python ints the sum is exact.  On uint64 arrays it
    is the sum mod 2^64: every coefficient is reduced mod 2^64 first (the
    modes of a pushed-forward observable run to thousands of digits), and
    every product and sum wraps."""
    out = None
    for c, col in zip(vec, cols):
        if col.dtype == np.uint64:
            c &= _LOW64
        if not c:
            continue
        term = col if c == 1 else c * col
        out = term if out is None else out + term
    return np.zeros(count, dtype=object) if out is None else out


def _unit_phases(nums, q):
    """(N mod q) / q for every N in nums as a float array, rounded as the
    int true division N % q / q is, but with no big-int division when
    q = 2^b.

    nums is a sequence or object array of Python ints, or, when q = 2^b
    with b <= 64, a uint64 array of the N mod 2^64: N mod 2^b depends on
    nothing else, so the wrapping sums of _combine give it exactly.  The
    uint64 to float64 cast, like float() of an int, rounds correctly.

    float(r) is correctly rounded and scaling by a power of two is exact in
    the normal range, so float(r) * 2^-b equals r / 2^b for b <= _TOP_BITS.
    Beyond that, the top _TOP_BITS bits t of r = N mod 2^b round as r does
    unless t is a tie, and a tie with t >= 2^118 has its low 64 bits zero.
    Those t, and t < 2^118, take the int division.  Every step is an array
    operation, on Python ints element by element in object arrays.
    """
    b = q.bit_length() - 1
    if isinstance(nums, np.ndarray) and nums.dtype == np.uint64:
        return (nums & (q - 1)).astype(float) * 2.0 ** -b
    nums = np.asarray(nums, dtype=object)
    if q != 1 << b:
        return (nums % q / q).astype(float)
    if b <= _TOP_BITS:
        return (nums & (q - 1)).astype(float) * 2.0 ** -b
    # (N mod 2^b) >> shift == (N >> shift) mod 2^_TOP_BITS, also for N < 0
    t = nums >> (b - _TOP_BITS) & ((1 << _TOP_BITS) - 1)
    out = t.astype(float) * 2.0 ** -_TOP_BITS
    exact = np.flatnonzero((t < _TIE_FREE) | ((t & _LOW64) == 0))
    out[exact] = (nums[exact] % q / q).astype(float)
    return out


def _phase_form(mode, primes, bits):
    """The phase of chi_mode as the form (D, weights, the primes it reads).

    With l the lcm of the mode's denominators, D = 2^bits l and M = l m, the
    phase at a point with torus numerators u over 2^bits and fiber residues
    xi_p is N / D mod 1 for the integer

        N = sum_j M_j u_j + sum_{p | l} k_p sum_j M_j xi_pj,

    k_p = ((l / p^t)^-1 mod p^t) D / p^t for p^t || l.  The weights are M,
    then k_p M for each prime p of primes that divides l, and N mod D, so
    the phase, depends on M only through M mod D."""
    lcm = math.lcm(*(c.denominator for c in mode))
    mod = lcm << bits
    ints = [int(c * lcm) for c in mode]
    weights, reads = list(ints), []
    for p in primes:
        if lcm % p == 0:
            q = p ** vp_int(lcm, p)
            k = pow(lcm // q, -1, q) * (mod // q)
            weights += [k * c for c in ints]
            reads.append(p)
    return mod, weights, reads


def _phases(form, wide, low, samples):
    """float(N / D mod 1) for a _phase_form at every sample, the columns
    given as (torus, {p: fiber columns}).  When D = 2^b with b <= 64 (every
    integer mode on the 2^-32 grid, and dyadic ones up to denominator 2^32)
    N is summed in wrapping uint64 on the low columns, since N mod 2^b is
    all the phase needs; any other D sums N exactly in Python ints on the
    wide ones, and low may be None when D > 2^64.  Either way N mod D / D
    is rounded once, correctly, so equal exact phases give equal floats."""
    mod, weights, reads = form
    torus, fibers = low if mod <= 1 << 64 and not mod & (mod - 1) else wide
    cols = list(torus) + [c for p in reads for c in fibers[p]]
    return _unit_phases(_combine(weights, cols, samples), mod)


def _cis(theta):
    """exp(2 pi i theta) for an array of phases, rounded as the scalar
    cmath.exp(2j * math.pi * theta) is."""
    z = np.zeros(len(theta), dtype=complex)
    z.imag = 2 * math.pi * theta
    return np.exp(z)


def _character_sum(terms, count):
    """sum_m c_m exp(2 pi i theta_m) over the (c_m, theta_m) in terms, each
    theta_m an array of count phases, as (real, imag) arrays rounded as the
    scalar sum in CPython: the terms added in order from 0, each complex
    product written out as CPython computes it.  One term's arrays are
    alive at a time."""
    re = np.zeros(count)
    im = np.zeros(count)
    for c, theta in terms:
        e = _cis(theta)
        re = re + (c.real * e.real - c.imag * e.imag)
        im = im + (c.real * e.imag + c.imag * e.real)
    return re, im


def _evaluate(fn: TrigFunction, wide, low, samples):
    """fn at every sample as (real, imag) arrays, rounded as the scalar
    evaluation of every character from its Fraction phase."""
    return _character_sum(
        ((c, _phases(_phase_form(mode, fn.primes, _GRID_BITS), wide, low,
                     samples)) for mode, c in fn.terms), samples)


def monte_carlo_correlation(f: TrigFunction, g: TrigFunction, a: QMat, n,
                            samples=10000, seed=0,
                            draws=None) -> McCorrelation:
    """Haar-sampled estimate of the same functional exact_correlation
    computes; fibers carry as many digits as the modes evaluated need.

    The points are drawn straight into integer columns (haar_sample with
    columns=True, the same stream as its points), then every character is
    evaluated on all of them at once from its exact integer phase
    numerators: in wrapping uint64 when its phase modulus is
    2^b with b <= 64, in Python ints otherwise (see _phases).  A caller
    that estimates several lags may pass the same dict as draws to each
    call: it keeps the drawn points as columns, keyed by everything the
    draw depends on, so each fibre precision is drawn once, and next to
    them the values of every g evaluated on them, so g is evaluated once
    per point set.  The dict lives as long as the caller keeps it."""
    if f.primes != g.primes:
        raise ValueError("observables live on different solenoids")
    if samples < 2:
        raise ValueError(f"monte_carlo_correlation needs samples >= 2, got "
                         f"samples = {samples}")
    fn = f.pushforward(a.power(n)) if n else f
    prec = max(_MIN_DIGITS, fn.fiber_digits(), g.fiber_digits())
    key = (samples, f.dim, f.primes, seed, prec)
    draws = {} if draws is None else draws
    if key not in draws:
        draws[key] = (*_columns(*haar_sample(samples, f.dim, primes=f.primes,
                                             seed=seed, prec=prec,
                                             columns=True)), {})
    wide, low, g_values = draws[key]
    if g not in g_values:
        g_values[g] = _evaluate(g, wide, low, samples)
    fr, fi = _evaluate(fn, wide, low, samples)
    gr, gi = g_values[g]
    prod = np.empty(samples, dtype=complex)
    prod.real = fr * gr - fi * gi
    prod.imag = fr * gi + fi * gr
    vals = prod.tolist()
    # CPython's sequential sums: a numpy reduction rounds differently
    mean = sum(vals) / samples
    est = mean - f.mean() * g.mean()
    var = sum(abs(v - mean) ** 2 for v in vals) / (samples - 1)
    return McCorrelation(n=n, value=est, stderr=math.sqrt(var / samples),
                         samples=samples)


# --- central limit diagnostics ----------------------------------------------


@dataclass(frozen=True)
class CltReport:
    n: int
    orbits: int
    variance: float            # sample variance of S_n / sqrt(n)
    sigma2_ref: float          # C(0) + 2 sum_j C(j), exact correlations
    mean: float
    histogram: tuple           # (bin edges, counts)


def _orbit_sampler_bits(a: QMat, n):
    rows = a.int_rows()
    growth = max(sum(abs(c) for c in r) for r in rows)
    return n * max(1, math.ceil(math.log2(max(growth, 2)))) + 64


def clt_check(f: TrigFunction, a: QMat, n=1024, orbits=200,
              seed=0) -> CltReport:
    """Distribution of Birkhoff sums S_n / sqrt(n) for the real part of the
    centered observable, against the exact series variance.

    Orbits start on a dyadic grid fine enough (orbit-length times the matrix
    growth rate, plus slack) that n steps of the exact integer dynamics do
    not collapse onto a coarse invariant subgrid, and their fibers carry as
    many digits as the modes of f need.

    All orbits step together: their states, fibre residues and carries are
    per-coordinate object arrays of Python ints, one entry per orbit, and
    every character goes through _phases on the orbit grid: its exact
    phase N mod D / D is rounded once, as in Monte Carlo.  The grid
    2^-bits has bits > 64, so no phase takes the wrapping uint64 path;
    past _TOP_BITS only the orbits whose top bits are short or a tie take
    the int division.  The sums round as the one-orbit-at-a-time loop
    would.

    A mode m with the form (D, M, ...) has at step k the phase of the mode
    with numerators (A^T)^k M against the start of the orbit, which depends
    only on the key (D, K), K = (A^T)^k M mod D.  Equal exact phases round
    equally, so terms with equal keys have bit-equal characters, with or
    without denominators.  Each key steps with the state, and a character
    is computed only when its key is new: the step before and the same step
    are looked up first.  A lacunary observable sum_k c_k cos(2 pi 2^k x)
    under doubling thus computes two new characters per step.  The real
    parts are summed _CLT_BLOCK steps at a time, term by term in order, and
    the block's steps are added into the sums in order.
    """
    if n < 1 or orbits < 2:
        raise ValueError(f"clt_check needs n >= 1 and orbits >= 2, got "
                         f"n = {n}, orbits = {orbits}")
    d = f.dim
    rows = a.int_rows()
    bits = _orbit_sampler_bits(a, n)
    den = 1 << bits
    mask = den - 1
    rng = random.Random(seed)
    prec = max(_MIN_DIGITS, f.fiber_digits())
    modulus = {p: p ** prec for p in f.primes}
    # per orbit the torus numerators, then the fibre residues prime by prime
    starts = [[rng.randrange(den) for _ in range(d)]
              + [rng.randrange(q) for q in modulus.values() for _ in range(d)]
              for _ in range(orbits)]
    cols = [np.array(c, dtype=object) for c in zip(*starts)]
    num = cols[:d]
    xi = {p: cols[d * (i + 1):d * (i + 2)] for i, p in enumerate(modulus)}
    forms = [_phase_form(mode, f.primes, bits) for mode, _ in f.terms]
    # the keys of all terms as columns, one per coordinate (the first d
    # weights are M), and their moduli
    mods = np.array([mod for mod, _, _ in forms], dtype=object)
    keys = [np.array([w[i] for _, w, _ in forms], dtype=object) % mods
            for i in range(d)]
    dual = list(zip(*rows))             # the rows of A^T
    center = f.mean().real
    total = np.zeros(orbits)
    pending = [[] for _ in forms]       # per term its characters this block
    last = {}                           # key -> character one step back
    for step in range(n):
        now = {}
        for form, key, out in zip(forms, zip(mods, *keys), pending):
            e = now.get(key, last.get(key))
            if e is None:
                e = _cis(_phases(form, (num, xi), None, orbits))
            now[key] = e
            out.append(e)
        last = now
        keys = [_combine(r, keys, len(forms)) % mods for r in dual]
        if step % _CLT_BLOCK == _CLT_BLOCK - 1 or step == n - 1:
            # vals[s] is the observable at step s of the block, its terms
            # added in order from 0 as the scalar complex sum adds them
            vals = np.zeros((step % _CLT_BLOCK + 1, orbits))
            for (_, c), out in zip(f.terms, pending):
                e = np.stack(out)
                out.clear()
                t = c.real * e.real
                t -= c.imag * e.imag
                vals += t
            vals -= center
            for row in vals:
                total += row
        w = [_combine(r, num, orbits) for r in rows]
        num = [wi & mask for wi in w]
        if modulus:
            kv = [wi >> bits for wi in w]
            xi = {p: [(_combine(r, xi[p], orbits) + k) % q
                      for r, k in zip(rows, kv)]
                  for p, q in modulus.items()}
    arr = total / math.sqrt(n)
    corr = exact_correlation(f, f, a, min(_CLT_REF_TERMS, n - 1))
    sigma2 = corr[0].real + 2 * sum(c.real for c in corr[1:])
    spread = max(1.0, 4.0 * math.sqrt(abs(sigma2)))
    counts, edges = np.histogram(arr, bins=_CLT_BINS,
                                 range=(-spread, spread))
    return CltReport(n=n, orbits=orbits,
                     variance=float(arr.var(ddof=1)),
                     sigma2_ref=float(sigma2),
                     mean=float(arr.mean()),
                     histogram=(tuple(map(float, edges)),
                                tuple(map(int, counts))))


# --- CSV output -------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationRow:
    n: int
    value: complex
    method: str                # "exact" or "mc"
    samples: int = 0           # 0 for exact rows
    stderr: float = 0.0


def correlation_csv(rows, fobj):
    w = csv.writer(fobj)
    w.writerow(["n", "re(C)", "im(C)", "method", "samples", "stderr"])
    for r in rows:
        w.writerow([r.n, repr(r.value.real), repr(r.value.imag), r.method,
                    r.samples, repr(r.stderr)])
