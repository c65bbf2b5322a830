"""Builders and oracles shared by the unit tests.

None of these is reached from a command: the tests use them to set up
points, observables and group elements, to cross-check the joint p-adic
spectrum against single-matrix Newton polygons, and to hold the library's
float engines, rational splitting, Hensel lifting, root-of-unity test and
inverse to the code they replaced, bit for bit.
"""

import cmath
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import sympy

from hyperrank.conjugacy import (_HOLDER_BINS, _HOLDER_SPAN, ConjugacyField,
                                 HolderEstimate, ResidualReport,
                                 TrigPerturbation)
from hyperrank.ergodicity import ErgodicityCertificate, SplitBlock
from hyperrank.errors import (DegenerateField, NoConvergence,
                              NotAnAutomorphism, PrecisionExhausted,
                              RankDeficient)
from hyperrank.exact import (QMat, crt_integers, cyclotomic,
                             cyclotomic_indices_up_to_degree, factor_int,
                             hnf_rows, modp, poly_gcd, vp_int)
from hyperrank.exact.factorq import factor_over_q
from hyperrank.exact.newton import newton_polygon
from hyperrank.nilpotent import NilElement, nil_element
from hyperrank.solenoid import (_CLT_BINS, _CLT_REF_TERMS, _GRID_BITS,
                                _MIN_DIGITS, CltReport, McCorrelation,
                                SolenoidPoint, TrigFunction,
                                _orbit_sampler_bits)


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


# --- scalar oracles ---------------------------------------------------------
#
# The one-point-at-a-time Monte Carlo, CLT and conjugacy code the library's
# array engines replaced, the Fraction mode stepping of the exact
# correlation, the one-solve-per-system expansion rate and the adjugate form
# of the solenoid inverse, kept verbatim as the oracles they must match bit
# for bit.


def scalar_exact_correlation(f: TrigFunction, g: TrigFunction, a: QMat,
                             n_max):
    at = a.transpose()
    targets = {tuple(-c for c in m): coeff for m, coeff in g.terms}
    base = f.mean() * g.mean()
    modes = [(m, c) for m, c in f.terms]
    out = []
    for _ in range(n_max + 1):
        s = sum((c * targets[m] for m, c in modes if m in targets), 0j)
        out.append(s - base)
        modes = [(at.matvec(m), c) for m, c in modes]
    return out


def character_phase(mode, pt: SolenoidPoint) -> Fraction:
    """Exact rational phase <m, x> + sum_p {<m, xi_p>}_p, reduced mod 1."""
    theta = sum((Fraction(m) * c for m, c in zip(mode, pt.x)), Fraction(0))
    for p, prec, res in pt.xi:
        t = 0
        for m in mode:
            t = max(t, vp_int(Fraction(m).denominator, p))
        if t == 0:
            continue
        if prec < t:
            raise PrecisionExhausted(
                f"mode needs {t} digits at p = {p}, point has {prec}")
        q = p ** t
        num = 0
        for m, r in zip(mode, res):
            m = Fraction(m)
            tp = vp_int(m.denominator, p)
            rest = m.denominator // p ** tp
            num += m.numerator * pow(rest, -1, q) * p ** (t - tp) * r
        theta += Fraction(num % q, q)
    return theta % 1


def character_value(mode, pt: SolenoidPoint) -> complex:
    return cmath.exp(2j * math.pi * float(character_phase(mode, pt)))


def evaluate(f: TrigFunction, pt: SolenoidPoint) -> complex:
    return sum((coeff * character_value(m, pt) for m, coeff in f.terms), 0j)


def scalar_haar_sample(count, dim, primes=(), seed=0, prec=_MIN_DIGITS):
    rng = random.Random(seed)
    den = 1 << _GRID_BITS
    out = []
    for _ in range(count):
        xs = tuple(Fraction(rng.randrange(den), den) for _ in range(dim))
        xi = {p: (prec, tuple(rng.randrange(p ** prec) for _ in range(dim)))
              for p in primes}
        out.append(SolenoidPoint(x=xs, xi=tuple(
            (p,) + xi[p] for p in sorted(xi))))
    return out


def adjugate_levels(a: QMat):
    """The branching levels l_p = v_p(det) - min_ij v_p(adj_ij) at the
    primes of det, read off the adjugate."""
    det = a.det()
    adj = a.adjugate()
    out = {}
    for p in factor_int(det):
        d = vp_int(det, p)
        m0 = min(vp_int(int(c), p) if c != 0 else d
                 for row in adj.rows for c in row)
        out[p] = d - min(m0, d)
    return out


def scalar_apply_inverse(a: QMat, pt: SolenoidPoint) -> SolenoidPoint:
    """solenoid.apply_inverse through the adjugate: each fibre divides the
    adjugate by p^m0 and multiplies by the inverse of det's unit part."""
    det = int(a.det())
    if det == 0:
        raise NotAnAutomorphism("singular matrix")
    have = set(pt.primes)
    for p in factor_int(det):
        if p not in have:
            raise NotAnAutomorphism(
                f"determinant prime {p} is not inverted in this solenoid")
    levels = adjugate_levels(a)
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
    adj = a.adjugate()
    xi = []
    for p, prec, res in pt.xi:
        l = levels.get(p, 0)
        dv = vp_int(det, p)
        m0 = dv - l
        adjr = [[int(c) // p ** m0 for c in row] for row in adj.rows]
        u = det // p ** dv
        q = p ** prec
        uinv = pow(u, -1, q)
        new_prec = prec - l
        qn = p ** new_prec
        new_res = []
        for i in range(pt.dim):
            w = sum(adjr[i][j] * (res[j] - n[j]) for j in range(pt.dim))
            w = w * uinv % q
            if w % p ** l:
                raise PrecisionExhausted(
                    "branch translate failed to clear the level")
            new_res.append((w // p ** l + carry[i]) % qn)
        xi.append((p, new_prec, tuple(new_res)))
    return SolenoidPoint(x=x, xi=tuple(xi))


def scalar_monte_carlo_correlation(f, g, a, n, samples=10000, seed=0):
    if f.primes != g.primes:
        raise ValueError("observables live on different solenoids")
    fn = f.pushforward(a.power(n)) if n else f
    prec = max(_MIN_DIGITS, fn.fiber_digits(), g.fiber_digits())
    pts = scalar_haar_sample(samples, f.dim, primes=f.primes, seed=seed,
                             prec=prec)
    vals = [evaluate(fn, pt) * evaluate(g, pt) for pt in pts]
    mean = sum(vals) / samples
    est = mean - f.mean() * g.mean()
    var = sum(abs(v - mean) ** 2 for v in vals) / max(samples - 1, 1)
    return McCorrelation(n=n, value=est, stderr=math.sqrt(var / samples),
                         samples=samples)


def scalar_clt_check(f: TrigFunction, a: QMat, n=1024, orbits=200,
                      seed=0) -> CltReport:
    """Distribution of Birkhoff sums S_n / sqrt(n) for the real part of the
    centered observable, against the exact series variance.

    Orbits start on a dyadic grid fine enough (orbit-length times the matrix
    growth rate, plus slack) that n steps of the exact integer dynamics do
    not collapse onto a coarse invariant subgrid, and their fibers carry as
    many digits as the modes of f need.  Each orbit state is evaluated as a
    SolenoidPoint through evaluate, every character from its Fraction
    phase, as the Monte Carlo reference evaluates its points.
    """
    d = f.dim
    rows = a.int_rows()
    bits = _orbit_sampler_bits(a, n)
    den = 1 << bits
    rng = random.Random(seed)
    center = f.mean()
    mask = den - 1
    prec = max(_MIN_DIGITS, f.fiber_digits())
    modulus = {p: p ** prec for p in f.primes}
    sums = []
    for _ in range(orbits):
        num = [rng.randrange(den) for _ in range(d)]
        xi = {p: [rng.randrange(p ** prec) for _ in range(d)]
              for p in f.primes}
        total = 0.0
        for _ in range(n):
            pt = SolenoidPoint(
                x=tuple(Fraction(u, den) for u in num),
                xi=tuple((p, prec, tuple(xi[p])) for p in sorted(xi)))
            total += (evaluate(f, pt) - center).real
            w = [sum(map(operator.mul, row, num)) for row in rows]
            kv = [wi >> bits for wi in w]
            num = [wi & mask for wi in w]
            for p, q in modulus.items():
                xi[p] = [(sum(map(operator.mul, row, xi[p])) + k) % q
                         for row, k in zip(rows, kv)]
        sums.append(total / math.sqrt(n))
    arr = np.array(sums)
    corr = scalar_exact_correlation(f, f, a, min(_CLT_REF_TERMS, n - 1))
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


def scalar_q(q: TrigPerturbation, x):
    out = [0.0] * q.dim
    for k, coeffs in q.terms:
        # every double is a dyadic rational: <k, x> mod 1 exactly, rounded
        # once, as character_value rounds a Monte Carlo phase
        theta = sum((Fraction(a) * Fraction(b) for a, b in zip(k, x)),
                    Fraction(0)) % 1
        phase = cmath.exp(2j * math.pi * float(theta))
        for j, c in enumerate(coeffs):
            out[j] += (c * phase).real
    return tuple(out)


def scalar_tau(pmap, x):
    lin = [sum(float(c) * t for c, t in zip(row, x))
           for row in pmap.lin.rows]
    qv = scalar_q(pmap.q, x)
    return tuple((a + b) % 1.0 for a, b in zip(lin, qv))


def displacement(field, x):
    """Multilinear periodic interpolation at any real point."""
    n = field.grid
    base, frac = [], []
    for t in x:
        s = t * n
        b = math.floor(s)
        base.append(b)
        frac.append(s - b)
    out = [0.0] * field.dim
    for corner in range(1 << field.dim):
        w = 1.0
        idx = 0
        for axis in range(field.dim):
            bit = (corner >> axis) & 1
            w *= frac[axis] if bit else 1.0 - frac[axis]
            idx = idx * n + (base[axis] + bit) % n
        if w == 0.0:
            continue
        for j in range(field.dim):
            out[j] += w * field.values[j][idx]
    return tuple(out)


def phi(field, x):
    return tuple(t + d for t, d in zip(x, displacement(field, x)))


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


def scalar_solve_conjugacy(pmap, grid, tol=1e-8, budget=200):
    pmap.check_expanding()
    d = pmap.dim
    ainv = pmap.lin.inverse()
    rate = float(max(sum(abs(c) for c in row) for row in ainv.rows))
    ainv_f = [[float(c) for c in row] for row in ainv.rows]
    pts = _grid_points(d, grid)
    qx = [scalar_q(pmap.q, x) for x in pts]
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
            pulled = displacement(h, taux[pt])
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


def scalar_verify_conjugacy(pmap, field, samples=500, seed=0):
    rng = random.Random(seed)
    d = pmap.dim
    sup = 0.0
    acc = 0.0
    for _ in range(samples):
        x = tuple(rng.random() for _ in range(d))
        y = scalar_tau(pmap, x)
        left = phi(field, y)
        px = phi(field, x)
        right = [sum(float(c) * t for c, t in zip(row, px))
                 for row in pmap.lin.rows]
        r = max(abs(a - b - round(a - b)) for a, b in zip(left, right))
        sup = max(sup, r)
        acc += r
    return ResidualReport(sup=sup, mean=acc / samples, count=samples)


def scalar_holder_estimate(field, pairs=3000, seed=0):
    bins, span = _HOLDER_BINS, _HOLDER_SPAN
    floor = 1e-15 + 10.0 * (field.residuals[-1] if field.residuals else 0.0)
    if all(max(c) - min(c) <= floor for c in field.values):
        raise DegenerateField("displacement field is constant")
    rng = random.Random(seed)
    d = field.dim
    delta = 1.0 / field.grid
    per_bin = max(8, pairs // bins)
    scales, moduli = [], []
    for b in range(bins):
        t = delta * span ** (b / (bins - 1))
        best = 0.0
        for _ in range(per_bin):
            x = tuple(rng.random() for _ in range(d))
            axis = rng.randrange(d)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            y = tuple(v + (sign * t if j == axis else 0.0)
                      for j, v in enumerate(x))
            hx = displacement(field, x)
            hy = displacement(field, y)
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


def scalar_field_to_csv(field: ConjugacyField) -> str:
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


def scalar_min_expansion_rate(spectrum):
    """min over the unit sup-norm sphere of max_chi |chi(a)|, one
    np.linalg.solve per candidate system."""
    k = spectrum.rank
    rows = [f.values for f in spectrum.functionals]

    def objective(a):
        return max(abs(sum(r[i] * a[i] for i in range(k))) for r in rows)

    hyperplanes = [tuple(r) for r in rows]
    for r1, r2 in itertools.combinations(rows, 2):
        hyperplanes.append(tuple(x - y for x, y in zip(r1, r2)))
        hyperplanes.append(tuple(x + y for x, y in zip(r1, r2)))

    best = None
    for fixed in itertools.product((-1, 0, 1), repeat=k):
        free = [i for i, s in enumerate(fixed) if s == 0]
        if len(free) == k:
            continue  # interior of the cube is not on the sphere
        if not free:
            cand = [float(s) for s in fixed]
            val = objective(cand)
            best = val if best is None else min(best, val)
            continue
        for combo in itertools.combinations(hyperplanes, len(free)):
            A = np.array([[h[i] for i in free] for h in combo])
            b = np.array([-sum(h[i] * fixed[i] for i in range(k) if fixed[i])
                          for h in combo])
            try:
                sol = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                continue
            if np.max(np.abs(sol)) > 1 + 1e-9:
                continue
            a = [0.0] * k
            for i, s in enumerate(fixed):
                a[i] = float(s)
            for i, x in zip(free, sol):
                a[i] = float(x)
            val = objective(a)
            best = val if best is None else min(best, val)
    return best


def in_sector(x, y, a0, a1):
    """Whether the vector (x, y) lies strictly inside the sector (a0, a1),
    1e-12 clear of its edges; elementwise on arrays."""
    ang = np.arctan2(y, x) % (2 * math.pi)
    return np.any([(a0 + 1e-12 < ang + s) & (ang + s < a1 - 1e-12)
                   for s in (-2 * math.pi, 0, 2 * math.pi)], axis=0)


def least_sup_norm_in_sector(a0, a1, bound):
    """Brute force: the least sup norm of a nonzero integer vector strictly
    inside the sector (a0, a1), or None if every such vector has sup norm
    above bound."""
    xs = np.arange(-bound, bound + 1)
    x, y = (g.ravel() for g in np.meshgrid(xs, xs))
    norm = np.maximum(np.abs(x), np.abs(y))
    inside = in_sector(x, y, a0, a1) & (norm > 0)
    return int(norm[inside].min()) if inside.any() else None


# --- the exact tests that the reciprocal gcd and Cayley-Hamilton replaced ---


def scalar_is_ergodic(matrix) -> ErgodicityCertificate:
    """The root-of-unity test with one gcd of the charpoly against every
    cyclotomic Phi_m with phi(m) <= d, the first hit giving the period."""
    m = matrix if isinstance(matrix, QMat) else QMat(matrix)
    d = m.shape[0]
    cp = m.charpoly()
    if cp[0] == 0:
        raise RankDeficient("singular matrix: no invertible dual action")
    for idx in cyclotomic_indices_up_to_degree(d):
        if len(poly_gcd(cp, cyclotomic(idx))) > 1:
            fixed = m.transpose().power(idx) - QMat.identity(d)
            z = tuple(int(x) for x in fixed.kernel()[0])
            return ErgodicityCertificate(ergodic=False, period=idx, witness=z)
    return ErgodicityCertificate(ergodic=True)


def gauss_jordan_inverse(m: QMat) -> QMat:
    """The inverse by sympy's Gaussian elimination over Q, which shares no
    code with QMat."""
    s = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                      for r in m.rows])
    if s.rank() < s.rows:
        raise RankDeficient("matrix is singular")
    inv = s.inv(method="GE")
    return QMat([[Fraction(int(c.p), int(c.q)) for c in inv.row(i)]
                 for i in range(s.rows)])


# --- the rational splitting over QMat, and the one-digit Hensel lift --------


def _scalar_poly_at(f, m: QMat) -> QMat:
    out = QMat([[0] * m.shape[1] for _ in range(m.shape[0])])
    for c in reversed(f):
        out = out @ m + QMat.identity(m.shape[0]).scalar(c)
    return out


def scalar_saturate_rows(v: QMat) -> QMat:
    """HNF basis of rowspan(v) intersected with Z^n."""
    n = v.shape[1]
    comp = v.kernel()
    k = len(comp)
    rows = [[c[j] for c in comp] + [int(i == j) for i in range(n)]
            for j in range(n)]
    return QMat([row[k:] for row in hnf_rows(rows) if not any(row[:k])])


def scalar_restrict_rows(basis: QMat, m: QMat) -> QMat:
    bt = basis.transpose()
    return bt.solve(m @ bt)


def _scalar_polynomial_on_kernel(f, m, mats):
    kern = QMat(_scalar_poly_at(f, m).kernel())
    m0 = scalar_restrict_rows(kern, m)
    powers = [QMat.identity(m0.shape[0])]
    while len(powers) < len(f) - 1:
        powers.append(powers[-1] @ m0)
    basis = QMat(list(zip(*(sum(p.rows, ()) for p in powers))))
    for g in mats:
        g0 = scalar_restrict_rows(kern, g)
        try:
            basis.solve(QMat([[x] for x in sum(g0.rows, ())]))
        except RankDeficient:
            return False
    return True


def _scalar_field_element(mats):
    k, n = len(mats), mats[0].shape[0]
    tries = (k - 1) * (n * (n - 1) // 2) + 1 if k > 1 else 0
    generic = (sum((g.scalar(t ** j) for j, g in enumerate(mats[1:], 1)),
                   mats[0]) for t in range(1, tries + 1))
    for m in itertools.chain(mats, generic):
        facs = factor_over_q(m.charpoly())
        if len(facs) > 1:
            return m, facs
        (f, e), = facs
        if e == 1 or _scalar_polynomial_on_kernel(f, m, mats):
            return m, facs
    return None


def scalar_rational_splitting(action):
    """ergodicity.rational_splitting as it was on QMat: kernels by
    Gauss-Jordan over Fraction, restrictions by QMat.solve."""
    gens = list(action.generators)
    d = gens[0].shape[0]
    todo = [(QMat.identity(d), gens)]
    blocks = []
    while todo:
        basis, mats = todo.pop()
        found = _scalar_field_element(mats)
        if found is None or len(found[1]) == 1:
            blocks.append((basis, mats, found is not None))
            continue
        m, facs = found
        for f, e in facs:
            sub = QMat(_scalar_poly_at(f, m).power(e).kernel()) @ basis
            sat = scalar_saturate_rows(sub)
            todo.append((sat, [scalar_restrict_rows(sat, g) for g in gens]))
    if sum(b.shape[0] for b, _, _ in blocks) != d:
        raise RankDeficient("invariant blocks do not span Q^d")
    out = []
    for basis, mats, field in sorted(blocks, key=lambda bm: (bm[0].shape[0],
                                                             bm[0].rows)):
        for m in mats:
            if not m.is_integer():
                raise RankDeficient("restriction to a saturated lattice "
                                    "produced non-integer entries")
        out.append(SplitBlock(basis=basis, matrices=tuple(mats),
                              field=field))
    return out


def scalar_hensel_pair(f, g, h, s, t, p, K):
    """modp._hensel_pair one p-adic digit at a time: at mod p^(k+1) write
    the defect as p^k e and correct by the unique (u, v) with
    u h + v g = e, deg u < deg g, deg v < deg h."""
    g, h = list(g), list(h)
    q = p
    for _ in range(K - 1):
        qn = q * p
        prod = modp.mul(g, h, qn)
        e = [0] * max(len(f), len(prod))
        for i in range(len(e)):
            a = f[i] if i < len(f) else 0
            b = prod[i] if i < len(prod) else 0
            e[i] = ((a - b) % qn) // q
        e = modp.reduce_mod(e, p)
        if e:
            u = modp.mod(modp.mul(t, e, p), g, p)
            v = modp.divmod_p(modp.sub(e, modp.mul(u, h, p), p), g, p)[0]
            g = [(gi + q * (u[i] if i < len(u) else 0)) % qn
                 for i, gi in enumerate(g)]
            h = [(hi + q * (v[i] if i < len(v) else 0)) % qn
                 for i, hi in enumerate(h)]
        else:
            g = [gi % qn for gi in g]
            h = [hi % qn for hi in h]
        q = qn
    return g, h
