"""Independent oracles for the hyperrank benchmark.

Every check the benchmark makes on hyperrank's output is computed here from
the inputs alone, with sympy and numpy as reference tools.  This module never
imports hyperrank, so a defect in hyperrank's exact core cannot leak into the
oracle that judges it.  Each oracle returns a list of problems (empty when
the output is right) so a single corrupted value is reported, not raised.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import sympy

X = sympy.Symbol("x")


# --- exact matrices (plain Fractions, own code) ------------------------------


def frac_matrix(rows):
    return [[Fraction(c) for c in r] for r in rows]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(a):
    """Inverse through sympy's own elimination."""
    inv = sympy.Matrix(a).inv()
    return [[Fraction(int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
             for c in inv.tolist()[i]] for i in range(inv.rows)]


def mat_power(a, e):
    base = frac_matrix(a) if e >= 0 else mat_inverse(a)
    out = mat_identity(len(a))
    e = abs(e)
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def element(gens, vec):
    """rho(vec) = prod gens[i]^vec[i] for commuting generators."""
    out = mat_identity(len(gens[0]))
    for g, e in zip(gens, vec):
        if e:
            out = mat_mul(out, mat_power(g, e))
    return out


def block_diag(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = list(a[i])
    for i in range(m):
        out[n + i][n:] = list(b[i])
    return out


def companion(coeffs_asc):
    """Companion matrix of the monic polynomial x^n + sum c_i x^i."""
    n = len(coeffs_asc)
    out = [[0] * n for _ in range(n)]
    for i in range(1, n):
        out[i][i - 1] = 1
    for i in range(n):
        out[i][n - 1] = -int(coeffs_asc[i])
    return out


def poly_at_matrix(g_asc, m):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for c in reversed(g_asc):
        out = [[sum(out[i][k] * m[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        for i in range(n):
            out[i][i] += c
    return out


# --- polynomials -------------------------------------------------------------


def charpoly(m):
    """sympy Poly det(x I - m) over QQ."""
    return sympy.Matrix(m).charpoly(X)


def is_irreducible(coeffs_asc):
    """Irreducibility over Q of the monic x^n + sum c_i x^i, given the
    ascending non-leading coefficients c_0..c_{n-1}."""
    return sympy.Poly([1] + list(reversed(coeffs_asc)), X).is_irreducible


def _totient_indices(d):
    return [m for m in range(1, 2 * d * d + 2) if sympy.totient(m) <= d]


def root_of_unity_period(poly):
    """Smallest m with Phi_m dividing poly (None: no root-of-unity
    eigenvalue, i.e. the automorphism is ergodic)."""
    poly = sympy.Poly(poly, X, domain="QQ")
    for m in _totient_indices(poly.degree()):
        if poly.rem(sympy.Poly(sympy.cyclotomic_poly(m, X), X,
                               domain="QQ")).is_zero:
            return m
    return None


def vp(n, p):
    n = abs(int(n))
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_frac(x, p):
    x = Fraction(x)
    return vp(x.numerator, p) - vp(x.denominator, p)


def newton_root_valuations(poly, p):
    """Sorted list of p-adic valuations of the roots (with repetition), from
    the lower convex hull of (i, v_p(a_i)) over the ascending coefficients."""
    coeffs = [Fraction(int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
              for c in reversed(sympy.Poly(poly, X).all_coeffs())]
    pts = [(i, Fraction(vp_frac(c, p))) for i, c in enumerate(coeffs) if c]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) < (pt[1] - y2) * (x2 - x1):
                break
            hull.pop()
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out += [Fraction(-(y2 - y1), x2 - x1)] * (x2 - x1)
    return sorted(out)


def prime_factors(n):
    return sorted(sympy.factorint(abs(int(n))))


def real_log_moduli(m):
    arr = np.array([[float(c) for c in row] for row in m])
    return sorted(float(v) for v in np.log(np.abs(np.linalg.eigvals(arr))))


def log_moduli_separated(m, gap=0.1, same=1e-9):
    """True when the distinct log-moduli of m's eigenvalues are at least gap
    apart (exact ties, e.g. conjugate pairs, are allowed)."""
    vals = real_log_moduli(m)
    return all(b - a <= same or b - a >= gap for a, b in zip(vals, vals[1:]))


# --- analyze: ergodicity and spectra -----------------------------------------


def check_ergodicity_entry(matrix, entry):
    """One per-generator entry of an analyze report against the cyclotomic
    test on the sympy charpoly, plus the witness equation (M^T)^m z = z."""
    probs = []
    period = root_of_unity_period(charpoly(matrix))
    if entry.get("ergodic") != (period is None):
        return [f"ergodic={entry.get('ergodic')} but the oracle period is "
                f"{period}"]
    if period is None:
        return probs
    if entry.get("period") != period:
        probs.append(f"period {entry.get('period')} != smallest cyclotomic "
                     f"index {period}")
    z = entry.get("witness")
    mt = [list(r) for r in zip(*matrix)]
    if not z or not any(z):
        return probs + ["non-ergodic entry without a nonzero witness"]
    zp = mat_mul(mat_power(mt, entry.get("period") or period),
                 [[Fraction(c)] for c in z])
    if [r[0] for r in zp] != [Fraction(c) for c in z]:
        probs.append(f"witness {z} is not fixed by the transpose power")
    return probs


def check_spectrum(gens, lyapunov, tol=1e-6):
    """Per-generator marginals of the reported joint spectrum: real values
    against numpy log|eig|, p-adic valuations against Newton-polygon slopes
    of the sympy charpoly, and the set of places against det primes."""
    probs = []
    funcs = lyapunov["functionals"]
    primes = set()
    for g in gens:
        primes.update(prime_factors(sympy.Matrix(g).det()))
    places = {f["place"] for f in funcs if f["place"] != "real"}
    if places != primes:
        probs.append(f"p-adic places {sorted(places)} != det primes "
                     f"{sorted(primes)}")
    for gi, g in enumerate(gens):
        got = sorted(v for f in funcs if f["place"] == "real"
                     for v in [f["values"][gi]] * f["multiplicity"])
        want = real_log_moduli(g)
        if len(got) != len(want) or any(abs(a - b) > tol * max(1.0, abs(b))
                                        for a, b in zip(got, want)):
            probs.append(f"generator {gi}: real values {got} != log|eig| "
                         f"{want}")
        cp = charpoly(g)
        for p in sorted(primes):
            got_p = sorted(Fraction(f["exact"][gi]) for f in funcs
                           if f["place"] == p
                           for _ in range(f["multiplicity"]))
            want_p = newton_root_valuations(cp, p)
            if got_p != want_p:
                probs.append(f"generator {gi}, p = {p}: valuations "
                             f"{[str(v) for v in got_p]} != Newton slopes "
                             f"{[str(v) for v in want_p]}")
            for f in funcs:
                if f["place"] == p and abs(
                        f["values"][gi]
                        + float(Fraction(f["exact"][gi])) * math.log(p)) > tol:
                    probs.append(f"p = {p}: value != -v log p")
    return probs


def joint_real_logs(f_asc, g_asc):
    """Real-place log moduli of (alpha_k, g(alpha_k)) over the roots of the
    monic f: the joint real Lyapunov data of the action (C_f, g(C_f))."""
    roots = np.roots([1.0] + [float(c) for c in reversed(f_asc)])
    beta = np.polyval([float(c) for c in reversed(g_asc)], roots)
    return np.column_stack([np.log(np.abs(roots)), np.log(np.abs(beta))])


def joint_log_rank_margin(f_asc, g_asc):
    """Smallest over largest singular value of the joint real log matrix;
    bounded away from 0 means rank 2 at the real places alone."""
    s = np.linalg.svd(joint_real_logs(f_asc, g_asc), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def check_z2_report(report, gens, f_asc, g_asc, combos):
    """A certified Z^2 pair: exit-0 report, pair of full rank, value rank 2
    by the oracle's joint real logs, and every sampled primitive combination
    i a + j b (inside and outside the search box) ergodic by the cyclotomic
    test on its exact sympy charpoly."""
    probs = []
    z2 = report.get("z2_subgroup", {})
    if z2.get("status") != "certified" or report.get("verdict") != "ok":
        return [f"no certified Z^2 subgroup: {z2.get('status')}"]
    a, b = z2["pair"]
    if a[0] * b[1] - a[1] * b[0] == 0:
        probs.append(f"pair {a}, {b} does not span a rank-2 lattice")
    logs = joint_real_logs(f_asc, g_asc)
    vals = logs @ np.array([a, b], dtype=float).T
    s = np.linalg.svd(vals, compute_uv=False)
    if not s[-1] > 1e-6 * max(1.0, s[0]):
        probs.append("oracle value vectors of the pair are dependent")
    for i, j in combos:
        vec = [i * x + j * y for x, y in zip(a, b)]
        period = root_of_unity_period(charpoly(element(gens, vec)))
        if period is not None:
            probs.append(f"combination {(i, j)} -> {vec} has a period-"
                         f"{period} eigenvalue")
    return probs


# --- crt: step-2 group law ---------------------------------------------------


def nil_mul(brackets, x, y):
    """Exponential-coordinate product z = x + y + (1/2)[x, y] over Z, with
    brackets [[i, j, k, num, den], ...] (even integer constants)."""
    z = [a + b for a, b in zip(x, y)]
    for i, j, k, num, den in brackets:
        c = Fraction(num, den)
        z[k] += c * (x[i] * y[j] - x[j] * y[i]) / 2
    return z


def parse_crt_solution(text):
    m = re.search(r"^n = \(([-0-9, ]*)\)$", text, re.M)
    if not m:
        return None
    return [int(t) for t in m.group(1).replace(" ", "").split(",") if t]


def check_crt(structure, targets, text):
    """n^-1 xi_p = identity mod p^level in every coordinate, for each prime,
    under the benchmark's own group law."""
    n = parse_crt_solution(text)
    if n is None or len(n) != structure["dim"]:
        return [f"no solution line of length {structure['dim']}"]
    probs = []
    neg = [-c for c in n]
    for key, t in targets["targets"].items():
        p = int(key)
        z = nil_mul(structure["brackets"], neg, t["coords"])
        q = p ** t["level"]
        if any(Fraction(c).denominator != 1 or Fraction(c).numerator % q
               for c in z):
            probs.append(f"p = {p}: n^-1 xi = {[str(c) for c in z]} not "
                         f"divisible by {q}")
    return probs


# --- mixing: closed-form correlations ----------------------------------------


def _transpose_apply(at, k):
    return tuple(sum(at[i][j] * k[j] for j in range(len(k)))
                 for i in range(len(k)))


def terms_from_config(terms):
    out = {}
    for t in terms:
        mode = tuple(Fraction(v[0], v[1]) if isinstance(v, list)
                     else Fraction(v) for v in t["mode"])
        out[mode] = out.get(mode, 0) + complex(*t["coeff"])
    return out


def closed_form_correlations(f, g, matrix, n_max):
    """C(n) = sum over mode pairs with (A^T)^n k + m = 0 of c_k d_m, minus
    the product of the means; f and g map modes (Fraction tuples) to
    coefficients."""
    at = [[Fraction(matrix[j][i]) for j in range(len(matrix))]
          for i in range(len(matrix))]
    zero = tuple(Fraction(0) for _ in next(iter(f)))
    base = f.get(zero, 0) * g.get(zero, 0)
    modes = dict(f)
    out = []
    for _ in range(n_max + 1):
        s = 0j
        for k, c in modes.items():
            d = g.get(tuple(-v for v in k))
            if d is not None:
                s += c * d
        out.append(s - base)
        moved = {}
        for k, c in modes.items():
            k2 = _transpose_apply(at, k)
            moved[k2] = moved.get(k2, 0) + c
        modes = moved
    return out


def check_mixing(config, rows, summary, samples, lacunary=False, tol=1e-12):
    """Exact CSV rows equal the closed form; Monte Carlo rows lie within
    5 stderr + 1e-12 of it; a lacunary curve decays at log 2 +- 0.05."""
    probs = []
    f = terms_from_config(config["f"])
    g = terms_from_config(config.get("g", config["f"]))
    n_max = config["n_max"]
    want = closed_form_correlations(f, g, config["matrix"], n_max)
    exact = [r for r in rows if r["method"] == "exact"]
    if [r["n"] for r in exact] != list(range(n_max + 1)):
        probs.append("exact rows do not cover 0..n_max")
    for r in exact:
        w = want[r["n"]]
        if abs(complex(r["re"], r["im"]) - w) > tol * max(1.0, abs(w)):
            probs.append(f"exact row {r['n']}: {complex(r['re'], r['im'])} "
                         f"!= closed form {w}")
    mc = [r for r in rows if r["method"] == "mc"]
    lags = config.get("mc", {}).get("lags", list(range(n_max + 1)))
    if [r["n"] for r in mc] != lags:
        probs.append(f"Monte Carlo lags {[r['n'] for r in mc]} != {lags}")
    for r in mc:
        w = closed_form_correlations(f, g, config["matrix"], r["n"])[-1]
        dev = abs(complex(r["re"], r["im"]) - w)
        if not dev <= 5 * r["stderr"] + 1e-12:
            probs.append(f"mc row {r['n']}: |{complex(r['re'], r['im'])} - "
                         f"{w}| = {dev} > 5 * {r['stderr']}")
        if r["samples"] != samples:
            probs.append(f"mc row {r['n']}: {r['samples']} samples")
    if lacunary:
        rate = summary.get("decay_rate")
        if rate is None or abs(rate - math.log(2)) > 0.05:
            probs.append(f"lacunary decay rate {rate} not within 0.05 of "
                         "log 2")
    return probs


def clt_variance(f, matrix, n):
    """Exact variance of S_n / sqrt(n) for Re(f - mean) under Haar measure
    (C(0) + 2 sum_{j<n} (1 - j/n) C(j)) and the series sigma^2."""
    fc = dict(f)
    zero = tuple(Fraction(0) for _ in next(iter(fc)))
    fc.pop(zero, None)
    # Re(h) = (h + conj h) / 2 as a mode map
    re_h = {}
    for k, c in fc.items():
        re_h[k] = re_h.get(k, 0) + c / 2
        nk = tuple(-v for v in k)
        re_h[nk] = re_h.get(nk, 0) + c.conjugate() / 2
    corr = closed_form_correlations(re_h, re_h, matrix, n - 1)
    sigma2 = corr[0].real + 2 * sum(c.real for c in corr[1:])
    var_n = corr[0].real + 2 * sum((1 - j / n) * corr[j].real
                                   for j in range(1, n))
    return var_n, sigma2


def check_clt(params, report):
    """Sample variance within 5 sampling sd of the exact finite-n variance,
    and the reported series variance equal to the closed form."""
    f = {tuple(Fraction(v) for v in t["mode"]): complex(*t["coeff"])
         for t in params["f"]}
    n, orbits = params["n"], params["orbits"]
    var_n, sigma2 = clt_variance(f, params["matrix"], n)
    probs = []
    if abs(report["sigma2_ref"] - sigma2) > 1e-9 * max(1.0, abs(sigma2)):
        probs.append(f"sigma2_ref {report['sigma2_ref']} != closed form "
                     f"{sigma2}")
    sd = var_n * math.sqrt(2.0 / (orbits - 1))
    if not abs(report["variance"] - var_n) <= 5 * sd:
        probs.append(f"variance {report['variance']} not within 5 sd "
                     f"({sd}) of {var_n}")
    if report["orbits"] != orbits or report["n"] != n:
        probs.append("report sizes differ from the request")
    return probs


# --- conjugate: the series for the displacement ------------------------------


class Perturbation:
    """q(x) = Re sum_t c_t exp(2 pi i <k_t, x>), numpy-vectorized over
    points of shape (count, dim)."""

    def __init__(self, terms, dim):
        self.modes = np.array([t["mode"] for t in terms], dtype=float)
        self.coeffs = np.array([[complex(*c) for c in t["coeff"]]
                                for t in terms])
        self.dim = dim

    def __call__(self, pts):
        phase = np.exp(2j * np.pi * pts @ self.modes.T)
        return (phase @ self.coeffs).real

    def sup_bound(self):
        return float(np.max(np.sum(np.abs(self.coeffs), axis=0)))


def series_displacement(matrix, q, pts, eps=1e-15):
    """h(x) = sum_i A^-(i+1) q(tau^i x), tau(x) = A x + q(x) mod 1, summed
    until the geometric tail is below eps."""
    a = np.array(matrix, dtype=float)
    ainv = np.linalg.inv(a)
    rate = float(np.max(np.sum(np.abs(ainv), axis=1)))
    qsup = q.sup_bound()
    h = np.zeros_like(pts)
    x = pts.copy()
    power = ainv.copy()
    k = 0
    while qsup * rate ** (k + 1) / (1 - rate) > eps and k < 400:
        h += q(x) @ power.T
        x = np.mod(x @ a.T + q(x), 1.0)
        power = power @ ainv
        k += 1
    return h


def exact_rate_bound(matrix):
    inv = mat_inverse(matrix)
    return max(sum(abs(c) for c in row) for row in inv)


def check_conjugate(config, field, summary, rng):
    """Grid values against the series within the interpolation bound, the
    contraction certificate and sweep count, the constant-perturbation
    closed form (A - I)^-1 delta, and monotone phi in one dimension.

    field: array of shape (grid**dim, 2 * dim) with grid coordinates then h.
    """
    probs = []
    a = config["matrix"]
    d = len(a)
    grid, tol = config["grid"], config["tol"]
    q = Perturbation(config["perturbation"], d)
    rate = float(exact_rate_bound(a))
    if abs(summary["rate_bound"] - rate) > 1e-12:
        probs.append(f"rate_bound {summary['rate_bound']} != ||A^-1|| {rate}")
    if field.shape != (grid ** d, 2 * d):
        return probs + [f"field shape {field.shape}"]
    if not summary["residual"] < tol:
        probs.append(f"final residual {summary['residual']} >= tol {tol}")
    qsup = q.sup_bound()
    if qsup > 0:
        most = math.floor(math.log(tol / qsup) / math.log(rate)) + 1
        if not 1 <= summary["sweeps"] <= max(most, 1):
            probs.append(f"{summary['sweeps']} sweeps exceed the "
                         f"contraction bound {most} at rate {rate}")
    xs, hs = field[:, :d], field[:, d:]
    solver_slack = 2 * tol / (1 - rate) + 1e-12
    if np.all(q.modes == 0):
        delta = q(np.zeros((1, d)))[0]
        want = np.linalg.solve(np.array(a, float) - np.eye(d), delta)
        if np.max(np.abs(hs - want)) > solver_slack:
            probs.append(f"constant perturbation: h != (A - I)^-1 delta "
                         f"= {want}")
    else:
        idx = rng.sample(range(grid ** d), min(64, grid ** d))
        pts = xs[idx]
        want = series_displacement(a, q, pts)
        step = 1.0 / grid
        osc = 0.0
        for axis in range(d):
            shifted = pts.copy()
            shifted[:, axis] += step
            osc = max(osc, float(np.max(np.abs(
                series_displacement(a, q, shifted) - want))))
        bound = 2 * d * osc * rate / (1 - rate) + solver_slack
        err = float(np.max(np.abs(hs[idx] - want)))
        if err > bound:
            probs.append(f"field differs from the series by {err} > bound "
                         f"{bound} (grid step {step})")
    if d == 1:
        phi = xs[:, 0] + hs[:, 0]
        phi = np.append(phi, 1.0 + phi[0])
        if not np.all(np.diff(phi) > 0):
            probs.append("phi is not increasing on the 1-D grid")
    return probs
