"""Seeded input generation for the hyperrank benchmark.

    python3 hyperbench/generate.py --workload NAME --seed N --dir DIR

writes one config file per operation under DIR/inputs and DIR/manifest.json,
which lists the operations of one pass in order: the hyperrank command line
(or the clt_check parameters), the exit code the construction implies, and
what the checker needs to judge the output.  The same seed gives the same
files.  Generation uses the oracles (sympy, numpy) and never imports
hyperrank: the program only ever sees the generated files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from fractions import Fraction

import sympy

import oracles as orc


def _det(m):
    return int(sympy.Matrix(m).det())


def _hyperbolic_irreducible(rng, n, prime_det):
    """Random n x n integer matrix with irreducible charpoly whose
    eigenvalue log-moduli are >= 0.1 from 0 and from each other, and whose
    determinant is +-1 or, with prime_det, +-(a prime below 10)."""
    while True:
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if abs(_det(m)) not in ((2, 3, 5, 7) if prime_det else (1,)):
            continue
        if not orc.charpoly(m).is_irreducible:
            continue
        logs = orc.real_log_moduli(m)
        if min(abs(v) for v in logs) >= 0.1 and orc.log_moduli_separated(m):
            return m


# --- z2_search ---------------------------------------------------------------

# One pass: actions (C_f, g(C_f)) with deg f in this order.  The composition
# is fixed so every seed does the same amount of each kind of work.
Z2_DEGREES = (2, 2, 3, 3, 4)


def z2_action(rng, deg):
    """C = companion(f), f irreducible of degree deg; B = g(C).  Accepted
    when the pair has joint real log rank 2 with margin (so no rank-one
    factor exists and every primitive combination is ergodic), some
    determinant is a non-unit (p-adic places occur), and the real
    log-moduli of each generator are well separated."""
    while True:
        f = [rng.randint(-3, 3) for _ in range(deg)]
        if f[0] == 0 or not orc.is_irreducible(f):
            continue
        g = [rng.randint(-2, 2) for _ in range(deg)]
        if not any(g[1:]):
            continue
        c = orc.companion(f)
        b = orc.poly_at_matrix(g, c)
        dets = (_det(c), _det(b))
        if 0 in dets or not 2 <= max(map(abs, dets)) <= 40:
            continue
        if orc.joint_log_rank_margin(f, g) < 0.05:
            continue
        if orc.log_moduli_separated(c) and orc.log_moduli_separated(b):
            return f, g, c, b


def cli_call(cid, argv, expect_exit, check, out, summary=False):
    """One hyperrank command line; outputs go to out(cid, ext) paths."""
    outputs = {"out": out(cid, "txt" if argv[0] == "crt" else
                          "json" if argv[0] == "analyze" else "csv")}
    argv = list(argv) + ["--out", outputs["out"]]
    if summary:
        outputs["summary"] = out(cid, "summary.json")
        argv += ["--summary", outputs["summary"]]
    return dict(id=cid, kind=argv[0], expect_exit=expect_exit, argv=argv,
                outputs=outputs, check=check)


def gen_z2_search(rng, put, out):
    calls = []
    for i, deg in enumerate(Z2_DEGREES):
        f, g, c, b = z2_action(rng, deg)
        path = put(f"z2_{i}.json", {"format": 1, "generators": [c, b]})
        calls.append(cli_call(
            f"z2_{i}", ["analyze", path], 0,
            dict(generators=[c, b], f=f, g=g, combo_bound=20), out))
    return calls


# --- spectra -----------------------------------------------------------------

# One pass, slot by slot.  The seed draws the matrices; the shapes, which
# determinants are prime and which prime powers appear are fixed per slot,
# because the number of p-adic places drives the cost of a call.
# Products: (dim A, dim B, det A prime, det B prime).
SPECTRA_PRODUCTS = ((2, 2, True, False), (2, 3, False, True),
                    (2, 2, True, True), (3, 2, True, False)) * 2
# Rank-1 actions: (dim, prime of the high power, cyclotomic factor,
# padic_precision).
SPECTRA_RANK1 = ((4, 2, False, 16), (5, 3, True, 32), (6, 5, False, 16),
                 (4, 3, True, 32), (5, 5, False, 16), (6, 2, True, 32),
                 (4, 5, False, 32), (5, 2, False, 16), (6, 3, False, 32))
CRT_SHAPES = ((2, 1), (3, 1), (4, 2), (3, 2)) * 2


def product_action(rng, na, nb, prime_a, prime_b):
    """(A + I, I + B): a rank-one product, certified obstruction (exit 2)."""
    a = _hyperbolic_irreducible(rng, na, prime_a)
    b = _hyperbolic_irreducible(rng, nb, prime_b)
    g1 = orc.block_diag(a, [[int(i == j) for j in range(nb)]
                            for i in range(nb)])
    g2 = orc.block_diag([[int(i == j) for j in range(na)]
                         for i in range(na)], b)
    return [g1, g2]


# exponent range of the high prime power per prime
PRIME_POWERS = {2: (8, 12), 3: (5, 7), 5: (4, 5)}


def _prime_power_factor(rng, p):
    """Irreducible x^2 + b x +- p^k with a high prime power constant."""
    while True:
        f = [rng.choice((1, -1)) * p ** rng.randint(*PRIME_POWERS[p]),
             rng.randint(-3, 3)]
        if orc.is_irreducible(f):
            return f


def _unit_factor(rng, deg):
    """Irreducible monic factor with constant term +-1 (no new places)."""
    while True:
        f = [rng.choice((1, -1))] + [rng.randint(-3, 3)
                                     for _ in range(deg - 1)]
        if orc.is_irreducible(f):
            return f


def _poly_mul(a, b):
    """Product of monic polynomials given by their ascending non-leading
    coefficients."""
    fa, fb = list(a) + [1], list(b) + [1]
    out = [0] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            out[i + j] += x * y
    return out[:-1]


def _unimodular(rng, n, ops=3):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u = [[u[r][c] + (s * u[j][c] if r == i else 0) for c in range(n)]
             for r in range(n)]
    return u


def rank1_matrix(rng, dim, p, cyclotomic):
    """U C_f U^-1 with f a product of irreducible factors: one with a high
    power of p as constant term, optionally a cyclotomic one (a non-ergodic
    generator), the rest units; eigenvalue log-moduli are well separated."""
    while True:
        factors = [_prime_power_factor(rng, p)]
        if cyclotomic:
            factors.append(rng.choice(([1], [1, 1], [1, 0])))
        while sum(map(len, factors)) < dim:
            left = dim - sum(map(len, factors))
            factors.append(_unit_factor(rng, min(left, rng.choice((2, 3)))))
        f = factors[0]
        for h in factors[1:]:
            f = _poly_mul(f, h)
        u = _unimodular(rng, dim)
        uinv = [[int(c) for c in row] for row in orc.mat_inverse(u)]
        m = orc.mat_mul(orc.mat_mul(u, orc.companion(f)), uinv)
        m = [[int(c) for c in row] for row in m]
        if orc.log_moduli_separated(m):
            return m


def step2_structure(rng, free, central):
    """Step-2 bracket table: disjoint free pairs hit each central index with
    even constants, coordinates shuffled."""
    dim = free + central
    order = list(range(dim))
    rng.shuffle(order)
    fidx, cidx = order[:free], order[free:]
    pairs = [(i, j) for a, i in enumerate(fidx) for j in fidx[a + 1:]]
    rng.shuffle(pairs)
    brackets = []
    for k in cidx:
        for _ in range(1 if len(pairs) < 2 * central else rng.randint(1, 2)):
            i, j = pairs.pop()
            brackets.append([i, j, k, 2 * rng.choice((-3, -2, -1, 1, 2, 3)),
                             1])
    return {"format": 1, "dim": dim, "brackets": brackets}


def crt_targets(rng, dim):
    primes = rng.sample((2, 3, 5, 7), rng.randint(2, 3))
    targets = {}
    for p in sorted(primes):
        level = rng.randint(1, 4)
        targets[str(p)] = {"coords": [rng.randint(-60, 60)
                                      for _ in range(dim)],
                           "level": level,
                           "precision": level + rng.randint(0, 4)}
    return {"format": 1, "targets": targets}


def gen_spectra(rng, put, out):
    calls = []
    for i, (na, nb, prime_a, prime_b) in enumerate(SPECTRA_PRODUCTS):
        gens = product_action(rng, na, nb, prime_a, prime_b)
        path = put(f"prod_{i}.json", {"format": 1, "generators": gens})
        calls.append(cli_call(f"prod_{i}", ["analyze", path], 2,
                              dict(generators=gens, blocks=[na, nb]), out))
    for i, (dim, p, cyclotomic, prec) in enumerate(SPECTRA_RANK1):
        m = rank1_matrix(rng, dim, p, cyclotomic)
        cfg = {"format": 1, "generators": [m], "padic_precision": prec}
        path = put(f"rank1_{i}.json", cfg)
        calls.append(cli_call(f"rank1_{i}", ["analyze", path], 0,
                              dict(generators=[m]), out))
    for i, (free, central) in enumerate(CRT_SHAPES):
        structure = step2_structure(rng, free, central)
        targets = crt_targets(rng, structure["dim"])
        spath = put(f"crt_{i}_structure.json", structure)
        tpath = put(f"crt_{i}_targets.json", targets)
        calls.append(cli_call(f"crt_{i}", ["crt", spath, tpath], 0,
                              dict(structure=structure, targets=targets),
                              out))
    return calls


# --- float_engines -----------------------------------------------------------

MC_SAMPLES = 400
EXPANDING_2D = ([[2, 1], [0, 2]], [[3, 1], [1, 2]])


def _coeff(rng, scale=1.0):
    return [round(rng.uniform(-scale, scale), 3),
            round(rng.uniform(-scale, scale), 3)]


def _hyperbolic_gl2(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        det, tr = a * d - b * c, a + d
        if abs(det) == 1 and tr * tr - 4 * det > 0 and abs(tr) >= 2:
            return [[a, b], [c, d]]


def _apply_t(m, k, times):
    for _ in range(times):
        k = [sum(m[j][i] * k[j] for j in range(len(k)))
             for i in range(len(k))]
    return k


def _mode_json(mode):
    return [str(Fraction(v)) for v in mode]


def torus_mixing(rng):
    a = _hyperbolic_gl2(rng)
    modes = set()
    while len(modes) < 3:
        k = (rng.randint(-3, 3), rng.randint(-3, 3))
        if k != (0, 0):
            modes.add(k)
    modes = sorted(modes)
    f = [{"mode": list(k), "coeff": _coeff(rng)} for k in modes]
    g = []
    for j in range(3):
        k = _apply_t(a, list(modes[j]), rng.randint(0, 3))
        g.append({"mode": [-v for v in k], "coeff": _coeff(rng)})
    g.append({"mode": [rng.randint(-3, 3), rng.randint(1, 3)],
              "coeff": _coeff(rng)})
    return {"format": 1, "primes": [], "matrix": a, "f": f, "g": g,
            "n_max": 5}


def sadic_mixing(rng):
    m = rng.choice((6, -6, 12, 18))
    modes = set()
    while len(modes) < 3:
        den = 2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        modes.add(Fraction(num, den))
    modes = sorted(modes)
    f = [{"mode": _mode_json([k]), "coeff": _coeff(rng)} for k in modes]
    g = [{"mode": _mode_json([-(k * m ** rng.randint(0, 2))]),
          "coeff": _coeff(rng)} for k in modes[:2]]
    g.append({"mode": _mode_json([Fraction(1, 4)]), "coeff": _coeff(rng)})
    return {"format": 1, "primes": [2, 3], "matrix": [[m]], "f": f, "g": g,
            "n_max": 5}


def lacunary_terms(rng, count):
    """sum_k s 2^-k cos(2 pi 2^k x): its correlations decay exactly like
    2^-n, so the fitted rate is log 2."""
    s = round(rng.uniform(0.5, 1.5), 3)
    terms = []
    for k in range(count):
        c = s * 2.0 ** -k / 2
        terms.append({"mode": [2 ** k], "coeff": [c, 0]})
        terms.append({"mode": [-2 ** k], "coeff": [c, 0]})
    return terms


def perturbation(rng, dim, terms, margin):
    """Trigonometric perturbation whose derivative bound (Frobenius norm of
    the entrywise bounds, as the solver computes it) stays under margin."""
    scale = margin / (2 * math.pi * 2 * terms * dim)
    while True:
        out = []
        for _ in range(terms):
            k = [rng.randint(-2, 2) for _ in range(dim)]
            if not any(k):
                k[0] = 1
            out.append({"mode": k,
                        "coeff": [_coeff(rng, scale) for _ in range(dim)]})
        total = 0.0
        for j in range(dim):
            for l in range(dim):
                total += sum(2 * math.pi * abs(t["mode"][l])
                             * abs(complex(*t["coeff"][j])) for t in out) ** 2
        if math.sqrt(total) < margin:
            return out


def conjugate_config(matrix, pert, grid):
    return {"format": 1, "matrix": matrix, "perturbation": pert,
            "grid": grid, "tol": 1e-8}


def gen_float_engines(rng, put, out):
    calls = []

    def mixing(cid, cfg, samples, lacunary=False):
        path = put(f"{cid}.json", cfg)
        calls.append(cli_call(
            cid, ["mixing", path, "--mc", str(samples)], 0,
            dict(config=cfg, samples=samples, lacunary=lacunary), out,
            summary=True))

    mixing("torus_0", torus_mixing(rng), MC_SAMPLES)
    mixing("torus_1", torus_mixing(rng), MC_SAMPLES)
    mixing("sadic_0", sadic_mixing(rng), 300)
    lac = {"format": 1, "primes": [], "matrix": [[2]],
           "f": lacunary_terms(rng, rng.randint(9, 12)), "n_max": 7,
           "mc": {"lags": [0, 1, 2]}}
    mixing("lacunary_0", lac, 300, lacunary=True)
    calls.append(dict(
        id="clt_0", kind="clt", expect_exit=0,
        outputs={"out": out("clt_0", "json")},
        params=dict(f=lacunary_terms(rng, 6), matrix=[[2]], n=192,
                    orbits=160, seed=rng.randrange(2 ** 31))))
    # the 2-D maps keep fixed linear parts: the sweep count, and so the
    # cost, is set by the contraction rate ||A^-1|| (3/4 and 4/5 here)
    m2, m3 = EXPANDING_2D[0], EXPANDING_2D[1]
    delta = [[round(rng.uniform(-0.2, 0.2), 3), 0] for _ in range(2)]
    for cid, cfg in (
            ("doubling", conjugate_config(
                [[2]], perturbation(rng, 1, 2, 0.6), 2048)),
            ("tripling", conjugate_config(
                [[3]], perturbation(rng, 1, 2, 1.2), 2048)),
            ("map2d", conjugate_config(
                m2, perturbation(rng, 2, 2, 0.5), 40)),
            ("constant2d", conjugate_config(
                m3, [{"mode": [0, 0], "coeff": delta}], 16))):
        path = put(f"{cid}.json", cfg)
        calls.append(cli_call(cid, ["conjugate", path], 0,
                              dict(config=cfg), out, summary=True))
    return calls


# --- warm-up inputs (seed-independent) ---------------------------------------


def warmup(workload, put, out):
    if workload == "z2_search":
        c = orc.companion([-1, -3])
        b = orc.poly_at_matrix([1, 1], c)
        path = put("warmup.json", {"format": 1, "generators": [c, b]})
        return cli_call("warmup", ["analyze", path], 0, {}, out)
    if workload == "spectra":
        path = put("warmup.json", {"format": 1,
                                   "generators": [[[2, 1], [1, 1]]]})
        return cli_call("warmup", ["analyze", path], 0, {}, out)
    path = put("warmup.json", {
        "format": 1, "primes": [], "matrix": [[2, 1], [1, 1]],
        "f": [{"mode": [1, 0], "coeff": [0.5, 0]},
              {"mode": [-1, 0], "coeff": [0.5, 0]}], "n_max": 4})
    return cli_call("warmup", ["mixing", path, "--mc", "100"], 0, {}, out,
                    summary=True)


WORKLOADS = {"z2_search": gen_z2_search, "spectra": gen_spectra,
             "float_engines": gen_float_engines}


def generate(workload, seed, directory):
    rng = random.Random(f"{workload}:{seed}")
    inputs = os.path.join(directory, "inputs")
    outputs = os.path.join(directory, "out")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)

    def out(cid, ext):
        return os.path.join(outputs, f"{cid}.{ext}")

    def put(name, obj):
        path = os.path.join(inputs, name)
        with open(path, "w", encoding="ascii") as fobj:
            json.dump(obj, fobj)
        return path

    manifest = {"workload": workload, "seed": seed,
                "warmup": warmup(workload, put, out),
                "calls": WORKLOADS[workload](rng, put, out)}
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="ascii") as fobj:
        json.dump(manifest, fobj, indent=1)
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, os.path.abspath(args.dir))


if __name__ == "__main__":
    main()
