"""Joint Lyapunov spectra: real and p-adic refinement, chambers, expansion.

Oracles: hand-computed eigenvalue data for the frozen fixtures, diagonal
models conjugated by unimodular matrices for the subspace engine,
per-generator marginals (single-matrix spectra) for random commuting pairs,
sympy's charpoly for rank-1 p-adic places, and the generators' order for
the p-adic refinement (metamorphic).
"""

import itertools
import math
import random

import numpy as np
from fractions import Fraction

import pytest
import sympy

from hyperrank import spectra
from hyperrank.errors import (CommutativityViolated, RankDeficient,
                              RootFindingFailure)
from hyperrank.exact import QMat
from hyperrank.spectra import (ActionSpec, LyapunovFunctional, LyapunovSpectrum,
                               _simplest_between,
                               _simplest_direction_in_sector, coarse_classes,
                               joint_spectrum, min_expansion_rate,
                               real_lyapunov, weyl_chambers)

from helpers import (in_sector, least_sup_norm_in_sector, padic_lyapunov,
                     scalar_min_expansion_rate)

CAT = [[2, 1], [1, 1]]
FIB = [[1, 1], [1, 0]]
L_CAT = math.log((3 + math.sqrt(5)) / 2)     # 0.9624236501192069
L_FIB = math.log((1 + math.sqrt(5)) / 2)     # 0.48121182505960347


def _least_abs_numerator(lo, hi):
    """Brute force: the least |p| over all fractions p/q in (lo, hi)."""
    if lo < 0 < hi:
        return 0
    if hi <= 0:
        lo, hi = -hi, -lo
    # some q > 0 has lo < p/q < hi exactly when p/hi < q < p/lo
    return next(p for p in itertools.count(1)
                if lo == 0 or math.floor(p / hi) + 1 < p / lo)


def spectrum_of(*gens, **kw):
    return joint_spectrum(ActionSpec(tuple(gens)), **kw)


def synthetic(rank, rows):
    """Hand-built spectrum for the pure cone/rate combinatorics."""
    funcs = tuple(LyapunovFunctional(place=pl, values=tuple(map(float, v)),
                                     multiplicity=1, exact=ex)
                  for pl, v, ex in rows)
    return LyapunovSpectrum(dim=len(rows), rank=rank, functionals=funcs,
                            product_residual=0.0)


class TestActionSpec:
    def test_rejects_non_commuting(self):
        with pytest.raises(CommutativityViolated) as ei:
            ActionSpec(([[1, 1], [0, 1]], [[1, 0], [1, 1]]))
        assert ei.value.pair == (0, 1)

    def test_rejects_singular(self):
        with pytest.raises(RankDeficient):
            ActionSpec(([[1, 2], [2, 4]],))

    def test_rejects_rational_entries(self):
        with pytest.raises(ValueError):
            ActionSpec((QMat([[Fraction(1, 2), 0], [0, 1]]),))

    def test_element_products(self):
        act = ActionSpec((CAT, FIB))
        assert act.element((1, 0)) == QMat(CAT)
        assert act.element((0, 2)) == QMat(FIB) @ QMat(FIB)
        assert act.element((1, -2)) == QMat.identity(2)  # cat = fib^2
        assert act.element((0, 0)) == QMat.identity(2)

    def test_primes_union(self):
        act = ActionSpec(([[2, 0], [0, 3]], [[3, 0], [0, 2]]))
        assert act.primes() == [2, 3]
        assert ActionSpec((CAT,)).primes() == []


class TestSingleMatrixSpectra:
    def test_cat_map_exponents_frozen(self):
        spec = real_lyapunov(CAT)
        assert len(spec) == 2
        assert spec[0][1] == 1 and spec[1][1] == 1
        assert abs(spec[0][0] + L_CAT) < 1e-9
        assert abs(spec[1][0] - L_CAT) < 1e-9

    def test_homothety_multiplicity(self):
        assert real_lyapunov([[2, 0], [0, 2]]) == [(pytest.approx(math.log(2)), 2)]

    def test_rotation_zero_exponents(self):
        (v, m), = real_lyapunov([[0, -1], [1, 0]])
        assert m == 2 and abs(v) < 1e-12

    def test_padic_unimodular_trivial(self):
        assert padic_lyapunov(CAT, 2) == [(Fraction(0), 2)]

    def test_padic_doubling(self):
        assert padic_lyapunov([[2]], 2) == [(Fraction(1), 1)]

    def test_padic_ramified_half_slope(self):
        # x^2 + 2: both roots have valuation 1/2
        assert padic_lyapunov([[0, -2], [1, 0]], 2) == [(Fraction(1, 2), 2)]

    def test_padic_split_slopes(self):
        # eigenvalues 2 and 3
        assert padic_lyapunov([[2, 1], [0, 3]], 2) == [(Fraction(0), 1),
                                                       (Fraction(1), 1)]


class TestJointSpectrum:
    def test_fibonacci_pair_real(self):
        spec = spectrum_of(CAT, FIB)
        assert {f.place for f in spec.functionals} == {"real"}
        funcs = sorted(spec.functionals, key=lambda f: f.values[0])
        assert [f.multiplicity for f in funcs] == [1, 1]
        assert abs(funcs[0].values[0] + 2 * L_FIB) < 1e-9
        assert abs(funcs[0].values[1] + L_FIB) < 1e-9
        assert abs(funcs[1].values[0] - 2 * L_FIB) < 1e-9
        assert abs(funcs[1].values[1] - L_FIB) < 1e-9
        assert spec.product_residual < 1e-9

    def test_diagonal_model_conjugated(self):
        # S diag(2,2,3) S^-1 and S diag(3,2,2) S^-1 for unimodular S: the
        # functionals must match the diagonal model place by place.
        a = [[2, 0, 0], [0, 2, 1], [0, 0, 3]]
        b = [[3, -1, 1], [0, 2, 0], [0, 0, 2]]
        spec = spectrum_of(a, b)
        places = [f.place for f in spec.functionals]
        assert list(dict.fromkeys(places)) == ["real", 2, 3]
        two = {(f.exact, f.multiplicity) for f in spec.functionals
               if f.place == 2}
        assert two == {((Fraction(1), Fraction(0)), 1),
                       ((Fraction(1), Fraction(1)), 1),
                       ((Fraction(0), Fraction(1)), 1)}
        three = {(f.exact, f.multiplicity) for f in spec.functionals
                 if f.place == 3}
        assert three == {((Fraction(0), Fraction(1)), 1),
                         ((Fraction(0), Fraction(0)), 1),
                         ((Fraction(1), Fraction(0)), 1)}
        reals = sorted((tuple(round(v, 9) for v in f.values), f.multiplicity)
                       for f in spec.functionals if f.place == "real")
        l2, l3 = round(math.log(2), 9), round(math.log(3), 9)
        assert reals == sorted([((l2, l3), 1), ((l2, l2), 1), ((l3, l2), 1)])

    def test_fractional_slopes_stay_exact(self):
        # A^2 = -2I, so A and A^3 = -2A have 2-adic eigenvalue valuations
        # 1/2 and 3/2, each with multiplicity 2.
        a = QMat([[0, -2], [1, 0]])
        spec = spectrum_of(a, a.power(3))
        (f2,) = [f for f in spec.functionals if f.place == 2]
        assert f2.exact == (Fraction(1, 2), Fraction(3, 2))
        assert f2.multiplicity == 2
        (fr,) = [f for f in spec.functionals if f.place == "real"]
        assert fr.multiplicity == 2
        assert abs(fr.values[0] - 0.5 * math.log(2)) < 1e-9
        assert abs(fr.values[1] - 1.5 * math.log(2)) < 1e-9

    def test_precision_retry_on_deep_valuation(self):
        # v_2 = 40 exceeds the 32-digit base precision; the retry must land it.
        spec = spectrum_of([[2 ** 40]])
        (f2,) = [f for f in spec.functionals if f.place == 2]
        assert f2.exact == (Fraction(40),)

    def test_product_formula_and_marginals_random(self):
        rng = random.Random(1105)
        done = 0
        while done < 8:
            a = QMat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if a.det() == 0:
                continue
            b = a @ a - a.scalar(2) + QMat.identity(3).scalar(3)
            if b.det() == 0 or not b.is_integer():
                continue
            act = ActionSpec((a, b))
            spec = joint_spectrum(act)
            assert spec.product_residual <= 1e-9 * act.dim
            for g, gen in enumerate(act.generators):
                for p in act.primes():
                    marg = {}
                    for f in spec.functionals:
                        if f.place == p:
                            v = f.exact[g]
                            marg[v] = marg.get(v, 0) + f.multiplicity
                    oracle = dict(padic_lyapunov(gen, p))
                    assert marg == oracle, (a, p, g)
                joint = _merge({}, ((f.values[g], f.multiplicity)
                                    for f in spec.functionals
                                    if f.place == "real"))
                single = _merge({}, real_lyapunov(gen))
                assert _close_multisets(joint, single), (a, g)
            done += 1

    def test_memoized_per_tol_and_precision(self):
        act = ActionSpec((CAT, FIB))
        spec = joint_spectrum(act)
        assert joint_spectrum(act) is spec
        assert joint_spectrum(act, tol=1e-9, padic_prec=32) is spec
        coarse = joint_spectrum(act, tol=1e-6)
        assert coarse is not spec and joint_spectrum(act, tol=1e-6) is coarse
        assert joint_spectrum(ActionSpec((CAT, FIB))) is not spec
        assert sorted(k for k in act.cache if k[0] == "spectrum") == [
            ("spectrum", 1e-9, 32), ("spectrum", 1e-6, 32)]

    def test_failed_refinement_is_memoized(self, monkeypatch):
        # the error is kept under the spectrum's key and raised again, so a
        # block that failed once is not refined again; another key refines
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RootFindingFailure("clusters not separated")
        monkeypatch.setattr(spectra, "_real_refine", fail)
        act = ActionSpec(([[3, 1], [1, 2]],))
        raised = []
        for _ in range(2):
            with pytest.raises(RootFindingFailure) as info:
                joint_spectrum(act)
            raised.append(info.value)
        assert len(calls) == 1 and raised[0] is raised[1]
        assert act.cache == {("spectrum", 1e-9, 32): raised[0]}
        with pytest.raises(RootFindingFailure):
            joint_spectrum(act, tol=1e-6)
        assert len(calls) == 2


def _companion(tail):
    """Companion matrix of the monic x^n - tail[n-1] x^(n-1) - ... - tail[0]."""
    n = len(tail)
    return [[int(r == c + 1) if c < n - 1 else tail[r] for c in range(n)]
            for r in range(n)]


def _split_action(rng):
    """(A, B) = P (A_1 + ... + A_k, B_1 + ... + B_k) P^-1: k = 2 or 3 blocks,
    A_i a companion matrix with constant term from {+-1, +-2, 3, 4, -6, 12,
    8} (shared primes, p-unit blocks, x^2 - 2 and x^3 - 4 with fractional
    slopes, equal valuation tuples in different blocks), B_i = c I + e A_i
    (+ A_i^2), and P a product of elementary unimodular matrices."""
    dets = [1, -1, 2, -2, 3, 4, -6, 12, 8]
    blocks = []
    for _ in range(rng.choice([2, 2, 3])):
        n = rng.choice([1, 1, 2, 2, 3])
        a = QMat(_companion([rng.choice(dets)]
                            + [rng.randint(-2, 2) for _ in range(n - 1)]))
        b = (QMat.identity(n).scalar(rng.randint(-3, 3))
             + a.scalar(rng.choice([-2, -1, 1, 2])))
        if rng.random() < 0.3:
            b = b + a @ a
        if b.det() == 0:
            b = b + QMat.identity(n)
        blocks.append((a, b))
    d = sum(a.shape[0] for a, _ in blocks)

    def block_sum(mats):
        out = [[0] * d for _ in range(d)]
        at = 0
        for m in mats:
            for i, row in enumerate(m.int_rows()):
                out[at + i][at:at + len(row)] = row
            at += len(row)
        return QMat(out)

    p = QMat.identity(d)
    for _ in range(3):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            e = [[int(r == c) for c in range(d)] for r in range(d)]
            e[i][j] = rng.choice([-1, 1])
            p = p @ QMat(e)
    pinv = p.inverse()
    return [p @ block_sum(ms) @ pinv for ms in zip(*blocks)]


class TestBlockMerge:
    def test_report_spectrum_is_the_whole_action_refinement(self):
        # the p-adic functionals a split action takes from its blocks are,
        # field for field and in order, the ones a refinement of the whole
        # action gives, on split actions with shared primes, p-unit blocks,
        # fractional slopes and one valuation tuple in several blocks
        from hyperrank.ergodicity import block_actions
        rng = random.Random(3001)
        seen = dict.fromkeys(["split", "shared", "unit", "fraction", "equal"],
                             0)
        for _ in range(250):
            gens = _split_action(rng)
            if any(g.det() == 0 for g in gens):
                continue
            action = ActionSpec(gens)
            try:
                spec = joint_spectrum(action)
            except (RootFindingFailure, RankDeficient):
                continue
            parts = block_actions(action)
            want = []
            for p in action.primes():
                logp = math.log(p)
                want += [LyapunovFunctional(
                    place=p, values=tuple(-float(v) * logp for v in vals),
                    multiplicity=mult, exact=tuple(vals))
                    for vals, mult in spectra._padic_functionals(action, p,
                                                                 32)]
                if len(parts) == 1:
                    continue
                per_block = [[f.exact for f in joint_spectrum(a).functionals
                              if f.place == p] for _, a in parts]
                seen["shared"] += sum(map(bool, per_block)) > 1
                seen["unit"] += not all(per_block)
                seen["fraction"] += any(v.denominator > 1 for fs in per_block
                                        for vals in fs for v in vals)
                tuples = [t for fs in per_block for t in fs]
                seen["equal"] += len(set(tuples)) < len(tuples)
            assert [f for f in spec.functionals if f.place != "real"] == want
            seen["split"] += len(parts) > 1
        assert seen["split"] >= 200 and min(seen.values()) > 0, seen


def _sympy_newton_slopes(matrix, p):
    """{root valuation: multiplicity} of sympy's charpoly of the matrix,
    from the lower convex envelope N of the points (i, v_p(a_i)), evaluated
    at every integer by brute force: the root between i and i + 1 has
    valuation N(i) - N(i + 1)."""
    coeffs = sympy.Matrix(matrix).charpoly().all_coeffs()[::-1]
    pts = [(i, sympy.multiplicity(p, int(c))) for i, c in enumerate(coeffs)
           if c != 0]

    def envelope(x):
        return min(y1 if x1 == x2 else
                   y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
                   for x1, y1 in pts for x2, y2 in pts if x1 <= x <= x2)
    out = {}
    for i in range(len(coeffs) - 1):
        v = envelope(i) - envelope(i + 1)
        out[v] = out.get(v, 0) + 1
    return out


class TestLastGenerator:
    def test_rank_one_reads_the_exact_polygon_in_one_attempt(self,
                                                             monkeypatch):
        # nothing splits a block after the last generator, so a rank-1
        # action neither factors, saturates nor restricts, and its deep
        # valuations need no precision retry, even from 4 digits
        def never(*args, **kwargs):
            raise AssertionError("the last generator split a block")
        for name in ("hensel_lift", "_saturate_columns", "restrict_rows",
                     "_slope_class_factors"):
            monkeypatch.setattr(spectra, name, never)
        attempts = []
        refine = spectra._padic_refine

        def counted(action, p, prec):
            attempts.append(prec)
            return refine(action, p, prec)
        monkeypatch.setattr(spectra, "_padic_refine", counted)
        mats = [[[2 ** 40, 0], [0, 3]]]
        for p, k in [(2, 9), (2, 40), (3, 7), (5, 5), (7, 30)]:
            for b in (0, 1, -3, p, p ** 2, -p ** 3, p ** (k // 2)):
                for sign in (1, -1):
                    mats.append(_companion([-sign * p ** k, -b]))
        for m in mats:
            action = ActionSpec([m])
            for p in action.primes():
                attempts.clear()
                got = spectra._padic_functionals(action, p, 4)
                assert attempts == [4], (m, p)
                want = _sympy_newton_slopes(m, p)
                assert got == [((v,), mult) for v, mult
                               in sorted(want.items(), reverse=True)], (m, p)

    def test_reversed_generators_give_reversed_tuples(self, monkeypatch):
        # the joint slope spaces at p do not depend on the generators'
        # order, while the refinement splits by all but the last one
        rng = random.Random(3303)
        split_by = set()
        split_block = spectra._split_block

        def recorded(blk, gi, p):
            split_by.add(gi)
            return split_block(blk, gi, p)
        monkeypatch.setattr(spectra, "_split_block", recorded)
        pairs = 0
        for rank in (2, 2, 3):
            for _ in range(80):
                gens = _split_action(rng)
                if rank == 3:
                    third = gens[0] + gens[1]
                    gens.append(third if third.det() else gens[0] @ gens[1])
                if any(g.det() == 0 for g in gens):
                    continue
                action = ActionSpec(gens)
                flipped = ActionSpec(gens[::-1])
                for p in action.primes():
                    split_by.clear()
                    want = dict(spectra._padic_functionals(action, p, 32))
                    got = dict(spectra._padic_functionals(flipped, p, 32))
                    assert {vals[::-1]: mult for vals, mult in got.items()} \
                        == want, (gens, p)
                    assert all(gi < rank - 1 for gi in split_by)
                    pairs += 1
        assert pairs >= 600, pairs


def _merge(out, pairs, tol=1e-6):
    for v, m in pairs:
        for key in out:
            if abs(key - v) <= tol:
                out[key] += m
                break
        else:
            out[v] = m
    return out


def _close_multisets(d1, d2, tol=1e-5):
    if sum(d1.values()) != sum(d2.values()):
        return False
    left = sorted(d1.items())
    right = sorted(d2.items())
    i = j = 0
    while i < len(left) and j < len(right):
        v1, m1 = left[i]
        v2, m2 = right[j]
        if abs(v1 - v2) > tol:
            return False
        take = min(m1, m2)
        m1 -= take
        m2 -= take
        if m1 == 0:
            i += 1
        else:
            left[i] = (v1, m1)
        if m2 == 0:
            j += 1
        else:
            right[j] = (v2, m2)
    return i == len(left) and j == len(right)


class TestConesAndRates:
    def test_coarse_classes_fibonacci(self):
        spec = spectrum_of(CAT, FIB)
        assert sorted(map(len, coarse_classes(spec))) == [1, 1]

    def test_coarse_classes_synthetic(self):
        spec = synthetic(2, [("real", (1, 2), None),
                             ("real", (3, 6), None),
                             ("real", (-1, -2), None),
                             ("real", (0, 0), None),
                             ("real", (0, 0), None)])
        classes = coarse_classes(spec)
        as_sets = sorted(map(tuple, classes))
        assert as_sets == [(0, 1), (2,), (3, 4)]

    def test_coarse_classes_exact_padic(self):
        spec = synthetic(2, [(2, (-0.6931, -1.3863), (Fraction(1), Fraction(2))),
                             (2, (-1.3863, -2.7726), (Fraction(2), Fraction(4))),
                             (2, (0.6931, 1.3863), (Fraction(-1), Fraction(-2)))])
        classes = coarse_classes(spec)
        assert sorted(map(tuple, classes)) == [(0, 1), (2,)]

    def test_weyl_six_chambers(self):
        spec = synthetic(2, [("real", (1, 0), None),
                             ("real", (0, 1), None),
                             ("real", (1, 1), None)])
        chambers = weyl_chambers(spec)
        assert len(chambers) == 6
        assert len({c.signs for c in chambers}) == 6
        for c in chambers:
            vals = [f.value_at(c.representative) for f in spec.functionals]
            assert all(abs(v) > 1e-9 for v in vals)
            assert tuple(1 if v > 0 else -1 for v in vals) == c.signs

    def test_weyl_two_chambers_single_line(self):
        spec = spectrum_of(CAT, FIB)
        chambers = weyl_chambers(spec)
        assert len(chambers) == 2
        assert chambers[0].signs == tuple(-s for s in chambers[1].signs)

    def test_weyl_exact_rays_from_padic(self):
        spec = spectrum_of([[2, 0], [0, 1]], [[1, 0], [0, 2]])
        chambers = weyl_chambers(spec)
        assert len(chambers) == 4
        rays = {r for c in chambers for r in c.boundary_rays if r is not None}
        assert rays == {(0, 1), (0, -1), (1, 0), (-1, 0)}

    def test_weyl_narrow_chambers_beyond_the_box(self):
        # kernel lines at slopes -1/100 and -1/99: the chamber between them
        # holds no integer vector of sup norm below 199
        spec = synthetic(2, [("real", (1, 100), None),
                             ("real", (1, 99), None)])
        chambers = weyl_chambers(spec)
        assert len(chambers) == 4
        for c in chambers:
            vals = [f.value_at(c.representative) for f in spec.functionals]
            assert all(abs(v) > 1e-9 for v in vals)
            assert tuple(1 if v > 0 else -1 for v in vals) == c.signs
        reps = {c.representative for c in chambers}
        assert (-199, 2) in reps and (199, -2) in reps

    def test_simplest_direction_in_random_sectors(self):
        # widths from 1e-9 to pi, exact half-planes among them, and edges on
        # lattice directions as exact p-adic rays give them
        rng = random.Random(4)
        sectors = []
        for _ in range(300):
            a0 = rng.uniform(0, 2 * math.pi)
            width = 10 ** rng.uniform(-9, math.log10(math.pi))
            sectors.append((a0, a0 + width))
            sectors.append((a0, a0 + math.pi))
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v != (0, 0):
                e0 = math.atan2(v[1], v[0]) % (2 * math.pi)
                sectors.append((e0, e0 + math.pi))
                sectors.append((e0, e0 + rng.uniform(0, math.pi)))
        for k in range(4):
            sectors.append((k * math.pi / 2, (k + 1) * math.pi / 2))
        for a0, a1 in sectors:
            x, y = _simplest_direction_in_sector(a0, a1)
            assert math.gcd(x, y) == 1
            assert in_sector(x, y, a0, a1), (a0, a1, x, y)
            norm = max(abs(x), abs(y))
            assert least_sup_norm_in_sector(a0, a1, 60) == (
                norm if norm <= 60 else None), (a0, a1, x, y)

    def test_simplest_between_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            lo = Fraction(rng.randrange(-400, 400), rng.randrange(1, 60))
            width = Fraction(rng.randrange(1, 50), rng.randrange(1, 900))
            for lo, hi in ((lo, lo + width), (-lo - width, -lo),
                           (-width, abs(lo) + width), (0, width),
                           (-width, 0)):
                got = _simplest_between(lo, hi)
                assert lo < got < hi
                den = next(q for q in range(1, 1000)
                           if math.floor(lo * q) + 1 < hi * q)
                assert got.denominator == den
                assert abs(got.numerator) == _least_abs_numerator(lo, hi)

    def test_weyl_requires_rank_two(self):
        with pytest.raises(ValueError):
            weyl_chambers(spectrum_of([[2]]))

    def test_min_rate_axis_pair(self):
        spec = synthetic(2, [("real", (1, 0), None), ("real", (0, 1), None)])
        assert abs(min_expansion_rate(spec) - 1.0) < 1e-9

    def test_min_rate_diagonal_pair(self):
        spec = synthetic(2, [("real", (1, 1), None), ("real", (1, -1), None)])
        assert abs(min_expansion_rate(spec) - 1.0) < 1e-9

    def test_min_rate_rank_one(self):
        spec = synthetic(1, [("real", (2,), None), ("real", (-3,), None)])
        assert abs(min_expansion_rate(spec) - 3.0) < 1e-9

    def test_min_rate_scales(self):
        base = synthetic(2, [("real", (1, 0), None), ("real", (0, 1), None)])
        doubled = synthetic(2, [("real", (2, 0), None), ("real", (0, 2), None)])
        assert abs(min_expansion_rate(doubled) - 2 * min_expansion_rate(base)) < 1e-9

    def test_min_rate_matches_the_scalar_oracle(self, monkeypatch):
        # zero, opposite and duplicate functionals make 1x1 systems with a
        # zero entry and singular 2x2 systems.  slogdet keeps them out of the
        # batched solve, so no solve raises; with slogdet blinded, a batch
        # that raises is halved, and besides the faces of one system, a
        # system is solved alone only on the halving path of a singular one
        rng = random.Random(20261018)
        solve = np.linalg.solve
        calls = []   # (systems, raised) per np.linalg.solve call

        def spy(a, b):
            calls.append((1 if np.ndim(a) == 2 else len(a), True))
            out = solve(a, b)
            calls[-1] = (calls[-1][0], False)
            return out

        def blind(a):
            return np.ones(len(a)), np.zeros(len(a))

        alone = []   # per blinded spectrum: (solved alone, of them singular)
        for n in range(3000):
            k = rng.choice((1, 2, 3))
            rows = []
            for _ in range(rng.randint(1, 5 if k < 3 else 3)):
                kind = rng.random()
                if kind < 0.1:
                    v = (0,) * k
                elif kind < 0.3 and rows:
                    v = rng.choice(rows)
                elif kind < 0.45 and rows:
                    v = tuple(-x for x in rng.choice(rows))
                elif kind < 0.6:
                    v = tuple(rng.randint(-2, 2) for _ in range(k))
                else:
                    v = tuple(rng.uniform(-3, 3) for _ in range(k))
                rows.append(v)
            spec = synthetic(k, [("real", v, None) for v in rows])
            want = repr(scalar_min_expansion_rate(spec))
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", spy)
                got = repr(min_expansion_rate(spec))
                assert got == want, rows
                assert not any(r for _, r in calls), rows
                single = sum(c == 1 for c, _ in calls)   # one-system faces
                del calls[:]
                if n % 3:
                    continue   # the halving path on every third spectrum
                m.setattr(np.linalg, "slogdet", blind)
                got = repr(min_expansion_rate(spec))
            assert got == want, rows
            largest = max((c for c, _ in calls), default=1)
            singular = sum(c == 1 and r for c, r in calls)
            solved = sum(c == 1 and not r for c, r in calls)
            assert solved <= single + singular * max(
                1, math.ceil(math.log2(largest)))
            alone.append((solved, singular))
            del calls[:]
        assert any(s for _, s in alone) and any(s for s, _ in alone)

    def test_min_rate_batches_span_faces(self, monkeypatch):
        # with 7 systems per batch, one batch holds the systems of several
        # faces: each size of face costs ceil(its systems / 7) solves
        rng = random.Random(20261019)
        solve_each = spectra._solve_each
        sizes = []

        def spy(a, b):
            sizes.append(len(a))
            return solve_each(a, b)
        monkeypatch.setattr(spectra, "_SOLVE_BATCH", 7)
        monkeypatch.setattr(spectra, "_solve_each", spy)
        for _ in range(300):
            k = rng.choice((2, 3))
            rows = [tuple(rng.choice((rng.randint(-2, 2), rng.uniform(-3, 3)))
                          for _ in range(k))
                    for _ in range(rng.randint(1, 4 if k < 3 else 3))]
            spec = synthetic(k, [("real", v, None) for v in rows])
            assert repr(min_expansion_rate(spec)) == \
                repr(scalar_min_expansion_rate(spec)), rows
            planes = len(rows) ** 2
            want = sum(math.ceil(math.comb(k, s) * 2 ** (k - s)
                                 * math.comb(planes, s) / 7)
                       for s in range(1, k))
            assert len(sizes) == want and max(sizes, default=0) <= 7, rows
            del sizes[:]
