"""Solver, verification, and regularity tests for the conjugacy module.

Closed-form oracles: constant perturbations give h = (A - I)^{-1} q exactly
(no interpolation error on any grid), and h(x) = |sin pi x|^{1/2} is a known
Holder-1/2 function for the exponent estimator.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperrank.conjugacy import (ConjugacyField, HolderEstimate,
                                 PerturbedMap, ResidualReport,
                                 TrigPerturbation, field_to_csv,
                                 holder_estimate, perturbed_map,
                                 solve_conjugacy, trig_perturbation,
                                 verify_conjugacy)
from hyperrank.errors import DegenerateField, NoConvergence, NotExpanding

from helpers import scalar_field_to_csv

SIN = trig_perturbation(1, [((1,), (-0.1j,))])       # 0.1 sin(2 pi x)
DOUBLING_SIN = perturbed_map([[2]], SIN)
DELTA = 0.05
DOUBLING_DELTA = perturbed_map(
    [[2]], trig_perturbation(1, [((0,), (DELTA,))]))


class TestTrigPerturbation:
    def test_matches_sine(self):
        xs = np.array([[i / 17 for i in range(17)]])
        for x, v in zip(xs[0], SIN.at(xs)[0]):
            assert v == pytest.approx(0.1 * math.sin(2 * math.pi * x),
                                      abs=1e-14)

    def test_bounds(self):
        assert SIN.deriv_bound() == pytest.approx(0.2 * math.pi)
        assert trig_perturbation(1, []).deriv_bound() == 0.0

    def test_constant_term(self):
        q = trig_perturbation(2, [((0, 0), (0.3, -0.2))])
        assert q.at(np.array([[0.77], [0.13]]))[:, 0] == pytest.approx(
            (0.3, -0.2))
        assert q.deriv_bound() == 0.0

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            trig_perturbation(2, [((1,), (1.0, 0.0))])

    @pytest.mark.parametrize("k", [2 ** 20, -2 ** 40, 2 ** 53, -2 ** 53])
    def test_large_modes_match_exact_phases(self, k):
        # <k, x> mod 1 of a double x is exact, while a sum in doubles loses
        # every bit of it at k = 2^53 (cos at x = 0.1234567 is 6e-17)
        rng = random.Random(7)
        groups = [
            [i / 4096 for i in range(0, 4096, 97)],
            [i / 1000 for i in range(1000)],
            [rng.random() for _ in range(200)] + [0.1234567],
            # non-dyadic doubles below 2^-12 have denominators past 2^64,
            # so the whole group takes Python-int columns
            [1 / 5000, 7 / 5000, 1e-5, 3e-7, 1e-300, 0.1234567],
            [-1.5, 2.75, -0.1234567, 2.0 ** 60]]          # outside [0, 1)
        q = trig_perturbation(2, [((k, 0), (1.0, 0.0)), ((0, k), (0.0, -1j))])
        for xs in groups:
            got = q.at(np.array([xs, xs]))
            for x, c, s in zip(xs, *got):
                theta = float(Fraction(k) * Fraction(x) % 1)
                assert abs(c - math.cos(2 * math.pi * theta)) <= 1e-15
                assert abs(s - math.sin(2 * math.pi * theta)) <= 1e-15


class TestPerturbedMap:
    def test_tau_wraps(self):
        pm = perturbed_map([[2]])
        assert pm.tau_at(np.array([[0.3, 0.7]]))[0] == pytest.approx(
            (0.6, 0.4))

    def test_min_modulus(self):
        assert perturbed_map([[2]]).min_modulus() == pytest.approx(2.0)
        cat = perturbed_map([[2, 1], [1, 1]])
        assert cat.min_modulus() == pytest.approx(
            (3 - math.sqrt(5)) / 2, rel=1e-9)

    def test_expanding_accepts_margin(self):
        DOUBLING_SIN.check_expanding()

    def test_cat_map_rejected(self):
        with pytest.raises(NotExpanding, match="not > 1"):
            perturbed_map([[2, 1], [1, 1]]).check_expanding()

    def test_big_perturbation_rejected(self):
        big = perturbed_map([[2]], trig_perturbation(1, [((1,), (-0.3j,))]))
        with pytest.raises(NotExpanding, match="margin"):
            big.check_expanding()

    def test_singular_rejected(self):
        with pytest.raises(NotExpanding, match="singular"):
            perturbed_map([[0]]).check_expanding()

    def test_integer_matrix_required(self):
        with pytest.raises(ValueError, match="integer"):
            perturbed_map([[Fraction(3, 2)]])
        with pytest.raises(ValueError, match="square"):
            perturbed_map([[2, 0]])

    def test_only_trig_perturbations(self):
        # the derivative bound the expansion check reads is q's closed form
        for q in (lambda x: (0.0,), (0.0,), np.zeros((1, 1))):
            with pytest.raises(ValueError, match="TrigPerturbation"):
                perturbed_map([[2]], q)
        with pytest.raises(ValueError, match="dimension"):
            perturbed_map([[2]], trig_perturbation(2, []))
        assert isinstance(perturbed_map([[2]], SIN), PerturbedMap)

    def test_one_grid_evaluation_per_solve(self, monkeypatch):
        # solve_conjugacy evaluates q once on the grid, for both the sweep's
        # q and tau's grid images; verification once on its samples
        sizes = []
        at = TrigPerturbation.at

        def counted(self, xs):
            sizes.append(xs.shape[1])
            return at(self, xs)
        monkeypatch.setattr(TrigPerturbation, "at", counted)
        field = solve_conjugacy(DOUBLING_SIN, 64)
        verify_conjugacy(DOUBLING_SIN, field, samples=10)
        assert sizes == [64, 10]


class TestSolve:
    def test_zero_perturbation_one_sweep(self):
        f = solve_conjugacy(perturbed_map([[2]]), 32, tol=1e-12)
        assert len(f.residuals) == 1
        assert all(v == 0.0 for v in f.values[0])

    def test_constant_delta_closed_form(self):
        f = solve_conjugacy(DOUBLING_DELTA, 64, tol=1e-10)
        assert max(abs(v - DELTA) for v in f.values[0]) < 1e-9
        # phi(2x + delta) = 2 phi(x) directly, with phi = id + h
        xs = np.array([[i / 11 for i in range(11)]])
        ys = DOUBLING_DELTA.tau_at(xs)
        lhs = (ys + f.displacement_at(ys))[0]
        rhs = 2 * (xs + f.displacement_at(xs))[0]
        for a, b in zip(lhs, rhs):
            assert abs(a - b - round(a - b)) < 1e-8

    def test_sine_grid_4096(self):
        f = solve_conjugacy(DOUBLING_SIN, 4096, tol=1e-8)
        assert f.residuals[-1] < 1e-8
        assert len(f.residuals) <= math.ceil(math.log2(1e8)) + 5

    def test_contraction_rate_observed(self):
        f = solve_conjugacy(DOUBLING_SIN, 1024, tol=1e-9)
        assert f.rate_bound == pytest.approx(0.5)
        for prev, cur in zip(f.residuals[1:], f.residuals[2:]):
            assert cur <= prev * (f.rate_bound + 0.02)

    def test_two_dim_constant_closed_form(self):
        # h = (A - I)^{-1} q = (0.03, 0.01) for A = [[2,1],[0,3]]
        pm = perturbed_map([[2, 1], [0, 3]],
                           trig_perturbation(2, [((0, 0), (0.04, 0.02))]))
        f = solve_conjugacy(pm, 16, tol=1e-12)
        assert max(abs(v - 0.03) for v in f.values[0]) < 1e-10
        assert max(abs(v - 0.01) for v in f.values[1]) < 1e-10

    def test_two_dim_modes(self):
        pm = perturbed_map([[2, 1], [0, 3]],
                           trig_perturbation(2, [((1, 0), (-0.05j, 0)),
                                                 ((0, 1), (0, -0.04j))]))
        f = solve_conjugacy(pm, 64, tol=1e-8)
        assert f.residuals[-1] < 1e-8
        for prev, cur in zip(f.residuals[1:], f.residuals[2:]):
            assert cur <= prev * (f.rate_bound + 0.02)

    def test_budget_exhaustion_carries_history(self):
        with pytest.raises(NoConvergence) as info:
            solve_conjugacy(DOUBLING_SIN, 256, tol=1e-16, budget=5)
        assert info.value.budget == 5
        assert len(info.value.history) == 5
        assert info.value.history[0] > info.value.history[-1]

    def test_not_expanding_solve(self):
        with pytest.raises(NotExpanding):
            solve_conjugacy(perturbed_map([[2, 1], [1, 1]]), 16)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_conjugacy(DOUBLING_SIN, 1)
        with pytest.raises(ValueError):
            solve_conjugacy(DOUBLING_SIN, 16, tol=0.0)

    def test_interpolation_at_grid_points(self):
        f = solve_conjugacy(DOUBLING_SIN, 128, tol=1e-9)
        at = (0, 1, 63, 127)
        got = f.displacement_at(np.array([[i / 128 for i in at]]))[0]
        for i, v in zip(at, got):
            assert v == pytest.approx(f.values[0][i], abs=1e-15)
        # periodic wrap on both sides
        left, right = f.displacement_at(np.array([[-0.25, 0.75]]))[0]
        assert left == pytest.approx(right, abs=1e-12)


class TestVerify:
    def test_zero_field_zero_residual(self):
        pm = perturbed_map([[3]])
        f = solve_conjugacy(pm, 32, tol=1e-12)
        rep = verify_conjugacy(pm, f, samples=100, seed=4)
        assert rep.sup == 0.0 and rep.mean == 0.0

    def test_constant_case_interpolation_free(self):
        f = solve_conjugacy(DOUBLING_DELTA, 64, tol=1e-10)
        rep = verify_conjugacy(DOUBLING_DELTA, f, samples=300, seed=5)
        assert rep.sup < 1e-8

    def test_sine_case_interpolation_level(self):
        f = solve_conjugacy(DOUBLING_SIN, 4096, tol=1e-8)
        rep = verify_conjugacy(DOUBLING_SIN, f, samples=400, seed=6)
        assert isinstance(rep, ResidualReport)
        assert rep.sup < 5e-4
        assert rep.mean <= rep.sup
        assert rep.count == 400

    def test_corrupted_field_negative_control(self):
        f = solve_conjugacy(DOUBLING_SIN, 1024, tol=1e-8)
        bad = ConjugacyField(
            dim=1, grid=f.grid,
            values=(tuple(v + 0.01 for v in f.values[0]),),
            residuals=f.residuals, rate_bound=f.rate_bound)
        rep = verify_conjugacy(DOUBLING_SIN, bad, samples=200, seed=7)
        # constant shift c leaves residual (A - I)c = 0.01
        assert rep.sup >= 10 * 1e-8
        assert rep.sup == pytest.approx(0.01, rel=0.2)


class TestHolder:
    def test_smooth_field_exponent_near_one(self):
        f = solve_conjugacy(DOUBLING_SIN, 4096, tol=1e-8)
        est = holder_estimate(f, pairs=3000, seed=5)
        assert isinstance(est, HolderEstimate)
        assert est.ci_low <= 1.0 <= est.ci_high
        assert 0.8 <= est.exponent <= 1.2

    def test_known_sqrt_singularity(self):
        n = 4096
        vals = tuple(abs(math.sin(math.pi * i / n)) ** 0.5
                     for i in range(n))
        g = ConjugacyField(dim=1, grid=n, values=(vals,),
                           residuals=(0.0,), rate_bound=0.5)
        est = holder_estimate(g, pairs=6000, seed=7)
        assert abs(est.exponent - 0.5) <= 0.1

    def test_band_restricted_scales(self):
        f = solve_conjugacy(DOUBLING_SIN, 512, tol=1e-8)
        est = holder_estimate(f, pairs=1200, seed=8)
        delta = 1 / 512
        assert min(est.scales) >= delta * (1 - 1e-12)
        assert max(est.scales) <= 10 * delta * (1 + 1e-12)

    def test_constant_field_degenerate(self):
        f = solve_conjugacy(DOUBLING_DELTA, 64, tol=1e-10)
        with pytest.raises(DegenerateField):
            holder_estimate(f, pairs=200, seed=9)
        z = solve_conjugacy(perturbed_map([[2]]), 32)
        with pytest.raises(DegenerateField):
            holder_estimate(z, pairs=200, seed=9)


class TestEquivariance:
    def test_doubled_time_constant_exact(self):
        # tau^2 has linear part 4 and constant perturbation 3 delta; its
        # displacement (4 - 1)^{-1} 3 delta equals delta again
        f1 = solve_conjugacy(DOUBLING_DELTA, 64, tol=1e-10)
        pm2 = perturbed_map(
            [[4]], trig_perturbation(1, [((0,), (3 * DELTA,))]))
        f2 = solve_conjugacy(pm2, 64, tol=1e-10)
        assert max(abs(a - b)
                   for a, b in zip(f1.values[0], f2.values[0])) < 2e-10


class TestHomeomorphism:
    def test_phi_strictly_increasing_on_grid(self):
        f = solve_conjugacy(DOUBLING_SIN, 4096, tol=1e-8)
        vals = f.values[0]
        n = f.grid
        for i in range(n - 1):
            assert (i + 1) / n + vals[i + 1] > i / n + vals[i]
        # wrap: phi(1) = phi(0) + 1
        assert 1.0 + vals[0] > (n - 1) / n + vals[n - 1]


class TestCsv:
    def test_shape_and_determinism(self):
        f = solve_conjugacy(DOUBLING_DELTA, 16, tol=1e-10)
        text = field_to_csv(f)
        lines = text.strip().split("\n")
        assert lines[0] == "index,x0,h0"
        assert len(lines) == 17
        assert text == field_to_csv(f)
        i, x, h = lines[1].split(",")
        assert (i, x) == ("0", "0.0")
        assert abs(float(h) - DELTA) < 1e-9

    def test_two_dim_header(self):
        pm = perturbed_map([[2, 0], [0, 3]])
        f = solve_conjugacy(pm, 4, tol=1e-10)
        lines = field_to_csv(f).strip().split("\n")
        assert lines[0] == "index,x0,x1,h0,h1"
        assert len(lines) == 17

    @pytest.mark.parametrize("dim, grid", [(1, 1), (1, 37), (2, 5), (2, 64),
                                           (3, 6)])
    def test_matches_row_by_row_writer(self, dim, grid):
        rng = random.Random(grid)
        values = tuple(tuple(rng.choice([rng.uniform(-1, 1), 0.0, -0.0,
                                         1e-300, 2.5e17])
                             for _ in range(grid ** dim))
                       for _ in range(dim))
        field = ConjugacyField(dim=dim, grid=grid, values=values,
                               residuals=(), rate_bound=0.5)
        assert field_to_csv(field) == scalar_field_to_csv(field)
