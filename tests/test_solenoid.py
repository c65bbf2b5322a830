"""Solenoid dynamics, characters, exact correlations, and the CLT check.

The one identity everything else leans on is the character pushforward
chi_m(apply(a, z)) = chi_{a^T m}(z), which holds exactly on rational phases;
it is tested as exact Fraction equality over random points, modes, and
matrices, carries included.  Correlation values are frozen from closed forms
and cross-checked against an odd-grid Riemann oracle that integrates integer
trigonometric polynomials exactly.
"""

import cmath
import io
import math
import random
from fractions import Fraction

import pytest

from hyperrank.errors import (DegenerateFit, LeavesDualLattice,
                              NotAnAutomorphism, PrecisionExhausted)
from hyperrank.exact import QMat
from hyperrank.solenoid import (CorrelationRow, SolenoidPoint, TrigFunction,
                                apply, apply_inverse, clt_check,
                                correlation_csv, exact_correlation,
                                haar_sample, inverse_levels, mixing_curve,
                                monte_carlo_correlation)

from helpers import (character_phase, character_value, cosine, evaluate,
                     scalar_apply_inverse, solenoid_point)

CAT = QMat([[2, 1], [1, 1]])
DOUBLING = QMat([[2]])


def grid_correlation(f, g, a, n, grid=4095):
    # independent oracle for integer-mode observables: an odd uniform grid
    # sums chi_k to zero unless grid | k, which never happens for the modes
    # under test, so the Riemann sum is the exact Haar integral
    at = a.transpose()
    modes = list(f.terms)
    for _ in range(n):
        modes = [(at.matvec(m), c) for m, c in modes]
    total = 0j
    for i in range(grid):
        x = i / grid
        fv = sum(c * cmath.exp(2j * math.pi * float(m[0]) * x)
                 for m, c in modes)
        gv = sum(c * cmath.exp(2j * math.pi * float(m[0]) * x)
                 for m, c in g.terms)
        total += fv * gv
    return total / grid - f.mean() * g.mean()


def lacunary(j_max, ratio):
    terms = []
    for j in range(j_max):
        c = ratio ** j / 2
        terms += [((2 ** j,), c), ((-2 ** j,), c)]
    return TrigFunction.build(terms)


class TestPoints:
    def test_torus_coordinate_reduced(self):
        pt = solenoid_point([Fraction(7, 3), Fraction(-1, 4)])
        assert pt.x == (Fraction(1, 3), Fraction(3, 4))
        assert pt.xi == ()

    def test_fibers_sorted_and_reduced(self):
        pt = solenoid_point([0], xi={3: (2, (11,)), 2: (3, (21,))})
        assert pt.primes == (2, 3)
        assert pt.xi_at(2) == (3, (21 % 8,))
        assert pt.xi_at(3) == (2, (2,))
        with pytest.raises(KeyError):
            pt.xi_at(5)

    def test_embed_rejects_shared_prime(self):
        with pytest.raises(ValueError):
            solenoid_point([Fraction(1, 2)], primes=(2,))

    def test_fiber_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solenoid_point([0, 0], xi={2: (3, (1,))})

    def test_haar_sample_deterministic(self):
        a = haar_sample(5, 2, primes=(2, 3), seed=9)
        b = haar_sample(5, 2, primes=(2, 3), seed=9)
        c = haar_sample(5, 2, primes=(2, 3), seed=10)
        assert a == b
        assert a != c
        for pt in a:
            assert pt.dim == 2
            assert pt.primes == (2, 3)
            assert all(0 <= co < 1 for co in pt.x)
            for p, prec, res in pt.xi:
                assert all(0 <= r < p ** prec for r in res)


class TestDynamics:
    def test_pushforward_identity_random(self):
        # the load-bearing oracle: exact phase equality, carries included
        rng = random.Random(7)
        mats = [CAT, DOUBLING.scalar(1), QMat([[6, 1], [2, 1]]),
                QMat([[3, 0], [1, 2]])]
        for _ in range(300):
            a = rng.choice(mats)
            d = a.shape[0]
            x = [Fraction(rng.randrange(101), 101) for _ in range(d)]
            xi = {p: (10, tuple(rng.randrange(p ** 10) for _ in range(d)))
                  for p in (2, 3)}
            pt = solenoid_point(x, xi=xi)
            mode = tuple(Fraction(rng.randrange(-12, 13),
                                  rng.choice([1, 2, 3, 4, 6]))
                         for _ in range(d))
            lhs = character_phase(mode, apply(a, pt))
            rhs = character_phase(a.transpose().matvec(mode), pt)
            assert lhs == rhs

    def test_pushforward_with_carry(self):
        # 2*(2/3) leaves [0,1); the dropped integer must reach the fiber
        pt = solenoid_point([Fraction(2, 3)], primes=(2,), prec=8)
        mode = (Fraction(1, 2),)
        lhs = character_phase(mode, apply(DOUBLING, pt))
        rhs = character_phase((Fraction(1),), pt)
        assert lhs == rhs

    def test_translate_invariance(self):
        # (x, xi) and (x + r, xi - r) name the same point; characters must
        # not tell the representatives apart, even off the fundamental domain
        pt = SolenoidPoint(x=(Fraction(1, 5),), xi=((2, 6, (37,)),))
        moved = SolenoidPoint(x=(Fraction(1, 5) + 3,),
                              xi=((2, 6, ((37 - 3) % 64,)),))
        for mode in [(Fraction(1, 4),), (Fraction(3, 2),), (Fraction(5),)]:
            assert character_phase(mode, pt) == character_phase(mode, moved)

    def test_inverse_levels_frozen(self):
        assert inverse_levels(CAT) == {}
        assert inverse_levels(DOUBLING) == {2: 1}
        assert inverse_levels(QMat([[6]])) == {2: 1, 3: 1}
        assert inverse_levels(QMat([[4, 2], [2, 2]])) == {2: 1}
        assert inverse_levels(QMat([[2, 0], [0, 4]])) == {2: 2}

    def test_inverse_worked_example(self):
        # halving (x=0, xi_2=1 mod 8): branch n=1, x'=(0+1)/2, xi'=(1-1)/2
        pt = solenoid_point([0], xi={2: (3, (1,))})
        out = apply_inverse(DOUBLING, pt)
        assert out.x == (Fraction(1, 2),)
        assert out.xi == ((2, 2, (0,)),)
        back = apply(DOUBLING, out)
        assert back.x == (Fraction(0),)
        assert back.xi == ((2, 2, (1,)),)

    def test_inverse_multiprime_crt(self):
        # det 6: n = crt(1 mod 2, 2 mod 3) = 5, x' = 5/6,
        # xi_2' = -2/3 = 2 mod 8, xi_3' = -1/2 = 13 mod 27
        pt = solenoid_point([0], xi={2: (4, (1,)), 3: (4, (2,))})
        out = apply_inverse(QMat([[6]]), pt)
        assert out.x == (Fraction(5, 6),)
        assert out.xi == ((2, 3, (2,)), (3, 3, (13,)))

    def test_inverse_roundtrips(self):
        b = QMat([[6, 1], [2, 1]])        # det 4
        pt = solenoid_point([Fraction(3, 5), Fraction(4, 7)],
                            xi={2: (12, (1234, 987))})
        mid = apply_inverse(b, pt)
        assert mid.xi_at(2)[0] == 10
        back = apply(b, mid)
        assert back.x == pt.x
        assert back.xi_at(2)[1] == tuple(r % 2 ** 10
                                         for r in pt.xi_at(2)[1])
        other = apply_inverse(b, apply(b, pt))
        assert other.x == pt.x
        assert other.xi_at(2)[1] == tuple(r % 2 ** 10
                                          for r in pt.xi_at(2)[1])

    def test_unimodular_inverse_costs_nothing(self):
        pt = solenoid_point([Fraction(2, 7), Fraction(3, 7)],
                            xi={2: (8, (5, 9))})
        out = apply_inverse(CAT, pt)
        assert out.xi_at(2)[0] == 8
        assert apply(CAT, out) == pt

    def test_precision_ledger(self):
        # twelve digits buy exactly twelve halvings
        pt = solenoid_point([0], xi={2: (12, (1,))})
        for _ in range(12):
            pt = apply_inverse(DOUBLING, pt)
        assert pt.xi_at(2)[0] == 0
        with pytest.raises(PrecisionExhausted):
            apply_inverse(DOUBLING, pt)

    def test_inverse_matches_the_scalar_oracle(self):
        # whole inverse orbits, step by step until an exception, against the
        # adjugate form; exceptions must agree in type and message too
        rng = random.Random(23)
        mats = [[[2]], [[6]], [[3]], [[-6]], [[4, 2], [2, 2]],
                [[2, 0], [0, 4]], [[2, 1], [1, 1]], [[12, 0], [0, 18]],
                [[2, 1], [0, 2]], [[0, 2], [3, 0]],
                [[2, 1, 0], [1, 2, 1], [0, 1, 2]]]
        steps = 0
        for rows in mats:
            a = QMat(rows)
            for primes in [(2, 3), (2, 3, 5), (2,), (3,)]:
                for prec in range(1, 13):
                    for _ in range(2):
                        dim = len(rows)
                        x = [Fraction(rng.randrange(60), rng.randint(1, 60))
                             for _ in range(dim)]
                        xi = {p: (prec, tuple(rng.randrange(p ** prec)
                                              for _ in range(dim)))
                              for p in primes}
                        pt = solenoid_point(x, xi=xi)
                        for _ in range(prec + 2):
                            try:
                                want = scalar_apply_inverse(a, pt)
                            except (NotAnAutomorphism,
                                    PrecisionExhausted) as exc:
                                with pytest.raises(type(exc)) as got:
                                    apply_inverse(a, pt)
                                assert str(got.value) == str(exc)
                                break
                            pt = apply_inverse(a, pt)
                            assert pt == want
                            steps += 1
        assert steps > 2000

    def test_not_an_automorphism(self):
        with pytest.raises(NotAnAutomorphism):
            apply_inverse(QMat([[1, 1], [1, 1]]),
                          solenoid_point([0, 0], primes=(2,)))
        with pytest.raises(NotAnAutomorphism):
            apply_inverse(QMat([[3]]), solenoid_point([0], primes=(2,)))


class TestCharacters:
    def test_embedded_phase_frozen(self):
        # m = 1/2 on the embedded 1/3: 1/6 + {1/6}_2 = 1/6 + 1/2 = 2/3
        pt = solenoid_point([Fraction(1, 3)], primes=(2,))
        assert character_phase((Fraction(1, 2),), pt) == Fraction(2, 3)
        assert character_phase((Fraction(1),), pt) == Fraction(1, 3)

    def test_character_value_on_unit_circle(self):
        pt = solenoid_point([Fraction(2, 5)], xi={2: (6, (3,))})
        v = character_value((Fraction(3, 4),), pt)
        assert abs(abs(v) - 1) < 1e-12

    def test_character_precision_exhausted(self):
        pt = solenoid_point([0], xi={2: (3, (1,))})
        with pytest.raises(PrecisionExhausted):
            character_phase((Fraction(1, 16),), pt)

    def test_build_merges_and_drops(self):
        f = TrigFunction.build([((1, 0), 1.0), ((1, 0), -1.0),
                                ((0, 1), 2.0)])
        assert f.terms == (((Fraction(0), Fraction(1)), 2 + 0j),)
        with pytest.raises(ValueError):
            TrigFunction.build([((1,), 1.0), ((1, 0), 1.0)])

    def test_build_checks_dual_lattice(self):
        with pytest.raises(LeavesDualLattice):
            TrigFunction.build([((Fraction(1, 3),), 1.0)], primes=(2,))
        TrigFunction.build([((Fraction(1, 6),), 1.0)], primes=(2, 3))

    def test_mean_conjugate_pushforward(self):
        f = TrigFunction.build([((0,), 2.5), ((1,), 1 + 1j)])
        assert f.mean() == 2.5 + 0j
        fc = f.conjugate()
        assert dict(fc.terms)[(Fraction(-1),)] == 1 - 1j
        g = cosine((1, 0)).pushforward(CAT)
        assert set(m for m, _ in g.terms) == {(Fraction(2), Fraction(1)),
                                              (Fraction(-2), Fraction(-1))}

    def test_evaluate_matches_character_sum(self):
        f = TrigFunction.build([((1,), 0.5 - 0.25j), ((-2,), 1.5)])
        pt = solenoid_point([Fraction(3, 7)])
        direct = (0.5 - 0.25j) * character_value((1,), pt) \
            + 1.5 * character_value((-2,), pt)
        assert abs(evaluate(f, pt) - direct) < 1e-12

    def test_cosine_evaluates_real(self):
        f = cosine((1,))
        pt = solenoid_point([Fraction(2, 9)])
        v = evaluate(f, pt)
        assert abs(v.imag) < 1e-12
        assert abs(v.real - math.cos(2 * math.pi * 2 / 9)) < 1e-12


class TestExactCorrelation:
    def test_doubling_cosine_frozen(self):
        f = cosine((1,))
        vals = exact_correlation(f, f, DOUBLING, 5)
        assert vals[0] == 0.5 + 0j
        assert all(v == 0 for v in vals[1:])

    def test_coboundary_frozen(self):
        f = TrigFunction.build([((1,), 0.5), ((-1,), 0.5),
                                ((2,), -0.5), ((-2,), -0.5)])
        vals = exact_correlation(f, f, DOUBLING, 4)
        assert vals[0] == 1 + 0j
        assert vals[1] == -0.5 + 0j
        assert all(v == 0 for v in vals[2:])

    def test_constant_shift_is_invisible(self):
        f = cosine((1,))
        g = TrigFunction.build([((0,), 3.0)] + list(f.terms))
        a = exact_correlation(f, f, DOUBLING, 4)
        b = exact_correlation(g, g, DOUBLING, 4)
        assert a == b

    def test_lacunary_closed_form(self):
        # sum_{j<J} r^j cos(2 pi 2^j x) under doubling:
        # C(n) = (r^n / 2) (1 - r^{2(J-n)}) / (1 - r^2)
        f = lacunary(8, 0.5)
        vals = exact_correlation(f, f, DOUBLING, 7)
        for n, v in enumerate(vals):
            ref = (0.5 ** n / 2) * (1 - 0.5 ** (2 * (8 - n))) / (1 - 0.25)
            assert abs(v - ref) < 1e-14

    def test_lacunary_grid_oracle(self):
        f = lacunary(8, 0.5)
        vals = exact_correlation(f, f, DOUBLING, 3)
        for n in (0, 1, 3):
            assert abs(vals[n] - grid_correlation(f, f, DOUBLING, n)) < 1e-9

    def test_cat_single_character_zeros(self):
        f = TrigFunction.build([((1, 0), 1.0)])
        vals = exact_correlation(f, f.conjugate(), CAT, 12)
        assert vals[0] == 1 + 0j
        assert all(v == 0 for v in vals[1:])

    def test_random_pair_matches_grid_oracle(self):
        rng = random.Random(23)
        terms_f = [((rng.randrange(-3, 4),), complex(rng.uniform(-1, 1)))
                   for _ in range(3)]
        terms_g = [((rng.randrange(-3, 4),), complex(rng.uniform(-1, 1)))
                   for _ in range(3)]
        f = TrigFunction.build(terms_f)
        g = TrigFunction.build(terms_g)
        vals = exact_correlation(f, g, QMat([[3]]), 3)
        for n in range(4):
            assert abs(vals[n] - grid_correlation(f, g, QMat([[3]]), n)) < 1e-9


class TestMixingCurve:
    def test_lacunary_rate_near_log_two(self):
        curve = mixing_curve(lacunary(8, 0.5), lacunary(8, 0.5), DOUBLING, 7)
        assert curve.fit_points == 8
        assert abs(curve.decay_rate - math.log(2)) < 0.05

    def test_zero_tail_and_certificate(self):
        f = cosine((1, 0))
        curve = mixing_curve(f, f, CAT, 12)
        assert curve.values[0] == 0.5 + 0j
        assert curve.zero_from == 1
        assert curve.certified_zero_from == 1
        assert curve.decay_rate is None
        d = mixing_curve(cosine((1,)), cosine((1,)), DOUBLING, 6)
        assert d.zero_from == 1
        assert d.certified_zero_from == 1

    def test_certificate_implies_zero_tail(self):
        cases = [(cosine((1, 0)), cosine((0, 1)), CAT, 12),
                 (lacunary(8, 0.5), lacunary(8, 0.5), DOUBLING, 10),
                 (cosine((1,)), cosine((2,)), QMat([[3]]), 10)]
        for f, g, a, n_max in cases:
            curve = mixing_curve(f, g, a, n_max)
            c = curve.certified_zero_from
            assert c is not None
            assert all(v == 0 for v in curve.values[c:])

    def test_no_certificate_for_unimodular(self):
        shear = QMat([[1, 1], [0, 1]])
        curve = mixing_curve(cosine((1, 0)), cosine((1, 0)), shear, 4)
        assert curve.certified_zero_from is None

    def test_certificate_for_fractional_modes(self):
        f = TrigFunction.build([((Fraction(1, 2),), 1.0)], primes=(2,))
        curve = mixing_curve(f, f.conjugate(), DOUBLING, 4)
        assert curve.zero_from == curve.certified_zero_from == 1
        # x2 on the 2-solenoid: 2^n / 2 - 2 = 0 only at n = 2
        g = TrigFunction.build([((-2,), 1.0)], primes=(2,))
        curve = mixing_curve(f, g, DOUBLING, 6)
        assert curve.values[2] != 0
        assert curve.zero_from == curve.certified_zero_from == 3

    def test_certificate_holds_on_solenoid_modes(self):
        # modes with 2- and 3-power denominators; g meets f's first mode at
        # lag j, so the certificate must come after j, and the exact curve
        # must vanish from it up to ten times it
        rng = random.Random(15)
        mats = [QMat([[2]]), QMat([[3]]), QMat([[-6]]), CAT,
                QMat([[3, 1], [1, 1]]), QMat([[2, 0], [0, 3]])]
        for _ in range(60):
            a = rng.choice(mats)
            d = a.shape[0]

            def mode():      # no zero entry, so never the zero mode
                den = 2 ** rng.randrange(4) * 3 ** rng.randrange(4)
                return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      den) for _ in range(d))
            k = mode()
            j = rng.randrange(4)
            hit = QMat([k]) @ a.power(j)       # the row ((a^T)^j k)^T
            f = TrigFunction.build([(k, 1.0), (mode(), 0.5j)], primes=(2, 3))
            g = TrigFunction.build([(tuple(-c for c in hit.rows[0]), 2.0),
                                    (mode(), 1.5)], primes=(2, 3))
            c = mixing_curve(f, g, a, 4).certified_zero_from
            assert c is not None and c > j
            values = exact_correlation(f, g, a, 10 * c)
            assert values[j] != 0
            assert all(v == 0 for v in values[c:])

    def test_constant_observable_certified_from_zero(self):
        # only the mean term pairs with a constant, and it cancels
        f = TrigFunction.build([((1, 0), 1.0), ((0, 0), 2.0)])
        const = TrigFunction.build([((0, 0), 3.0)])
        singular = QMat([[2, 0], [0, 0]])
        for curve in (mixing_curve(f, const, CAT, 6),
                      mixing_curve(const, f, CAT, 6),
                      mixing_curve(const, f, singular, 6)):
            assert curve.zero_from == curve.certified_zero_from == 0
        # but a singular A can send a nonconstant mode of f to zero
        g = TrigFunction.build([((0, 1), 1.0)])
        curve = mixing_curve(g, const, singular, 3)
        assert curve.values[1] == 3
        assert curve.zero_from is None and curve.certified_zero_from is None

    def test_degenerate_fit(self):
        f = cosine((1,))
        with pytest.raises(DegenerateFit):
            mixing_curve(f, f, DOUBLING, 6, fit_range=range(1, 6))
        curve = mixing_curve(f, f, DOUBLING, 6)
        assert curve.decay_rate is None and curve.fit_points == 1


class TestMonteCarlo:
    def test_agrees_with_exact_on_cat(self):
        f = cosine((1, 0))
        g = cosine((1, 1))
        for n in (0, 1, 2):
            exact = exact_correlation(f, g, CAT, n)[n]
            mc = monte_carlo_correlation(f, g, CAT, n, samples=2000, seed=1)
            assert abs(mc.value - exact) <= 4 * mc.stderr + 1e-12

    def test_padic_mode_estimate(self):
        f = cosine((Fraction(1, 2),), primes=(2,))
        exact = exact_correlation(f, f, DOUBLING, 0)[0]
        assert exact == 0.5 + 0j
        mc = monte_carlo_correlation(f, f, DOUBLING, 0, samples=1500, seed=2)
        assert abs(mc.value - exact) <= 4 * mc.stderr

    def test_prime_mismatch(self):
        f = cosine((1,), primes=(2,))
        g = cosine((1,))
        with pytest.raises(ValueError):
            monte_carlo_correlation(f, g, DOUBLING, 1)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_fewer_than_two_samples_refused(self, samples):
        # one sample has no sample variance: its stderr read 0.0
        with pytest.raises(ValueError, match="samples >= 2"):
            monte_carlo_correlation(cosine((1,)), cosine((1,)), DOUBLING, 0,
                                    samples=samples)


class TestClt:
    def test_doubling_cosine_variance(self):
        rep = clt_check(cosine((1,)), DOUBLING, n=256, orbits=150, seed=11)
        assert rep.sigma2_ref == 0.5
        assert abs(rep.variance - 0.5) < 0.25
        assert abs(rep.mean) < 0.2
        edges, counts = rep.histogram
        assert sum(counts) == 150
        assert len(edges) == len(counts) + 1

    def test_coboundary_variance_collapses(self):
        f = TrigFunction.build([((1,), 0.5), ((-1,), 0.5),
                                ((2,), -0.5), ((-2,), -0.5)])
        rep = clt_check(f, DOUBLING, n=256, orbits=80, seed=4)
        assert rep.sigma2_ref == 0.0
        assert rep.variance < 0.05

    def test_solenoid_mode_orbit(self):
        f = cosine((Fraction(1, 2),), primes=(2,))
        rep = clt_check(f, DOUBLING, n=128, orbits=100, seed=6)
        assert rep.sigma2_ref == 0.5
        assert abs(rep.variance - 0.5) < 0.3

    def test_deep_mode_fibers_carry_its_digits(self):
        # 2^-40 needs 40 fiber digits at p = 2; with 32, every phase stays
        # below 2^-8, each Birkhoff sum is about n and the variance is 0
        f = cosine((Fraction(1, 2 ** 40),), primes=(2,))
        rep = clt_check(f, DOUBLING, n=64, orbits=200, seed=1)
        assert rep.sigma2_ref == 0.5
        assert abs(rep.variance - 0.5) < 0.25
        assert abs(rep.mean) < 0.2

    @pytest.mark.parametrize("n, orbits", [(0, 200), (16, 1)])
    def test_degenerate_arguments_refused(self, n, orbits):
        # n = 0 divided by zero and one orbit has no sample variance
        with pytest.raises(ValueError, match="n >= 1 and orbits >= 2"):
            clt_check(cosine((1,)), DOUBLING, n=n, orbits=orbits)


class TestCsv:
    def test_roundtrip_format(self):
        rows = [CorrelationRow(n=0, value=0.5 + 0j, method="exact"),
                CorrelationRow(n=1, value=0.01 - 0.002j, method="mc",
                               samples=1000, stderr=0.003)]
        buf = io.StringIO()
        correlation_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == ["n", "re(C)", "im(C)", "method",
                                       "samples", "stderr"]
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "exact"
        assert first[4] == "0" and float(first[5]) == 0.0
        second = lines[2].split(",")
        assert second[3] == "mc" and second[4] == "1000"
        assert float(second[1]) == pytest.approx(0.01)
