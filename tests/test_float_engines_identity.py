"""The array engines against the scalar code they replaced, bit for bit.

Monte Carlo evaluates characters from exact integer phase numerators, the
CLT check steps all its orbits at once on exact integer states, reuses the
characters of repeated modes and sums its steps in blocks, and the
conjugacy solver, its off-grid check and the Holder estimate interpolate on
arrays.  Each must reproduce the one-point-at-a-time code kept in
tests/helpers.py exactly: results are compared with == and by repr, which
also tells -0.0 from 0.0.  So must the exact correlation, which steps
integer mode numerators where it stepped Fractions.
"""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperrank.conjugacy import (ConjugacyField, holder_estimate,
                                 perturbed_map, solve_conjugacy,
                                 trig_perturbation, verify_conjugacy)
from hyperrank.errors import DegenerateField, NoConvergence, NotExpanding
from hyperrank import solenoid
from hyperrank.cli import main as cli_main
from hyperrank.exact import QMat
from hyperrank.solenoid import (_CLT_BLOCK, TrigFunction, _unit_phases,
                                clt_check, exact_correlation, haar_sample,
                                monte_carlo_correlation)

from helpers import (displacement, scalar_clt_check,
                     scalar_exact_correlation, scalar_haar_sample,
                     scalar_holder_estimate, scalar_monte_carlo_correlation,
                     scalar_q, scalar_solve_conjugacy, scalar_tau,
                     scalar_verify_conjugacy)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def outcome(fn, *args, **kwargs):
    """The result, or the class and arguments of what was raised."""
    try:
        return fn(*args, **kwargs)
    except (DegenerateField, NoConvergence) as exc:
        return type(exc), exc.args


def assert_identical(a, b):
    assert a == b
    assert repr(a) == repr(b)


# --- Monte Carlo ------------------------------------------------------------

coeffs = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def observables(dim, entries):
    term = st.tuples(st.lists(entries, min_size=dim, max_size=dim), coeffs)
    return st.lists(term, min_size=1, max_size=4)


def s_adic(max_exp):
    """Rationals with denominators 2^i 3^j, numerators of either sign."""
    return st.builds(lambda n, i, j: Fraction(n, 2 ** i * 3 ** j),
                     st.integers(-40, 40), st.integers(0, max_exp),
                     st.integers(0, max_exp))


def matrices(dim, low=-3, high=3):
    return st.lists(st.lists(st.integers(low, high), min_size=dim,
                             max_size=dim), min_size=dim, max_size=dim)


@pytest.mark.parametrize("dim, primes, prec", [
    (0, (), 32), (1, (), 32), (3, (2,), 40), (2, (3, 2), 32),
    (2, (5, 2, 5), 33), (1, (2 ** 70 + 25, 2), 32)])
def test_haar_sample(dim, primes, prec):
    # residues are drawn in the order the primes are given and stored
    # ascending in p; a repeated prime keeps its last draw
    pts = haar_sample(30, dim, primes, seed=dim, prec=prec)
    assert_identical(pts, scalar_haar_sample(30, dim, primes, seed=dim,
                                             prec=prec))
    # the columns are the integers of the same draws
    torus = [[x.numerator * 2 ** 32 // x.denominator for x in axis]
             for axis in zip(*(pt.x for pt in pts))]
    fibers = {p: [list(axis) for axis in
                  zip(*(pt.xi_at(p)[1] for pt in pts))]
              for p in sorted(set(primes))}
    assert_identical(haar_sample(30, dim, primes, seed=dim, prec=prec,
                                 columns=True), (torus, fibers))


def check_mc(terms_f, terms_g, primes, matrix, n, samples, seed):
    f = TrigFunction.build(terms_f, primes)
    g = TrigFunction.build(terms_g, primes)
    a = QMat(matrix)
    assert_identical(
        monte_carlo_correlation(f, g, a, n, samples=samples, seed=seed),
        scalar_monte_carlo_correlation(f, g, a, n, samples=samples,
                                       seed=seed))


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    observables(d, st.integers(-6, 6)), observables(d, st.integers(-6, 6)),
    matrices(d))), st.integers(0, 4), st.integers(2, 40),
    st.integers(0, 10 ** 6))
def test_monte_carlo_torus(obs, n, samples, seed):
    terms_f, terms_g, matrix = obs
    check_mc(terms_f, terms_g, (), matrix, n, samples, seed)


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    observables(d, s_adic(12)), observables(d, s_adic(12)),
    matrices(d, -6, 6))), st.integers(0, 3), st.integers(2, 30),
    st.integers(0, 10 ** 6))
def test_monte_carlo_s_adic(obs, n, samples, seed):
    # denominators up to 2^12 3^12 put D = 2^32 lcm below 2^53 some of the
    # time and above it the rest, on both sides of exact float64 division
    terms_f, terms_g, matrix = obs
    check_mc(terms_f, terms_g, (2, 3), matrix, n, samples, seed)


@SETTINGS
@given(observables(1, st.integers(-20, -1)), st.integers(0, 3),
       st.integers(2, 30), st.integers(0, 10 ** 6))
def test_monte_carlo_negative_modes(terms, n, samples, seed):
    check_mc(terms, terms, (), [[-3]], n, samples, seed)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_monte_carlo_deep_mode(n):
    # 2^-40 needs D = 2^72, beyond exact float64 division
    deep = Fraction(1, 2 ** 40)
    terms = [((deep,), 0.5), ((-deep,), 0.5), ((Fraction(3, 8),), 0.25j)]
    check_mc(terms, terms, (2,), [[2]], n, 50, 7)


@pytest.mark.parametrize("n", [0, 1])
def test_monte_carlo_wrapping_boundary(n):
    # denominator 2^32 puts D at 2^64, the last modulus summed in wrapping
    # uint64 with the 2-adic fibre; 2^33 puts it at 2^65, summed in exact
    # ints; lag 1 keeps modes of both denominators
    terms = [((Fraction(1, 2 ** 32), 5), 0.5), ((Fraction(-3, 2 ** 32), 1),
                                               0.25 - 0.5j),
             ((Fraction(7, 2 ** 33), -2), 0.75j), ((Fraction(-1, 2 ** 33),
                                                    Fraction(1, 2)), -0.3)]
    check_mc(terms, terms, (2,), [[2, 1], [1, 3]], n, 60, 21)


def test_monte_carlo_wrapping_huge_modes():
    # at lag 60 the pushed-forward modes of the cat map have entries beyond
    # 2^64, of both signs; the wrapping sums reduce them mod 2^64 first
    a = QMat([[2, 1], [1, 1]])
    terms = [((1, -2), 0.5 + 0.25j), ((-3, 1), 0.5), ((0, 1), -0.125j)]
    f = TrigFunction.build(terms)
    modes = [m for m, _ in f.pushforward(a.power(60)).terms]
    assert max(abs(c) for m in modes for c in m) > 2 ** 64
    assert min(c for m in modes for c in m) < 0
    check_mc(terms, terms, (), [[2, 1], [1, 1]], 60, 50, 13)


def test_monte_carlo_shared_draws():
    # f's 2^-40 mode pushed forward n times by 2 needs 40 - n fibre digits,
    # so lags 0..10 draw at precisions 40 down to 32; one dict also serves
    # other sample counts and seeds
    deep = Fraction(1, 2 ** 40)
    f = TrigFunction.build([((deep,), 0.5), ((-deep,), 0.5),
                            ((Fraction(3, 8),), 0.25j)], (2,))
    g = TrigFunction.build([((1,), 0.5 - 0.5j), ((-3,), 0.75)], (2,))
    a = QMat([[2]])
    draws = {}
    for samples, seed in [(40, 11), (30, 11), (40, 12)]:
        for n in range(11):
            assert_identical(
                monte_carlo_correlation(f, g, a, n, samples=samples,
                                        seed=seed, draws=draws),
                scalar_monte_carlo_correlation(f, g, a, n, samples=samples,
                                               seed=seed))
    assert len(draws) == 27


def test_monte_carlo_evaluates_g_once_per_point_set(monkeypatch, tmp_path,
                                                     capsys):
    # the fixture has one fibre precision, so one point set: g is evaluated
    # on it once, and f pushed forward once per lag, 8 lags in all (16
    # calls when g was evaluated again at every lag)
    calls = []
    evaluate = solenoid._evaluate

    def counted(fn, *args):
        calls.append(fn)
        return evaluate(fn, *args)

    monkeypatch.setattr(solenoid, "_evaluate", counted)
    code = cli_main(["mixing", str(FIXTURES / "doubling_mixing.json"),
                     "--mc", "10000", "--out", str(tmp_path / "c.csv"),
                     "--summary", str(tmp_path / "s.json")])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 9


def test_monte_carlo_wide_fibers():
    # 5^32 fiber residues exceed 64 bits; only their low digits are used
    terms = [((Fraction(1, 25), Fraction(2, 5)), 1.0),
             ((Fraction(-3, 625), 1), 0.5 - 0.5j)]
    check_mc(terms, terms, (5,), [[5, 1], [0, 5]], 1, 40, 3)


def test_monte_carlo_prime_beyond_exact_floats():
    # p = 2^70 + 25: its fiber residues exceed 64 bits
    p = 2 ** 70 + 25
    terms = [((Fraction(1, p), 3), 1.0), ((Fraction(5, 2), -1), 0.5j)]
    check_mc(terms, terms, (2, p), [[2, 0], [1, 1]], 1, 30, 8)


def test_monte_carlo_empty_observable():
    # f with no terms lives on the 0-dimensional torus; g's characters all
    # evaluate to 1 there
    check_mc([((1, 0), 0.0)], [((1, 2), 1.0), ((0, 1), -1.0)], (),
             [[2, 1], [1, 1]], 1, 20, 5)


# --- phase rounding ---------------------------------------------------------


def dyadic_cases(b, rng):
    """Numerators N whose N mod 2^b / 2^b is hard to round: exact ties and
    their neighbours, ties in the top 1000 bits only, values below
    2^(b - 64) and at the ends, each also shifted by multiples of 2^b."""
    q = 1 << b
    rs = [0, 1, 2, q - 1, q - 2, q >> 1, (q >> 1) - 1, (q >> 1) + 1]
    for e in sorted({54, 60, 64, 118, 119, 120, b - 64, b - 1, b}):
        if not 54 <= e <= b:
            continue
        for _ in range(3):
            mant = rng.getrandbits(52) | 1 << 52
            tie = mant << (e - 53) | 1 << (e - 54)
            rs += [tie - 1, tie, tie + 1, mant << (e - 53)]
        rs.append(rng.getrandbits(e - 64) if e > 64 else 1)
    if b > 1000:
        shift = b - 1000
        for e in (118, 119, 200, 1000):
            mant = rng.getrandbits(52) | 1 << 52
            t = mant << (e - 53) | 1 << (e - 54)
            rs += [t << shift, (t << shift) + 1, ((t + 1) << shift) - 1,
                   (1 << 117) << shift, ((1 << 118) << shift) - 1]
    rs += [rng.randrange(q) for _ in range(20)]
    return [r + k * q for r in rs for k in (0, 1, -1, -3)]


def forms(nums, q):
    """nums as _unit_phases takes them: a list and an object array of the
    ints, and for q = 2^b with b <= 64 a uint64 array of them mod 2^64,
    the wrapping path's numerators."""
    out = [nums, np.array(nums, dtype=object)]
    if q <= 2 ** 64 and not q & (q - 1):
        out.append(np.array([v % 2 ** 64 for v in nums], dtype=np.uint64))
    return out


@pytest.mark.parametrize("b", [32, 53, 63, 64, 65, 256, 999, 1000, 1001,
                               1064, 1100, 4160])
def test_unit_phases_dyadic(b):
    q = 1 << b
    nums = dyadic_cases(b, random.Random(b))
    want = [repr(v % q / q) for v in nums]
    for form in forms(nums, q):
        assert [repr(x) for x in _unit_phases(form, q).tolist()] == want


@pytest.mark.parametrize("q", [3, 6 << 32, 12 << 1100, 2 ** 70 + 25])
def test_unit_phases_other_moduli(q):
    rng = random.Random(q)
    nums = [rng.randrange(-3 * q, 3 * q) for _ in range(200)] + [0, q, -q]
    for form in forms(nums, q):
        assert _unit_phases(form, q).tolist() == [v % q / q for v in nums]


# --- central limit diagnostics ----------------------------------------------


def check_clt(f, matrix, n, orbits, seed):
    a = QMat(matrix)
    assert_identical(clt_check(f, a, n=n, orbits=orbits, seed=seed),
                     scalar_clt_check(f, a, n=n, orbits=orbits, seed=seed))


def lacunary(count, s):
    return TrigFunction.build(
        [((sign * 2 ** k,), s * 2.0 ** -k / 2) for k in range(count)
         for sign in (1, -1)])


@pytest.mark.parametrize("count, s, seed", [(6, 0.75, 3), (9, 1.3, 41)])
def test_clt_lacunary(count, s, seed):
    check_clt(lacunary(count, s), [[2]], 96, 24, seed)


def test_clt_hyperbolic_2d():
    f = TrigFunction.build([((1, 0), 0.5 + 0.1j), ((-1, 0), 0.5 - 0.1j),
                            ((2, -1), 0.25j), ((0, 0), 0.3)])
    check_clt(f, [[2, 1], [1, 1]], 60, 20, 7)


def test_clt_s_adic():
    f = TrigFunction.build(
        [((Fraction(1, 2), Fraction(1, 3)), 0.5),
         ((Fraction(-1, 2), Fraction(-1, 3)), 0.5),
         ((Fraction(-5, 36), 2), 0.2j), ((Fraction(1, 8), 1), -0.3)],
        (2, 3))
    check_clt(f, [[6, 1], [0, -6]], 40, 15, 9)


@pytest.mark.parametrize("matrix, n", [([[2]], 1000), ([[-3]], 480),
                                       ([[2, 1], [1, 1]], 520)])
def test_clt_beyond_top_bits(matrix, n):
    # the orbit grid 2^-bits with bits = n log2(growth) + 64 > 1000
    f = TrigFunction.build([((1,) * len(matrix), 0.5),
                            ((-1,) * len(matrix), 0.5),
                            ((2,) + (0,) * (len(matrix) - 1), 0.1j)])
    check_clt(f, matrix, n, 6, 2)


def test_clt_deep_s_adic_mode():
    f = TrigFunction.build([((Fraction(1, 2 ** 40),), 0.5),
                            ((Fraction(-1, 2 ** 40),), 0.5)], (2,))
    check_clt(f, [[2]], 64, 30, 1)


def test_clt_empty_observable():
    check_clt(TrigFunction.build([], (2,)), [[2, 1], [1, 1]], 30, 7, 1)


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    observables(d, s_adic(6)), matrices(d))),
    st.integers(1, 2 * _CLT_BLOCK + 3), st.integers(2, 8),
    st.integers(0, 10 ** 6))
def test_clt_random(obs, n, orbits, seed):
    terms, matrix = obs
    check_clt(TrigFunction.build(terms, (2, 3)), matrix, n, orbits, seed)


@pytest.mark.parametrize("n", [1, _CLT_BLOCK - 1, _CLT_BLOCK, _CLT_BLOCK + 1,
                               3 * _CLT_BLOCK + 1])
def test_clt_block_edges(n):
    # a last block that is whole, short by one, one step long or the only one
    f = TrigFunction.build([((1,), 0.5), ((-1,), 0.5), ((3,), 0.2 - 0.1j),
                            ((Fraction(1, 4),), 0.3j)], (2,))
    check_clt(f, [[2]], n, 9, n)


def test_clt_lacunary_across_blocks():
    # under doubling the key of 2^k at one step is the key of 2^(k+1) at the
    # step before, so ten of the twelve characters are reused every step
    check_clt(lacunary(6, 0.75), [[2]], 3 * _CLT_BLOCK + 5, 12, 5)


def test_clt_keys_repeat_in_two_dimensions():
    # A^T (1, 0) = (3, 2) and A^T (3, 2) = (11, 8): the key of (1, 0) at
    # each step is the key (3, 2) had at the step before, and that of
    # (3, 2) the one (11, 8) had, negatives likewise; A (1, 0) = (3, 1) is
    # a mode too, which keys stepped by A instead of A^T would confuse
    # with the next step's (1, 0)
    modes = [(1, 0), (3, 2), (11, 8)]
    f = TrigFunction.build(
        [(m, 0.4 / (i + 1) + 0.1j * i) for i, m in enumerate(modes)]
        + [(tuple(-c for c in m), 0.4 / (i + 1)) for i, m in
           enumerate(modes)] + [((3, 1), 0.3), ((0, 1), -0.25j)])
    check_clt(f, [[3, 2], [1, 1]], 2 * _CLT_BLOCK + 3, 10, 4)


def test_clt_modes_equal_mod_the_grid():
    # under doubling the grid is 2^-(n + 64), so 1 and 1 + 2^(n + 64) have
    # equal keys at every step and share one character per step
    n = _CLT_BLOCK + 2
    big = 1 + 2 ** (n + 64)
    f = TrigFunction.build([((1,), 0.5), ((big,), 0.25 - 0.5j),
                            ((-1,), 0.5), ((-big,), 0.125)])
    check_clt(f, [[2]], n, 11, 6)


def test_clt_s_adic_integer_and_fractional_modes():
    # integer modes and modes with denominators 2 and 3 are keyed and
    # reused alike, the latter read their fibre parts
    f = TrigFunction.build(
        [((1, 0), 0.5), ((-1, 0), 0.5), ((6, 1), 0.2j), ((36, 0), -0.1),
         ((Fraction(1, 2), 1), 0.3), ((Fraction(-1, 3), Fraction(1, 9)),
                                     0.25 - 0.25j)], (2, 3))
    check_clt(f, [[6, 1], [0, -6]], 2 * _CLT_BLOCK + 1, 8, 10)


def count_unit_phases(monkeypatch):
    """The moduli of every solenoid._unit_phases call from now on."""
    calls = []
    unit_phases = solenoid._unit_phases

    def counted(nums, q):
        calls.append(q)
        return unit_phases(nums, q)

    monkeypatch.setattr(solenoid, "_unit_phases", counted)
    return calls


def test_clt_computes_each_repeated_character_once(monkeypatch):
    # six cosine terms at the benchmark's size: twelve characters at the
    # first step, then the two new ones per step, 12 + 2 * 191 = 394
    # phase evaluations where each character every step took 12 * 192
    calls = count_unit_phases(monkeypatch)
    clt_check(lacunary(6, 0.75), QMat([[2]]), n=192, orbits=160, seed=3)
    assert len(calls) == 12 + 2 * 191


def test_clt_computes_each_repeated_fractional_character_once(monkeypatch):
    # the same six cosines with every mode divided by 3: the keys (D, K)
    # of modes with denominators repeat as those of integer modes do,
    # where computing each character every step took 12 * 192
    calls = count_unit_phases(monkeypatch)
    f = TrigFunction.build([(tuple(c / 3 for c in m), coeff)
                            for m, coeff in lacunary(6, 0.75).terms], (3,))
    clt_check(f, QMat([[2]]), n=192, orbits=160, seed=3)
    assert len(calls) == 12 + 2 * 191


# --- exact correlation ------------------------------------------------------


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    observables(d, s_adic(4)), observables(d, s_adic(4)),
    st.lists(st.tuples(st.just((0,) * d), coeffs), max_size=1),
    matrices(d, -6, 6))), st.booleans(), st.integers(0, 12))
def test_exact_correlation_s_adic(obs, share, n_max):
    # g with and without a mean term, and with or without the conjugates of
    # the modes of f, so that lag 0 has terms; modes with denominators
    # 2^i 3^j and matrices that bring them back to the integers
    terms_f, terms_g, mean, matrix = obs
    f = TrigFunction.build(terms_f, (2, 3))
    if share:
        terms_g = terms_g + list(f.conjugate().terms)
    g = TrigFunction.build(terms_g + mean, (2, 3))
    a = QMat(matrix)
    assert_identical(exact_correlation(f, g, a, n_max),
                     scalar_exact_correlation(f, g, a, n_max))


@pytest.mark.parametrize("matrix, n_max", [([[2]], 40), ([[-3]], 20),
                                           ([[2, 1], [1, 1]], 30)])
def test_exact_correlation_lacunary(matrix, n_max):
    # g = f conjugated, or pulled back along a, so that terms meet at lags
    dim = len(matrix)
    f = TrigFunction.build(
        [((2 ** k,) + (0,) * (dim - 1), 0.5 ** k + 0.1j) for k in range(6)]
        + [((-2 ** k,) + (0,) * (dim - 1), 0.5 ** k) for k in range(6)]
        + [((0,) * dim, 0.75)])
    a = QMat(matrix)
    for g in (f.conjugate(), f.pushforward(a.power(3))):
        assert_identical(exact_correlation(f, g, a, n_max),
                         scalar_exact_correlation(f, g, a, n_max))


# --- conjugacy --------------------------------------------------------------

EXPANDING = {1: [[[2]], [[3]], [[-2]], [[4]]],
             2: [[[2, 1], [0, 2]], [[3, 1], [1, 2]], [[2, 0], [0, 3]],
                 [[-2, 1], [1, 2]]]}


def perturbations(dim, scale):
    term = st.tuples(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
        st.lists(st.builds(complex, st.floats(-scale, scale),
                           st.floats(-scale, scale)),
                 min_size=dim, max_size=dim))
    return st.lists(term, max_size=2)


def maps(dim, scale):
    return st.tuples(st.sampled_from(EXPANDING[dim]),
                     perturbations(dim, scale)).map(
        lambda mt: perturbed_map(mt[0], trig_perturbation(dim, mt[1])))


def check_conjugacy(pmap, grid, seed):
    try:
        pmap.check_expanding()
    except NotExpanding:
        assume(False)
    field = outcome(solve_conjugacy, pmap, grid, tol=1e-9)
    assert_identical(field, outcome(scalar_solve_conjugacy, pmap, grid,
                                    tol=1e-9))
    if not isinstance(field, ConjugacyField):
        return
    assert_identical(verify_conjugacy(pmap, field, samples=300, seed=seed),
                     scalar_verify_conjugacy(pmap, field, samples=300,
                                             seed=seed))
    assert_identical(outcome(holder_estimate, field, pairs=200, seed=seed),
                     outcome(scalar_holder_estimate, field, pairs=200,
                             seed=seed))


@SETTINGS
@given(maps(1, 0.03), st.integers(2, 96), st.integers(0, 10 ** 6))
def test_conjugacy_one_dim(pmap, grid, seed):
    check_conjugacy(pmap, grid, seed)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(maps(2, 0.004), st.integers(2, 10), st.integers(0, 10 ** 6))
def test_conjugacy_two_dim(pmap, grid, seed):
    check_conjugacy(pmap, grid, seed)


@pytest.mark.parametrize("matrix, shift", [
    ([[2]], (0.05,)), ([[3, 1], [1, 2]], (0.03, -0.01)),
    ([[2, 0], [0, 3]], (0.0, 0.02))])
def test_conjugacy_constant_perturbation(matrix, shift):
    # tau lands on grid points, so many interpolation weights are 0.0
    dim = len(matrix)
    q = trig_perturbation(dim, [((0,) * dim, shift)])
    check_conjugacy(perturbed_map(matrix, q), 8, 3)


def test_no_convergence_history():
    pmap = perturbed_map([[2]], trig_perturbation(1, [((1,), (-0.1j,))]))
    got = outcome(solve_conjugacy, pmap, 64, tol=1e-12, budget=5)
    assert got[0] is NoConvergence
    assert_identical(got, outcome(scalar_solve_conjugacy, pmap, 64,
                                  tol=1e-12, budget=5))


def test_point_methods_match_scalar():
    pmap = perturbed_map([[2, 1], [0, 2]], trig_perturbation(
        2, [((1, -1), (0.01 + 0.02j, -0.01j)), ((0, 2), (0.005, 0.01))]))
    # the array forms, read one column per point anywhere on R^2, round
    # as the scalar formulas do
    field = solve_conjugacy(pmap, 16)
    rng = random.Random(2)
    pts = [(rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 2.5))
           for _ in range(200)]
    xs = np.array(pts).T
    for x, h, t, q in zip(pts, field.displacement_at(xs).T.tolist(),
                          pmap.tau_at(xs).T.tolist(),
                          pmap.q.at(xs).T.tolist()):
        assert repr(tuple(h)) == repr(displacement(field, x))
        assert repr(tuple(t)) == repr(scalar_tau(pmap, x))
        assert repr(tuple(q)) == repr(scalar_q(pmap.q, x))
    assert field.displacement_at(np.zeros((2, 1)))[:, 0].tolist() == [
        field.values[j][0] for j in range(2)]
