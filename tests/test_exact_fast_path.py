"""The exact integer fast path against sympy as an independent oracle.

Covers the Berkowitz charpoly over Z (with denominators cleared), the
fraction-free polynomial gcd, the one Gauss-Jordan kernel behind rank,
solve, kernel and inverse, the group elements of ActionSpec, and
the cyclotomic ergodicity test.  sympy is a test-only dependency.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperrank.ergodicity import is_ergodic
from hyperrank.errors import BothZero, RankDeficient
from hyperrank.exact import QMat, modp, poly_gcd
from hyperrank.spectra import ActionSpec

X = sympy.Symbol("x")
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(min_value=-5, max_value=5)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def square(entries, max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def sym(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in r] for r in QMat(rows).rows])


def as_fractions(expr_list):
    return [Fraction(int(c.p), int(c.q)) for c in expr_list]


def coeffs_of(sym_poly):
    """Ascending coefficient tuple of a sympy Poly, trimmed."""
    return tuple(modp.trim(list(reversed(as_fractions(
        sym_poly.all_coeffs())))))


# --- charpoly ---------------------------------------------------------------


@SETTINGS
@given(square(small_ints))
def test_charpoly_integer_matrices_match_sympy(rows):
    cp = QMat(rows).charpoly()
    assert cp == coeffs_of(sym(rows).charpoly(X))
    assert type(cp) is tuple and all(type(c) is int for c in cp)


@SETTINGS
@given(square(rationals))
def test_charpoly_rational_matrices_match_sympy(rows):
    cp = QMat(rows).charpoly()
    assert type(cp) is tuple and cp == coeffs_of(sym(rows).charpoly(X))


@SETTINGS
@given(square(rationals, max_dim=5))
def test_det_is_the_charpoly_constant_term(rows):
    want = sym(rows).det()
    assert QMat(rows).det() == Fraction(int(want.p), int(want.q))


# --- one elimination kernel -------------------------------------------------


def rect(entries, max_dim=5):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda mn: st.lists(st.lists(entries, min_size=mn[1],
                                     max_size=mn[1]),
                            min_size=mn[0], max_size=mn[0]))


@SETTINGS
@given(rect(st.integers(-2, 2)))
def test_rank_and_kernel_match_sympy(rows):
    m, s = QMat(rows), sym(rows)
    assert m.rank() == s.rank()
    kern = m.kernel()
    assert len(kern) == len(s.nullspace())
    for v in kern:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in m.rows)


@SETTINGS
@given(square(rationals, max_dim=5), st.integers(1, 3), st.data())
def test_inverse_and_solve_match_sympy(rows, k, data):
    m, s = QMat(rows), sym(rows)
    if s.det() == 0:
        with pytest.raises(RankDeficient):
            m.inverse()
        return
    assert m.inverse() == QMat([as_fractions(list(s.inv().row(i)))
                                for i in range(s.rows)])
    rhs = data.draw(st.lists(st.lists(rationals, min_size=k, max_size=k),
                             min_size=len(rows), max_size=len(rows)))
    sol = m.solve(QMat(rhs))
    assert m @ sol == QMat(rhs)


def test_solve_reports_inconsistent_and_underdetermined():
    with pytest.raises(RankDeficient, match="inconsistent"):
        QMat([[1, 1], [1, 1]]).solve(QMat([[1], [2]]))
    with pytest.raises(RankDeficient, match="underdetermined"):
        QMat([[1, 1], [2, 2]]).solve(QMat([[1], [2]]))


# --- fraction-free gcd ------------------------------------------------------


polys = st.lists(rationals, min_size=0, max_size=6).map(
    lambda cs: tuple(modp.trim(cs)))


def sym_poly(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f)] or [0], X, domain="QQ")


@SETTINGS
@given(polys, polys, polys)
def test_poly_gcd_matches_sympy(h, u, v):
    f, g = tuple(modp.mul(h, u, None)), tuple(modp.mul(h, v, None))
    if not f and not g:
        with pytest.raises(BothZero):
            poly_gcd(f, g)
        return
    want = coeffs_of(sym_poly(f).gcd(sym_poly(g)).monic())
    got = poly_gcd(f, g)
    assert type(got) is tuple and got == want
    assert got[-1] == 1
    assert poly_gcd(g, f) == got


def test_poly_gcd_zero_cases():
    f = (Fraction(3, 2), 0, 3)
    assert poly_gcd(f, ()) == (Fraction(1, 2), 0, 1)
    assert poly_gcd((), f) == (Fraction(1, 2), 0, 1)
    assert poly_gcd((7,), f) == (1,)
    with pytest.raises(BothZero):
        poly_gcd((), ())


# --- group elements ---------------------------------------------------------


@st.composite
def commuting_pairs(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    cm = QMat(c)
    assume(cm.det() != 0)
    j, k = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    b = cm @ cm + cm.scalar(j) + QMat.identity(n).scalar(k)
    assume(b.det() != 0)
    return cm, b


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(commuting_pairs(),
       st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                min_size=1, max_size=12))
def test_element_matches_product_of_powers(pair, vecs):
    action = ActionSpec(pair)
    for a in vecs:
        want = QMat.identity(action.dim)
        for g, e in zip(pair, a):
            want = want @ g.power(e)
        assert action.element(a) == want


# --- ergodicity --------------------------------------------------------------


def sympy_period(rows):
    cp = sym(rows).charpoly(X).as_expr()
    d = len(rows)
    for m in range(1, 2 * d * d + 2):
        if sympy.totient(m) <= d and sympy.rem(cp, sympy.cyclotomic_poly(m, X),
                                               X) == 0:
            return m
    return None


@SETTINGS
@given(square(st.integers(-2, 2), max_dim=4))
def test_is_ergodic_matches_sympy_cyclotomic_divisibility(rows):
    m = QMat(rows)
    if m.det() == 0:
        with pytest.raises(RankDeficient):
            is_ergodic(m)
        return
    cert = is_ergodic(m)
    period = sympy_period(rows)
    assert cert.ergodic == (period is None)
    if period is not None:
        assert cert.period == period
        z = sympy.Matrix(cert.witness)
        assert any(cert.witness)
        assert (sym(rows).T ** period) * z == z
