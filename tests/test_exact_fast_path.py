"""The exact integer fast path against sympy as an independent oracle.

Covers the Berkowitz charpoly over Z (with denominators cleared), the
fraction-free polynomial gcd, the one Gauss-Jordan kernel behind rank,
solve, kernel and inverse, the group elements of ActionSpec, and
the cyclotomic ergodicity test.  sympy is a test-only dependency.
"""

import math
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


# --- the canonical form: int rows over one denominator in lowest terms ------


values = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))


@st.composite
def spelt(draw, q):
    """q in one of the spellings QMat accepts: an int, a bool, a Fraction,
    a "p/q" string scaled by k (so 4/6 for 2/3), or an exact float."""
    kinds = ["fraction", "string"]
    if q.denominator == 1:
        kinds += ["int"] + (["bool"] if q in (0, 1) else [])
    if q.denominator & (q.denominator - 1) == 0:     # a power of 2
        kinds.append("float")
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1, 4))
    return {"fraction": q, "int": int(q), "bool": bool(q),
            "float": q.numerator / q.denominator,
            "string": f"{q.numerator * k}/{q.denominator * k}"}[kind]


def spell(draw, rows):
    return [[draw(spelt(q)) for q in r] for r in rows]


def value_rows(m, n, entries=values):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=m, max_size=m)


def oracle(rows):
    return sympy.Matrix([[sympy.Rational(q.numerator, q.denominator)
                          for q in r] for r in rows])


def assert_canonical(m, want):
    """m holds sympy's matrix want as int rows over one positive
    denominator with gcd 1 against every entry."""
    assert type(m._den) is int and m._den > 0
    assert all(type(x) is int for r in m._num for x in r)
    assert math.gcd(m._den, *(x for r in m._num for x in r)) == 1
    assert m.shape == want.shape
    assert m.rows == tuple(tuple(as_fractions(list(want.row(i))))
                           for i in range(want.rows))
    assert m.is_integer() == all(c.q == 1 for c in want)


@SETTINGS
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: value_rows(*mn)), st.booleans(), values, st.data())
def test_equal_exactly_when_equal_as_rationals(rows, same, q, data):
    other = [list(r) for r in rows]
    if not same:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        other[i][j] = q
    a = QMat(spell(data.draw, rows))
    b = QMat(spell(data.draw, other))
    assert_canonical(a, oracle(rows))
    assert (a == b) == (rows == other)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    value_rows(n, n), value_rows(n, n))), st.integers(-3, 3), st.data())
def test_results_stay_in_lowest_terms(pair, e, data):
    a_rows, b_rows = pair
    a, b = QMat(spell(data.draw, a_rows)), QMat(spell(data.draw, b_rows))
    sa, sb = oracle(a_rows), oracle(b_rows)
    assert_canonical(a @ b, sa * sb)
    assert_canonical(a - b, sa - sb)
    assert_canonical(a.transpose(), sa.T)
    if sa.det() == 0:
        with pytest.raises(RankDeficient):
            a.inverse()
        assume(e >= 0)
    else:
        assert_canonical(a.inverse(), sa.inv())
    assert_canonical(a.power(e), sa ** e)


def test_denominators_that_cancel():
    m = QMat([[0, Fraction(1, 2)], [2, 0]])
    for p in (m @ m, m.power(2), m.power(-2), m.inverse() @ m.inverse()):
        assert p.is_integer() and p.int_rows() == [[1, 0], [0, 1]]
    assert (m - m).int_rows() == [[0, 0], [0, 0]]
    assert QMat([[Fraction(1, 3), Fraction(2, 3)]]).scalar(3).int_rows() \
        == [[1, 2]]


@st.composite
def deficient(draw):
    """A rational m x n matrix, 1 <= m, n <= 5, of some rank r <= min(m, n)
    (a product of m x r and r x n factors, full in half the draws), then
    some rows zeroed."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.one_of(st.just(min(m, n)), st.integers(0, min(m, n))))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    left, right = draw(value_rows(m, r, small)), draw(value_rows(r, n, small))
    rows = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*right)] if right else [Fraction(0)] * n
            for row in left]
    zero = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return [[Fraction(0)] * n if i in zero else row
            for i, row in enumerate(rows)]


def primitive(v):
    """sympy's null-space vector as a primitive int tuple, first nonzero
    positive."""
    den = math.lcm(*(int(c.q) for c in v))
    ints = [int(c * den) for c in v]
    g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // g for x in ints)


@SETTINGS
@given(deficient(), st.integers(1, 3), st.booleans(), st.data())
def test_rank_kernel_and_solve_match_sympy(rows, k, consistent, data):
    m, s = QMat(spell(data.draw, rows)), oracle(rows)
    assert m.rank() == s.rank()
    assert m.kernel() == [primitive(v) for v in s.nullspace()]
    x_rows = data.draw(value_rows(m.shape[1], k))
    rhs = s * oracle(x_rows)
    if not consistent:
        rhs = rhs + oracle(data.draw(value_rows(*rhs.shape)))
    rhs_rows = [as_fractions(list(rhs.row(i))) for i in range(rhs.rows)]
    if s.row_join(rhs).rank() > s.rank():
        with pytest.raises(RankDeficient, match="inconsistent"):
            m.solve(QMat(rhs_rows))
    elif s.rank() < s.cols:
        with pytest.raises(RankDeficient, match="underdetermined"):
            m.solve(QMat(rhs_rows))
    else:
        sol, params = s.gauss_jordan_solve(rhs)
        assert not params
        assert_canonical(m.solve(QMat(rhs_rows)), sol)


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
