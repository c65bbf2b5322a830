"""The shared integer-matrix kernels of exact/intmat.py against sympy.

QMat's product and power, the polynomial at a matrix (mat_poly_mod) and the
restriction to a lattice (restrict_rows), exact over Z and mod q, are
checked against sympy's exact matrices as an independent oracle.  The
restriction runs on both kinds of basis it serves: HNF rows over Z, and the
pivot-identity columns that the p-adic refinement saturates mod p^W.  Last,
a restriction that fails at the starting precision must send the p-adic
refinement to a retry that ends with the same functionals.  sympy is a
test-only dependency.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperrank import spectra
from hyperrank.errors import PrecisionExhausted, RankDeficient
from hyperrank.exact import QMat, hnf_rows
from hyperrank.exact.intmat import mat_poly_mod, restrict_rows
from hyperrank.spectra import ActionSpec, _padic_functionals

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(-4, 4)
# denominators 1..6 mix within one matrix, so the lcm scaling is exercised
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def matrix(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def sym(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(c).numerator,
                                         Fraction(c).denominator)
                          for c in r] for r in rows])


def as_qmat(s):
    return QMat([[Fraction(int(c.p), int(c.q)) for c in s.row(i)]
                 for i in range(s.rows)])


def hnf_pivots(basis):
    return [next(j for j, x in enumerate(b) if x) for b in basis]


# --- QMat product and power -------------------------------------------------


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
       .flatmap(lambda mkn: st.tuples(matrix(rationals, mkn[0], mkn[1]),
                                      matrix(rationals, mkn[1], mkn[2]))))
def test_matmul_matches_sympy(ab):
    a, b = ab
    assert QMat(a) @ QMat(b) == as_qmat(sym(a) * sym(b))


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: matrix(rationals, n, n)),
       st.integers(-4, 9))
def test_power_matches_sympy(rows, e):
    s = sym(rows)
    assume(e >= 0 or s.det() != 0)
    assert QMat(rows).power(e) == as_qmat(s ** e)


# --- a polynomial at a matrix -----------------------------------------------


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: matrix(small_ints, n, n)),
       st.lists(st.integers(-20, 20), min_size=1, max_size=7),
       st.sampled_from([None, 2, 9, 2 ** 10, 7 ** 5]))
def test_mat_poly_mod_matches_sympy(rows, coeffs, q):
    s = sym(rows)
    want = sympy.zeros(len(rows))
    for k, c in enumerate(coeffs):
        want += c * s ** k
    want = [[int(x) if q is None else int(x) % q for x in want.row(i)]
            for i in range(len(rows))]
    assert mat_poly_mod(coeffs, rows, q) == want


# --- restriction to a lattice -----------------------------------------------


@st.composite
def invariant_lattices(draw):
    """(m, basis rows, r): m = P T P^-1 with P unimodular and T block upper
    triangular, so the first r columns of P span an m-invariant lattice."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    p = sympy.eye(n)
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=8)):
        if i != j:
            p[i, :] += c * p[j, :]
    t = sym(draw(matrix(small_ints, n, n)))
    t[r:, :r] = sympy.zeros(n - r, r)
    m = p * t * p.inv()
    basis = [[int(x) for x in p.col(j)] for j in range(r)]
    return [[int(x) for x in m.row(i)] for i in range(n)], basis, r


def expected_restriction(basis, m):
    """sympy's X with m B^T = B^T X, or None when there is none."""
    bt = sym(basis).T
    rhs = sym(m) * bt
    x = (bt.T * bt).inv() * bt.T * rhs
    return x if bt * x == rhs else None


@SETTINGS
@given(invariant_lattices(), st.lists(st.integers(1, 3), min_size=5,
                                      max_size=5))
def test_restrict_rows_on_hnf_bases_matches_sympy(data, scales):
    m, basis, r = data
    # the invariant lattice itself, then a sublattice that may not be
    hnf = [list(b) for b in hnf_rows(basis)]
    sub = [list(b) for b in hnf_rows([[s * x for x in b]
                                      for s, b in zip(scales, basis)])]
    for rows in (hnf, sub):
        want = expected_restriction(rows, m)
        assert want is not None
        if all(x.is_integer for x in want):
            got = restrict_rows(rows, hnf_pivots(rows), m)
            assert got == [[int(x) for x in want.row(i)] for i in range(r)]
        else:
            with pytest.raises(RankDeficient, match="non-integer"):
                restrict_rows(rows, hnf_pivots(rows), m)


@SETTINGS
@given(st.integers(2, 4).flatmap(lambda n: matrix(small_ints, n, n)),
       st.integers(0, 3))
def test_restrict_rows_to_a_coordinate_line(rows, axis):
    # a coordinate line is invariant exactly when its column of m is a
    # multiple of the unit vector; otherwise there is no restriction
    n = len(rows)
    axis %= n
    basis = [[int(i == axis) for i in range(n)]]
    if expected_restriction(basis, rows) is None:
        with pytest.raises(RankDeficient, match="inconsistent"):
            restrict_rows(basis, [axis], rows)
    else:
        assert restrict_rows(basis, [axis], rows) == [[rows[axis][axis]]]


@SETTINGS
@given(invariant_lattices(), st.sampled_from([2, 3, 5]),
       st.lists(st.integers(-6, 6), min_size=25, max_size=25))
def test_restrict_rows_on_pivot_identity_bases_mod_q(data, p, mix):
    # the columns are combinations of the invariant lattice's basis, as the
    # projector's columns are in the p-adic refinement
    m, basis, r = data
    n, W = len(m), 12
    cols = [[sum(mix[(k * r + j) % 25] * b[i] for j, b in enumerate(basis))
             for i in range(n)] for k in range(n)]
    try:
        piv_basis, pivots, wn = spectra._saturate_columns(cols, p, W,
                                                          expect_dim=r)
    except PrecisionExhausted:
        assume(False)
    q = p ** wn
    x = restrict_rows(piv_basis, pivots, m, q)
    bt = sym(piv_basis).T
    diff = sym(m) * bt - bt * sym(x)
    assert all(int(c) % q == 0 for c in diff)
    assert all(0 <= c < q for row in x for c in row)


# --- the p-adic retry -------------------------------------------------------


def test_failed_restriction_retries_at_doubled_precision(monkeypatch):
    # (x - 1)(x - 2) and a unit: at p = 2 the generator splits by slope, and
    # every block is restricted through restrict_rows
    action = ActionSpec([[[0, -2, 0], [1, 3, 0], [0, 0, 1]],
                         [[1, 0, 0], [0, 1, 0], [0, 0, -1]]])
    base = 8
    want = _padic_functionals(action, 2, base)
    seen = []
    real = spectra.restrict_rows

    def fail_at_base(basis, pivots, m, q=None):
        seen.append(q)
        if q <= 2 ** base:
            raise RankDeficient("inconsistent system")
        return real(basis, pivots, m, q)

    monkeypatch.setattr(spectra, "restrict_rows", fail_at_base)
    assert _padic_functionals(action, 2, base) == want
    assert min(seen) <= 2 ** base < max(seen)


def test_restriction_failing_at_every_precision_is_reported(monkeypatch):
    # the first generator splits at p = 2, so its blocks are restricted; a
    # rank-1 action restricts nothing, as its last generator only counts
    # slopes
    action = ActionSpec([[[0, -2, 0], [1, 3, 0], [0, 0, 1]],
                         [[1, 0, 0], [0, 1, 0], [0, 0, -1]]])

    def always_fail(basis, pivots, m, q=None):
        raise RankDeficient("inconsistent system")

    monkeypatch.setattr(spectra, "restrict_rows", always_fail)
    with pytest.raises(PrecisionExhausted,
                       match="p = 2: still failing at .* digits: restricted "
                             "image leaves the subspace at working "
                             "precision"):
        _padic_functionals(action, 2, 8)
