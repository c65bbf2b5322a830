"""Properties of the integer-lattice and factorization routines, with sympy
as a test-only oracle.

hnf_rows must return the canonical Hermite basis of the input's row lattice,
kernel_lattice of the rational kernel the saturated lattice (rational row
span intersected with Z^n), factor_over_q the same irreducible factors as
sympy, and factor_int primes that multiply back to its input.  Two integer
lattices of the same rank with one inside the other are equal exactly when
the gcds of their maximal minors agree; a lattice is saturated exactly when
that gcd is 1.
"""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperrank.errors import FactorSearchInconclusive
from hyperrank.exact import QMat, factor_int, hnf_rows, modp
from hyperrank.exact.intmat import kernel_lattice
from hyperrank.exact.factorq import factor_over_q

X = sympy.Symbol("x")
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def rect(entries, max_rows=5, max_cols=5):
    return st.tuples(st.integers(1, max_rows),
                     st.integers(1, max_cols)).flatmap(
        lambda mn: st.lists(st.lists(entries, min_size=mn[1],
                                     max_size=mn[1]),
                            min_size=mn[0], max_size=mn[0]))


def rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


def minor_gcd(rows, r):
    """gcd of the r x r minors of an integer matrix (0 when r exceeds its
    rank)."""
    g = 0
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(len(rows[0])), r):
            g = math.gcd(g, int(sympy.Matrix(
                [[rows[i][j] for j in ci] for i in ri]).det()))
    return g


def in_echelon_lattice(basis, v):
    """Is the integer vector v an integer combination of the echelon rows?"""
    v = list(v)
    for row in basis:
        col = next(j for j, x in enumerate(row) if x != 0)
        if v[col] % row[col]:
            return False
        c = v[col] // row[col]
        v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


# --- hnf_rows ---------------------------------------------------------------


@SETTINGS
@given(rect(st.integers(-9, 9)))
def test_hnf_rows_is_hermite_form(rows):
    h = hnf_rows(rows)
    pivots = [next((j for j, x in enumerate(row) if x != 0), None)
              for row in h]
    assert None not in pivots                  # zero rows dropped
    assert pivots == sorted(set(pivots))       # echelon form
    for i, (row, col) in enumerate(zip(h, pivots)):
        assert row[col] > 0
        for above in h[:i]:
            assert 0 <= above[col] < row[col]


@SETTINGS
@given(rect(st.integers(-9, 9)))
def test_hnf_rows_spans_the_input_lattice(rows):
    h = [list(row) for row in hnf_rows(rows)]
    r = rank(rows)
    assert len(h) == r
    assert all(in_echelon_lattice(h, v) for v in rows)
    if r:
        assert minor_gcd(h, r) == minor_gcd(rows, r)


# --- kernel_lattice of the kernel: the saturated row lattice ---------------


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@SETTINGS
@given(rect(rationals, max_rows=4))
def test_saturate_rows_is_saturated_and_spans_the_input(rows):
    r = rank(rows)
    assume(r > 0)
    v = QMat(rows)
    sat = [list(row) for row in kernel_lattice(v.kernel(), v.shape[1])]
    assert len(sat) == r
    assert rank(sat) == r and rank(sat + rows) == r
    assert minor_gcd(sat, r) == 1
    assert [list(row) for row in hnf_rows(sat)] == sat


# --- factor_over_q ----------------------------------------------------------


monic = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d)
    .map(lambda low: low + [1]))


def sympy_monic_factors(ints):
    _, facs = sympy.factor_list(
        sum(c * X ** i for i, c in enumerate(ints)), X)
    out = []
    for f, m in facs:
        coeffs = sympy.Poly(f, X).all_coeffs()
        lead = coeffs[0]
        out.append((tuple(Fraction(int(c), int(lead))
                          for c in reversed(coeffs)), m))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


@SETTINGS
@given(st.lists(monic, min_size=1, max_size=4))
def test_factor_over_q_matches_sympy(factors):
    assume(sum(len(f) - 1 for f in factors) <= 8)
    prod = [1]
    for f in factors:
        prod = modp.mul(prod, f, None)
    assert factor_over_q(tuple(prod)) == sympy_monic_factors(prod)


# --- factor_int -------------------------------------------------------------


@SETTINGS
@given(st.lists(st.integers(1, 10 ** 9), max_size=4),
       st.integers(0, 10 ** 24), st.sampled_from([1, -1]))
def test_factor_int_multiplies_back_to_primes(parts, big, sign):
    # every prime factor but the one from nextprime is within Pollard rho's
    # reach, and that one lies where Miller-Rabin is exact
    n = sign * math.prod(parts) * (sympy.nextprime(big) if big else 1)
    got = factor_int(n)
    assert math.prod(p ** e for p, e in got.items()) == abs(n)
    assert all(sympy.isprime(p) for p in got)
    assert list(got) == sorted(got)


@pytest.mark.parametrize("n", [
    (10 ** 20 + 39) * (3 * 10 ** 20 + 53),    # two factors beyond rho's reach
    sympy.nextprime(10 ** 25),                # prime beyond exact Miller-Rabin
])
def test_factor_int_refuses_what_it_cannot_certify(n):
    with pytest.raises(FactorSearchInconclusive):
        factor_int(n)
