"""Exact matrix layer.

The characteristic polynomial is cross-checked against a cofactor-expansion
oracle computed directly in the polynomial ring, on modp's kernels with the
modulus None (a different algorithm from the Berkowitz implementation under
test).
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import gauss_jordan_inverse
from hyperrank.ergodicity import is_ergodic, rational_splitting
from hyperrank.errors import RankDeficient
from hyperrank.exact import (QMat, berkowitz_charpoly_mod, hnf_rows, intmat,
                             modp)
from hyperrank.exact.intmat import mat_mul_mod, mat_pow_mod, primitive_vector
from hyperrank.spectra import ActionSpec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def charpoly_oracle(m: QMat) -> tuple:
    """det(xI - A) by Laplace expansion over polynomial entries."""
    n = len(m.rows)
    entries = [[modp.trim([-m.rows[i][j], int(i == j)])
                for j in range(n)] for i in range(n)]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = []
        for j, top in enumerate(rows[0]):
            if not top:
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = modp.mul(top, det(minor), None)
            total = (modp.add if j % 2 == 0 else modp.sub)(total, term, None)
        return total

    return tuple(det(entries))


def random_int_matrix(rng, n, lo=-4, hi=4):
    return QMat([[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)])


def test_charpoly_frozen_2x2():
    # worked example pinned independently of the oracle machinery
    cp = QMat([[2, 1], [1, 1]]).charpoly()
    assert cp == (1, -3, 1) and all(type(c) is int for c in cp)


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(15):
            m = random_int_matrix(rng, n)
            assert m.charpoly() == charpoly_oracle(m)


def test_charpoly_rational_entries():
    m = QMat([[Fraction(1, 2), 1], [Fraction(-1, 3), 2]])
    assert m.charpoly() == charpoly_oracle(m)


def test_det_vs_charpoly_constant():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n)
        cp = m.charpoly()
        assert m.det() == (-1) ** n * cp[0]


def test_det_multiplicative():
    rng = random.Random(8)
    for _ in range(30):
        a = random_int_matrix(rng, 3)
        b = random_int_matrix(rng, 3)
        assert (a @ b).det() == a.det() * b.det()


def test_inverse_and_negative_powers():
    rng = random.Random(9)
    count = 0
    while count < 25:
        m = random_int_matrix(rng, 3)
        if m.det() == 0:
            continue
        count += 1
        assert m @ m.inverse() == QMat.identity(3)
        assert m.power(-2) == (m @ m).inverse()
        assert m.power(0) == QMat.identity(3)
        assert m.power(3) == m @ m @ m


def test_power_is_the_product_of_its_factors():
    # square-and-multiply against the plain product, for rational inverses
    # (det 2 and det -3) and a unimodular matrix
    rng = random.Random(10)
    mats = [QMat([[2, 1], [1, 1]]), QMat([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
            QMat([[0, 0, 3], [1, 0, 0], [0, 1, 0]])]
    while len(mats) < 6:
        m = random_int_matrix(rng, rng.randrange(1, 5))
        if m.det() != 0:
            mats.append(m)
    for m in mats:
        n = m.shape[0]
        for e in range(-4, 10):
            factor = m if e >= 0 else m.inverse()
            want = QMat.identity(n)
            for _ in range(abs(e)):
                want = want @ factor
            assert m.power(e) == want, (m, e)


def test_memoized_charpoly_matches_a_fresh_matrix():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = random_int_matrix(rng, n)
            det = m.det()                    # fills the memo
            first = m.charpoly()
            assert m.charpoly() is first     # computed once
            fresh = QMat(m.rows)
            assert first == fresh.charpoly() == charpoly_oracle(fresh)
            assert det == fresh.det()
    m = QMat([[Fraction(1, 2), 1], [Fraction(-1, 3), 2]])
    assert m.charpoly() == m.charpoly() == charpoly_oracle(QMat(m.rows))


class _Half(Fraction):
    """A Fraction subclass: QMat stores a plain Fraction of it."""


def test_entries_are_plain_fractions_whatever_the_input():
    inputs = [[[1, -2], [0, 3]],
              [[True, False], [False, True]],
              [[Fraction(1, 2), Fraction(-4, 6)], [Fraction(3), Fraction(0)]],
              [[1, Fraction(2, 3)], [True, Fraction(5, 5)]],
              [[_Half(1, 2), 2], [3, _Half(-7, 2)]],
              [["1/2", 2.5], [-1, "3"]]]
    for rows in inputs:
        m = QMat(rows)
        want = tuple(tuple(Fraction(c) for c in r) for r in rows)
        assert m.rows == want
        assert all(type(c) is Fraction for r in m.rows for c in r)
        assert m == QMat(want)
    f = _Half(3, 7)
    (c,), = QMat([[f]]).rows
    assert c == f and type(c) is Fraction


class _NoFraction:
    """Stands in for intmat's Fraction: building one fails the test."""

    def __init__(self, *args):
        raise AssertionError(f"Fraction{args} built for an integer matrix")


def test_integer_matrices_never_enter_fraction(monkeypatch):
    # an integer matrix is its int rows over 1, so no operation on one
    # needs a Fraction; the rational view rows is not read here
    monkeypatch.setattr(intmat, "Fraction", _NoFraction)
    m = QMat([[2, 1, 0], [1, 1, 0], [0, 0, 3]])
    n = QMat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert (m @ n).int_rows() == mat_mul_mod(m.int_rows(), n.int_rows())
    assert m.power(0) == QMat.identity(3) and m.power(5) == m @ m.power(4)
    assert m.det() == 3 and m.charpoly() == (-3, 10, -6, 1)
    assert m.transpose() @ m - m @ m.transpose() == QMat([[0] * 3] * 3)
    assert (n - m).is_integer() and n.rank() == 2
    assert n.kernel() == [(1, 1, -1)]
    cert = is_ergodic(QMat([[0, -1], [1, 0]]))
    assert not cert.ergodic and cert.period == 4
    gens = json.loads((FIXTURES / "double_split.json").read_text())
    split = rational_splitting(ActionSpec(gens["generators"]))
    assert sorted(b.dim for b in split) == [1, 1, 1]


def test_mat_mul_and_pow_exact_over_z():
    rng = random.Random(17)
    for _ in range(20):
        a, b = random_int_matrix(rng, 3), random_int_matrix(rng, 3)
        assert mat_mul_mod(a.int_rows(), b.int_rows()) == (a @ b).int_rows()
        e = rng.randrange(0, 12)
        assert mat_pow_mod(a.int_rows(), e) == a.power(e).int_rows()


def test_inverse_singular_raises():
    with pytest.raises(RankDeficient):
        QMat([[1, 2], [2, 4]]).inverse()


def test_inverse_matches_gauss_jordan():
    # integer and rational matrices of dimension 1-8 with entries up to
    # 10^6, one with 10^30 entries, and singular ones of rank n - 1
    rng = random.Random(21)
    big = 10 ** 30
    mats = [QMat([[big + 1, big], [big, big - 1]])]
    for n in range(1, 9):
        for _ in range(4):
            bound = rng.choice((4, 10 ** 6))
            m = random_int_matrix(rng, n, -bound, bound)
            mats.append(m)
            mats.append(QMat([[Fraction(x, rng.randint(1, 12)) for x in r]
                              for r in m.rows]))
            if n > 1:   # the last row a combination of the others
                rows = [list(r) for r in m.rows[:-1]]
                coef = [rng.randint(-2, 2) for _ in rows]
                rows.append([sum(c * r[j] for c, r in zip(coef, rows))
                             for j in range(n)])
                mats.append(QMat(rows))
    singular = 0
    for m in mats:
        try:
            want = gauss_jordan_inverse(m)
        except RankDeficient:
            singular += 1
            for method in (m.inverse, m.adjugate, lambda: m.power(-2)):
                with pytest.raises(RankDeficient):
                    method()
            continue
        assert m.inverse() == want, m           # charpoly computed here
        assert m.inverse() == want              # and read from the memo
        assert m.adjugate() == want.scalar(m.det())
        for e in (1, 2, 3):
            power = want
            for _ in range(e - 1):
                power = power @ want
            assert m.power(-e) == power
    assert singular >= 28


def test_adjugate_identity():
    rng = random.Random(10)
    count = 0
    while count < 20:
        m = random_int_matrix(rng, 3)
        if m.det() == 0:
            continue
        count += 1
        assert m @ m.adjugate() == QMat.identity(3).scalar(m.det())


def test_solve_roundtrip():
    rng = random.Random(12)
    count = 0
    while count < 20:
        a = random_int_matrix(rng, 3)
        if a.det() == 0:
            continue
        count += 1
        x = random_int_matrix(rng, 3)
        assert a.solve(a @ x) == x


def test_kernel_properties():
    rng = random.Random(13)
    for _ in range(40):
        # build a matrix with known nullity by stacking dependent rows
        n = rng.randrange(2, 5)
        rank = rng.randrange(0, n)
        base = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rank)]
        rows = list(base)
        while len(rows) < n:
            mix = [sum(rng.randrange(-2, 3) * base[k][j] for k in range(rank))
                   for j in range(n)] if rank else [0] * n
            rows.append(mix)
        m = QMat(rows)
        kern = m.kernel()
        assert len(kern) == n - m.rank()
        for v in kern:
            assert all(x == 0 for x in m.matvec(v))
            assert all(isinstance(x, int) for x in v)


def test_primitive_vector():
    assert primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert primitive_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(14)
    for _ in range(30):
        rows = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(3)]
        h1 = hnf_rows(rows)
        # apply a random unimodular mix: swap, negate, add multiple
        mixed = [list(r) for r in rows]
        for _ in range(10):
            op = rng.randrange(3)
            i, j = rng.randrange(3), rng.randrange(3)
            if op == 0:
                mixed[i], mixed[j] = mixed[j], mixed[i]
            elif op == 1:
                mixed[i] = [-x for x in mixed[i]]
            elif i != j:
                c = rng.randrange(-2, 3)
                mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        assert hnf_rows(mixed) == h1
        assert hnf_rows(h1) == h1  # idempotent


def test_hnf_pivots_reduced():
    h = hnf_rows([[4, 1, 0], [6, 0, 1]])
    # pivot entries positive, entries above pivots reduced into [0, pivot)
    assert h == hnf_rows(h)
    pivcols = []
    for row in h:
        c = next(j for j, x in enumerate(row) if x != 0)
        assert row[c] > 0
        pivcols.append(c)
    assert pivcols == sorted(pivcols)


def test_berkowitz_mod_q_matches_cofactor_oracle():
    rng = random.Random(15)
    for q in (5, 8, 9, 2 ** 10, 3 ** 6):
        for _ in range(10):
            n = rng.randrange(1, 5)
            m = random_int_matrix(rng, n)
            exact = charpoly_oracle(m)
            want = [int(c) % q for c in exact]
            assert berkowitz_charpoly_mod(m.int_rows(), q) == want


def test_mat_pow_mod_matches_exact():
    rng = random.Random(16)
    for _ in range(20):
        m = random_int_matrix(rng, 3)
        q = 2 ** 12
        e = rng.randrange(0, 40)
        exact = m.power(e)
        assert mat_pow_mod(m.int_rows(), e, q) == [
            [int(c) % q for c in row] for row in exact.rows]


def test_mat_mul_mod():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert mat_mul_mod(a, b, 100) == [[19, 22], [43, 50]]
