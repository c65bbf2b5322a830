"""Ergodicity: cyclotomic criterion vs a brute-force dual-orbit oracle,
rational splittings, rank-one detection, and the Z^2 subgroup search.

The cubic fixture is the companion matrix of x^3 + x^2 - 2x - 1 (totally
real, discriminant 49, determinant 1); together with its translate by the
identity it generates a rank-2 group of units, so every primitive
combination must be ergodic and there is no rank-one factor.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hyperrank.errors import NoErgodicSubgroupFound
from hyperrank.exact import QMat, QPoly
from hyperrank.ergodicity import (ErgodicityCertificate, Z2SubgroupCertificate,
                                  _saturate_rows, ergodic_z2_subgroup,
                                  has_rank_one_factor, is_ergodic,
                                  rational_splitting)
from hyperrank.spectra import ActionSpec

CAT = [[2, 1], [1, 1]]
CUBIC = [[0, 0, 1], [1, 0, 2], [0, 1, -1]]     # companion of x^3 + x^2 - 2x - 1
CUBIC_PLUS = [[1, 0, 1], [1, 1, 2], [0, 1, 0]]  # CUBIC + I, determinant -1


def blockdiag(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


PRODUCT_GENS = (blockdiag(CAT, [[1, 0], [0, 1]]),
                blockdiag([[1, 0], [0, 1]], CAT))


def orbit_witness(rows, zbound=8, mmax=12):
    """Smallest-box periodic dual vector, found by raw orbit iteration."""
    d = len(rows)
    mt = [[rows[j][i] for j in range(d)] for i in range(d)]
    for z in itertools.product(range(-zbound, zbound + 1), repeat=d):
        if all(x == 0 for x in z):
            continue
        w = z
        for step in range(1, mmax + 1):
            w = tuple(sum(mt[i][j] * w[j] for j in range(d)) for i in range(d))
            if max(map(abs, w)) > 10 ** 6:
                break
            if w == z:
                return z, step
    return None


def check_certificate(rows, cert):
    assert not cert.ergodic
    m = QMat(rows)
    z = QMat([[x] for x in cert.witness])
    assert any(x != 0 for x in cert.witness)
    assert m.transpose().power(cert.period) @ z == z


class TestIsErgodic:
    def test_parabolic_frozen(self):
        cert = is_ergodic([[1, 1], [0, 1]])
        assert (cert.ergodic, cert.period, cert.witness) == (False, 1, (0, 1))
        check_certificate([[1, 1], [0, 1]], cert)

    def test_rotation_period_four(self):
        cert = is_ergodic([[0, -1], [1, 0]])
        assert cert.period == 4
        check_certificate([[0, -1], [1, 0]], cert)

    def test_swap_fixed_vector(self):
        cert = is_ergodic([[0, 1], [1, 0]])
        assert cert.period == 1 and cert.witness == (1, 1)

    def test_cat_map_ergodic(self):
        assert is_ergodic(CAT) == ErgodicityCertificate(ergodic=True)

    def test_one_dimensional(self):
        assert is_ergodic([[2]]).ergodic
        assert is_ergodic([[-1]]).period == 2

    def test_rational_solenoid_matrix(self):
        assert is_ergodic(QMat([[Fraction(1, 2)]])).ergodic
        cert = is_ergodic(QMat([[Fraction(1, 2), 0], [0, -1]]))
        assert cert.period == 2
        check_certificate([[Fraction(1, 2), 0], [0, -1]], cert)

    def test_matches_orbit_oracle(self):
        rng = random.Random(417)
        done = 0
        while done < 40:
            rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if QMat(rows).det() == 0:
                continue
            cert = is_ergodic(rows)
            oracle = orbit_witness(rows)
            assert cert.ergodic == (oracle is None), rows
            if not cert.ergodic:
                check_certificate(rows, cert)
            done += 1


class TestRationalSplitting:
    def test_irreducible_single_block(self):
        (blk,) = rational_splitting(QMat(CAT))
        assert blk.basis == QMat([[1, 0], [0, 1]])
        assert blk.matrices == (QMat(CAT),)

    def test_repeated_factor_not_split(self):
        (blk,) = rational_splitting(QMat([[1, 1], [0, 1]]))
        assert blk.dim == 2

    def test_eigen_blocks_saturated_frozen(self):
        # conjugate of diag(2, 3) by [[1,2],[1,3]]
        blocks = rational_splitting(QMat([[0, 2], [-3, 5]]))
        assert [b.basis.rows for b in blocks] == [((1, 1),), ((2, 3),)]
        assert [b.matrices[0].rows for b in blocks] == [((2,),), ((3,),)]

    def test_saturate_rows_returns_the_saturated_lattice(self):
        # the kernel-of-kernel basis of this span has index 2 in the lattice
        # {2 x1 + x2 + x3 = 0}, which contains (0, 1, -1)
        sat = _saturate_rows(QMat([[0, 1, -1], [1, -2, 0]]))
        assert sat == QMat([[1, 0, -2], [0, 1, -1]])
        assert _saturate_rows(QMat([[2, 4, 6]])) == QMat([[1, 2, 3]])
        assert _saturate_rows(QMat([[2, 0], [0, 3]])) == QMat.identity(2)

    def test_random_matrices_restrict_to_integer_blocks(self):
        rng = random.Random(1)
        for _ in range(300):
            m = QMat([[rng.randint(-3, 3) for _ in range(3)]
                      for _ in range(3)])
            blocks = rational_splitting(m)
            assert sum(b.dim for b in blocks) == 3
            for blk in blocks:
                bt = blk.basis.transpose()
                assert m @ bt == bt @ blk.matrices[0]

    def test_block_diagonal_action(self):
        eye = [[1, 0], [0, 1]]
        act = ActionSpec((blockdiag(CAT, eye), blockdiag(eye, [[3, 1], [1, 1]])))
        blocks = rational_splitting(act)
        assert [b.dim for b in blocks] == [2, 2]
        polys = {b.charpolys for b in blocks}
        cat_cp = QPoly((1, -3, 1))
        other_cp = QPoly((2, -4, 1))
        one_sq = QPoly((1, -2, 1))
        assert polys == {(cat_cp, one_sq), (one_sq, other_cp)}

    def test_later_generator_splits_an_earlier_block(self):
        # g1 = A + I splits off the identity part, and g2 = I + B splits that
        # block again whenever B's charpoly is reducible; the restriction must
        # start from the ambient generators, not from the restricted ones
        rng = random.Random(3)
        eye = [[1, 0], [0, 1]]
        resplit = 0
        for _ in range(300):
            a, b = ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                    for _ in range(2))
            if QMat(a).det() == 0 or QMat(b).det() == 0:
                continue
            g1, g2 = QMat(blockdiag(a, eye)), QMat(blockdiag(eye, b))
            gens = (g1, g2, (g1 @ g2).power(2))
            blocks = rational_splitting(ActionSpec(gens))
            assert sum(blk.dim for blk in blocks) == 4
            resplit += len(blocks) >= 3
            for blk in blocks:
                bt = blk.basis.transpose()
                for g, m in zip(gens, blk.matrices):
                    assert m.is_integer() and g @ bt == bt @ m
        assert resplit > 50

    def test_invariance_identity(self):
        rng = random.Random(92)
        s = QMat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        a = s @ QMat([[2, 0, 0], [0, 2, 1], [0, 0, 3]]) @ s.inverse()
        for blk in rational_splitting(a):
            bt = blk.basis.transpose()
            assert a @ bt == bt @ blk.matrices[0]
            assert blk.matrices[0].is_integer()


class TestRankOne:
    def test_product_action_has_rank_one_factor(self):
        report = has_rank_one_factor(ActionSpec(PRODUCT_GENS))
        assert report.found
        assert report.blocks == ((2, 1), (2, 1))
        assert report.culprit.dim == 2

    def test_cubic_units_genuinely_higher_rank(self):
        report = has_rank_one_factor(ActionSpec((CUBIC, CUBIC_PLUS)))
        assert not report.found
        assert report.blocks == ((3, 2),)

    def test_single_matrix_is_rank_one(self):
        report = has_rank_one_factor(ActionSpec((CAT,)))
        assert report.found


class TestSearch:
    def test_z2_subgroup_cubic_units_frozen(self):
        cert = ergodic_z2_subgroup(ActionSpec((CUBIC, CUBIC_PLUS)),
                                   pair_bound=1, combo_bound=6)
        assert isinstance(cert, Z2SubgroupCertificate)
        assert cert.pair == ((0, 1), (1, -1))
        assert cert.value_rank == 2
        assert cert.checked > 20

    def test_z2_subgroup_product_action_obstructed(self):
        with pytest.raises(NoErgodicSubgroupFound) as ei:
            ergodic_z2_subgroup(ActionSpec(PRODUCT_GENS), pair_bound=1,
                                combo_bound=4)
        assert ei.value.obstructions
        assert ei.value.budget == (1, 4)
        kinds = {o[1] for o in ei.value.obstructions}
        assert "non-ergodic combination" in kinds
