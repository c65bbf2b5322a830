"""Ergodicity: cyclotomic criterion vs a brute-force dual-orbit oracle,
field splittings, rank-one detection, and the Z^2 subgroup certificate,
checked against a brute-force box of exact cyclotomic tests.

The cubic fixture is the companion matrix of x^3 + x^2 - 2x - 1 (totally
real, discriminant 49, determinant 1); together with its translate by the
identity it generates a rank-2 group of units, so every primitive
combination must be ergodic and there is no rank-one factor.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import (gauss_jordan_inverse, scalar_is_ergodic,
                     scalar_rational_splitting, scalar_saturate_rows)
from hyperrank.errors import NoErgodicSubgroupFound, RankDeficient
from hyperrank.exact import QMat, cyclotomic
from hyperrank import ergodicity, spectra
from hyperrank.ergodicity import (ErgodicityCertificate, Z2SubgroupCertificate,
                                  _field_element, _polynomial_on_kernel,
                                  ergodic_z2_subgroup, has_rank_one_factor,
                                  is_ergodic, rational_splitting)
from hyperrank.exact.intmat import kernel_lattice, restrict_rows
from hyperrank.exact.factorq import factor_over_q
from hyperrank.spectra import ActionSpec, joint_spectrum

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

    def test_reciprocal_gcd_matches_the_per_index_loop(self):
        # block-diagonal mixes of cyclotomic companions, unipotent, integer
        # and rational blocks, hidden by a unimodular conjugation, and the
        # elements a^i b^j of commuting pairs, negative exponents included.
        # Lehmer's x^10 + x^9 - x^7 - ... - x^3 + x + 1 is self-reciprocal,
        # irreducible and not cyclotomic: the reciprocal gcd is the charpoly
        lehmer = companion([1, 1, 0, -1, -1, -1, -1, -1, 0, 1])
        rng = random.Random(20261019)
        cyclo = [m for m in range(1, 19) if len(cyclotomic(m)) <= 7]
        mats = [QMat(CAT), lehmer, QMat([[1, 1], [0, 1]])] + [
            companion(list(cyclotomic(m)[:-1]))
            for m in cyclo]
        while len(mats) < 300:
            blocks, dim = [], rng.randint(1, 6)
            while sum(len(b) for b in blocks) < dim:
                room = dim - sum(len(b) for b in blocks)
                kind = rng.random()
                if kind < 0.3:
                    cs = cyclotomic(rng.choice(cyclo))
                    block = companion([int(c) for c in cs[:-1]]).rows
                elif kind < 0.45:
                    sign = rng.choice((1, -1))
                    block = [[sign, 1], [0, sign]]
                elif kind < 0.75:
                    n = rng.randint(1, 3)
                    block = [[rng.randint(-3, 3) for _ in range(n)]
                             for _ in range(n)]
                else:
                    n = rng.randint(1, 3)
                    block = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(n)] for _ in range(n)]
                if len(block) <= room:
                    blocks.append(block)
            m = QMat(blocks[0])
            for b in blocks[1:]:
                m = QMat(blockdiag(m.rows, b))
            s = QMat.identity(dim)
            for _ in range(2 * dim if dim > 1 else 0):
                i, j = rng.sample(range(dim), 2)
                e = [[int(r == c) for c in range(dim)] for r in range(dim)]
                e[i][j] = rng.randint(-2, 2)
                s = s @ QMat(e)
            mats.append(s @ m @ gauss_jordan_inverse(s))
        for _ in range(30):
            a = rng.choice(mats)
            if a.det() == 0:
                continue
            shift = rng.randint(-2, 2)
            b = a @ a - a.scalar(shift) if rng.random() < 0.5 else \
                a + QMat.identity(a.shape[0]).scalar(shift)
            if b.det() == 0:
                continue
            for i, j in itertools.product(range(-2, 3), repeat=2):
                mats.append(a.power(i) @ b.power(j))
        seen = set()
        for rows in mats:
            try:
                want = scalar_is_ergodic(rows)
            except RankDeficient:
                with pytest.raises(RankDeficient):
                    is_ergodic(rows)
                continue
            got = is_ergodic(rows)
            assert (got.ergodic, got.period, got.witness) == \
                (want.ergodic, want.period, want.witness), rows
            seen.add(got.period)
        assert is_ergodic(lehmer).ergodic and is_ergodic(CAT).ergodic
        assert seen == {None, *cyclo}


class TestRationalSplitting:
    def test_irreducible_single_block(self):
        (blk,) = rational_splitting(ActionSpec([CAT]))
        assert blk.basis == QMat([[1, 0], [0, 1]])
        assert blk.matrices == (QMat(CAT),)

    def test_repeated_factor_not_split(self):
        (blk,) = rational_splitting(ActionSpec([[[1, 1], [0, 1]]]))
        assert blk.dim == 2

    def test_eigen_blocks_saturated_frozen(self):
        # conjugate of diag(2, 3) by [[1,2],[1,3]]
        blocks = rational_splitting(ActionSpec([[[0, 2], [-3, 5]]]))
        assert [b.basis.rows for b in blocks] == [((1, 1),), ((2, 3),)]
        assert [b.matrices[0].rows for b in blocks] == [((2,),), ((3,),)]

    def test_saturate_rows_returns_the_saturated_lattice(self):
        # the kernel-of-kernel basis of this span has index 2 in the lattice
        # {2 x1 + x2 + x3 = 0}, which contains (0, 1, -1)
        def saturate(rows):
            v = QMat(rows)
            return QMat(kernel_lattice(v.kernel(), v.shape[1]))

        assert saturate([[0, 1, -1], [1, -2, 0]]) == QMat([[1, 0, -2],
                                                           [0, 1, -1]])
        assert saturate([[2, 4, 6]]) == QMat([[1, 2, 3]])
        assert saturate([[2, 0], [0, 3]]) == QMat.identity(2)

    def test_random_matrices_restrict_to_integer_blocks(self):
        rng = random.Random(1)
        for _ in range(300):
            m = QMat([[rng.randint(-3, 3) for _ in range(3)]
                      for _ in range(3)])
            if m.det() == 0:
                continue
            blocks = rational_splitting(ActionSpec([m]))
            assert sum(b.dim for b in blocks) == 3
            for blk in blocks:
                bt = blk.basis.transpose()
                assert m @ bt == bt @ blk.matrices[0]

    def test_block_diagonal_action(self):
        eye = [[1, 0], [0, 1]]
        act = ActionSpec((blockdiag(CAT, eye), blockdiag(eye, [[3, 1], [1, 1]])))
        blocks = rational_splitting(act)
        assert [b.dim for b in blocks] == [2, 2]
        polys = {tuple(m.charpoly() for m in b.matrices) for b in blocks}
        cat_cp = (1, -3, 1)
        other_cp = (2, -4, 1)
        one_sq = (1, -2, 1)
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
        for blk in rational_splitting(ActionSpec([a])):
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
        # the certificate covers all of span(a, b), far outside any box
        a, b = cert.pair
        for i, j in [(37, -29), (-101, 64), (1, 250)]:
            vec = tuple(i * x + j * y for x, y in zip(a, b))
            assert is_ergodic(ActionSpec((CUBIC, CUBIC_PLUS)).element(vec)
                              ).ergodic, (i, j)

    def test_library_defaults_refine_once(self, monkeypatch):
        # joint_spectrum and the block spectra of both checks default to
        # one tolerance, so the cubic units' one block, the action itself,
        # is refined once
        tols = []
        refine = spectra._real_refine

        def counted(action, tol):
            tols.append(tol)
            return refine(action, tol)
        monkeypatch.setattr(spectra, "_real_refine", counted)
        action = ActionSpec((CUBIC, CUBIC_PLUS))
        joint_spectrum(action)
        assert not has_rank_one_factor(action).found
        assert isinstance(ergodic_z2_subgroup(action), Z2SubgroupCertificate)
        assert tols == [1e-9]

    def test_z2_subgroup_product_action_obstructed(self):
        with pytest.raises(NoErgodicSubgroupFound) as ei:
            ergodic_z2_subgroup(ActionSpec(PRODUCT_GENS), pair_bound=1,
                                combo_bound=4)
        assert ei.value.obstructions
        assert ei.value.budget == (1, 4)
        kinds = {o[1] for o in ei.value.obstructions}
        assert "non-ergodic combination" in kinds


# --- the per-block certificate against brute force --------------------------

SQRT2_TENSOR = ([[1, 0, 2, 0], [0, 1, 0, 2], [1, 0, 1, 0], [0, 1, 0, 1]],
                [[1, 2, 0, 0], [1, 1, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]])


def companion(f):
    """Companion matrix of x^d + f[d-1] x^(d-1) + ... + f[0]."""
    d = len(f)
    return QMat([[int(i == j + 1) for j in range(d - 1)] + [-f[i]]
                 for i in range(d)])


def poly_at(g, c):
    """g[0] + g[1] c + ... for the ascending coefficients g."""
    out = QMat([[0] * c.shape[1] for _ in range(c.shape[0])])
    for coeff in reversed(g):
        out = out @ c + QMat.identity(c.shape[0]).scalar(coeff)
    return out


def seeded_companion_actions(seed, degrees):
    """(C_f, g(C_f)) with f irreducible of each degree, without a rank-one
    factor."""
    rng = random.Random(seed)
    for d in degrees:
        while True:
            f = [rng.randint(-3, 3) for _ in range(d)]
            g = [rng.randint(-2, 2) for _ in range(d)]
            if f[0] == 0 or not any(g[1:]) or \
                    factor_over_q((*f, 1)) != [((*f, 1), 1)]:
                continue
            c = companion(f)
            b = poly_at(g, c)
            if b.det() == 0:
                continue
            action = ActionSpec((c, b))
            if not has_rank_one_factor(action).found:
                yield action
                break


def assert_box_ergodic(action, pair, radius=20):
    """Criterion 6's brute force: every primitive i a + j b with
    |(i, j)|_inf <= radius passes the exact cyclotomic test."""
    a, b = pair
    checked = 0
    for i, j in itertools.product(range(-radius, radius + 1), repeat=2):
        if (i, j) == (0, 0) or math.gcd(i, j) != 1:
            continue
        vec = tuple(i * x + j * y for x, y in zip(a, b))
        assert is_ergodic(action.element(vec)).ergodic, (pair, i, j)
        checked += 1
    assert checked > 2 * radius ** 2


def assert_obstructions_confirmed(action, **bounds):
    """The search fails, and every "non-ergodic combination" it reports
    is non-ergodic with the reported period by the exact test."""
    with pytest.raises(NoErgodicSubgroupFound) as ei:
        ergodic_z2_subgroup(action, **bounds)
    confirmed = 0
    for (a, b), reason, bad in ei.value.obstructions:
        if reason == "non-ergodic combination":
            (i, j), period = bad
            vec = tuple(i * x + j * y for x, y in zip(a, b))
            cert = is_ergodic(action.element(vec))
            assert not cert.ergodic and cert.period == period, (a, b, bad)
            confirmed += 1
    assert confirmed > 0


class TestFieldCertificate:
    def test_seeded_companion_actions_pass_the_box(self):
        for action in seeded_companion_actions(5, (2, 3, 4, 4)):
            cert = ergodic_z2_subgroup(action)
            assert_box_ergodic(action, cert.pair)

    def test_repeated_field_block_certified(self):
        # diag(C, C) has charpoly f^2: one 6-dimensional block, a field
        # with e = 2, certified like the cubic units themselves
        action = ActionSpec((blockdiag(CUBIC, CUBIC),
                             blockdiag(CUBIC_PLUS, CUBIC_PLUS)))
        (blk,) = rational_splitting(action)
        assert blk.dim == 6 and blk.field
        (f, e), = factor_over_q(blk.matrices[0].charpoly())
        assert e == 2
        cert = ergodic_z2_subgroup(action, pair_bound=1)
        assert cert.pair == ((0, 1), (1, -1))
        assert_box_ergodic(action, cert.pair, radius=6)

    def test_power_pair_on_a_repeated_block_is_obstructed(self):
        # diag(C, C) and diag(C^2, C^2): a field block with e = 2 whose
        # functionals have rank 1, rho(2, -1) being the identity
        c = QMat(CUBIC)
        c2 = (c @ c).int_rows()
        action = ActionSpec((blockdiag(CUBIC, CUBIC), blockdiag(c2, c2)))
        (blk,) = rational_splitting(action)
        assert blk.dim == 6 and blk.field
        assert has_rank_one_factor(action).blocks == ((6, 1),)
        assert_obstructions_confirmed(action, pair_bound=1)

    def test_rank_one_and_finite_order_factors_obstructed(self):
        rotation = blockdiag(CUBIC, [[0, -1], [1, 0]])
        flip = blockdiag(CUBIC_PLUS, [[-1, 0], [0, -1]])
        assert_obstructions_confirmed(ActionSpec((rotation, flip)))
        assert_obstructions_confirmed(ActionSpec(PRODUCT_GENS), pair_bound=1)

    def test_sqrt2_tensor_block_before_and_after_refinement(self):
        gens = [QMat(g) for g in SQRT2_TENSOR]
        # on Q^4 each generator has charpoly (x^2 - 2x - 1)^2, and the
        # other generator is not a polynomial in it on ker f(g)
        for g in gens:
            (f, e), = factor_over_q(g.charpoly())
            assert (f, e) == ((-1, -2, 1), 2)
            assert not _polynomial_on_kernel(f, g, gens)
        m, facs = _field_element(gens)
        assert m == gens[0] + gens[1]
        assert [e for _, e in facs] == [2, 1]
        blocks = rational_splitting(ActionSpec(gens))
        assert [(b.dim, b.field) for b in blocks] == [(2, True), (2, True)]
        for blk in blocks:
            for g in blk.matrices:
                (f, e), = factor_over_q(g.charpoly())
                assert _polynomial_on_kernel(f, g, blk.matrices)
        # rho(1, -1) is the identity on one block, rho(1, 1) is -1 on the
        # other
        assert has_rank_one_factor(ActionSpec(gens)).blocks == ((2, 1),
                                                                (2, 1))

    def test_unipotent_algebra_block_is_not_certified(self):
        # multiplication by 1 + x and 1 + y on Q[x, y] / (x^2, y^2): local,
        # not reduced, and no candidate is a field element on its kernel
        ux = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
        uy = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]]
        action = ActionSpec((ux, uy))
        (blk,) = rational_splitting(action)
        assert blk.dim == 4 and not blk.field
        with pytest.raises(NoErgodicSubgroupFound) as ei:
            ergodic_z2_subgroup(action)
        assert ei.value.obstructions == []
        assert "not certified to be a field" in ei.value.reason

    def test_failed_spot_check_is_not_a_certificate(self, monkeypatch):
        # a pair of full float rank whose exact check fails ends the search
        fake = ErgodicityCertificate(ergodic=False, period=1,
                                     witness=(1, 0, 0))
        monkeypatch.setattr(ergodicity, "is_ergodic", lambda m: fake)
        with pytest.raises(NoErgodicSubgroupFound) as ei:
            ergodic_z2_subgroup(ActionSpec((CUBIC, CUBIC_PLUS)),
                                pair_bound=1)
        assert ei.value.obstructions == [
            (((0, 1), (1, -1)), "non-ergodic combination", ((1, 0), 1))]


# --- the integer splitting against the QMat splitting it replaced -----------


def _block_generators(rng, kind, k):
    """k commuting integer matrices on one block of the given kind."""
    if kind in ("sqrt2", "local"):
        x, y = map(QMat, SQRT2_TENSOR if kind == "sqrt2" else LOCAL_UNIPOTENT)
        return [(x.power(rng.randint(0, 2)) @ y.power(rng.randint(0, 2)))
                for _ in range(k)]
    if kind == "random":
        n = rng.randint(1, 3)
        a = QMat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    elif kind == "unipotent":
        lam = rng.choice((-2, -1, 1, 1, 2, 3))
        a = QMat([[lam, 1], [0, lam]])
    else:   # cyclotomic: the companion matrix of Phi_m
        m = rng.choice((1, 2, 3, 4, 5, 6, 8, 10, 12))
        a = companion(list(cyclotomic(m)[:-1]))
    eye = QMat.identity(a.shape[0])
    return [eye.scalar(rng.randint(-2, 2)) + a.scalar(rng.randint(-2, 2))
            + (a @ a).scalar(rng.randint(-1, 1)) for _ in range(k)]


# multiplication by 1 + x and 1 + y on Q[x, y] / (x^2, y^2): local, not
# reduced, so no candidate certifies the block a field
LOCAL_UNIPOTENT = ([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]],
                   [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])


def _unimodular(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    u = QMat(u)
    return u, u.inverse()


def _seeded_split_actions(seed, count):
    """Block-diagonal products of random, unipotent, sqrt2_tensor, local
    and cyclotomic blocks, half of them conjugated by a random unimodular
    U."""
    rng = random.Random(seed)
    kinds = ("random", "unipotent", "sqrt2", "local", "cyclotomic")
    out = []
    while len(out) < count:
        k = rng.choice((1, 2, 2, 3))
        chosen = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
        blocks = [_block_generators(rng, kind, k) for kind in chosen]
        if sum(b[0].shape[0] for b in blocks) > 7:
            continue
        gens = []
        for i in range(k):
            g = blocks[0][i].int_rows()
            for b in blocks[1:]:
                g = blockdiag(g, b[i].int_rows())
            gens.append(QMat(g))
        if any(g.det() == 0 for g in gens):
            continue
        if rng.random() < 0.5:
            u, uinv = _unimodular(rng, gens[0].shape[0])
            gens = [u @ g @ uinv for g in gens]
        out.append((tuple(chosen), ActionSpec(gens)))
    return out


class TestSplittingOracle:
    def test_matches_the_qmat_splitting(self):
        seen = set()
        for kinds, action in _seeded_split_actions(1313, 320):
            got = rational_splitting(action)
            want = scalar_rational_splitting(action)
            assert ([(b.basis, b.matrices, b.field) for b in got]
                    == [(b.basis, b.matrices, b.field) for b in want]), \
                action.generators
            for blk in got:
                assert all(type(c) is Fraction
                           for m in (blk.basis,) + blk.matrices
                           for r in m.rows for c in r)
            seen.update(kinds)
            seen.add(("blocks", len(got)))
            seen.add(("field", all(b.field for b in got)))
        assert set(("random", "unipotent", "sqrt2", "local",
                    "cyclotomic")) <= seen
        assert {("blocks", 1), ("blocks", 3), ("field", False)} <= seen

    def test_single_matrices_match_the_qmat_splitting(self):
        rng = random.Random(1314)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = QMat([[rng.randint(-3, 3) for _ in range(n)]
                      for _ in range(n)])
            if m.det() == 0:
                continue
            action = ActionSpec([m])
            assert ([(b.basis, b.matrices, b.field)
                     for b in rational_splitting(action)]
                    == [(b.basis, b.matrices, b.field)
                        for b in scalar_rational_splitting(action)]), m

    def test_saturate_rows_matches_the_qmat_version(self):
        rng = random.Random(1315)
        for _ in range(200):
            n, r = rng.randint(1, 5), rng.randint(1, 4)
            v = QMat([[rng.randint(-4, 4) for _ in range(n)]
                      for _ in range(r)])
            if v.rank() == 0:
                continue
            sat = QMat(kernel_lattice(v.kernel(), n))
            assert sat == scalar_saturate_rows(v), v


RESTRICT_ERRORS = """
from hyperrank.exact.intmat import restrict_rows
from hyperrank.errors import RankDeficient
for basis, m, q, words in (
        ([(1, 0)], [[0, 1], [1, 0]], None, "inconsistent"),
        ([(2, 0), (0, 1)], [[1, 1], [0, 1]], None, "non-integer"),
        ([(1, 0)], [[0, 1], [1, 0]], 7 ** 4, "inconsistent")):
    try:
        restrict_rows(basis, [0, 1][:len(basis)], m, q)
    except RankDeficient as exc:
        assert words in str(exc), exc
    else:
        raise SystemExit("no RankDeficient for %r" % (basis,))
"""


def hnf_pivots(basis):
    return [next(j for j, x in enumerate(b) if x) for b in basis]


class TestRestrictRows:
    def test_restriction_is_integer_and_intertwines(self):
        # the lattice spanned by (1, 1) and (2, 3) is Z^2 in another basis
        basis = [(1, 1), (0, 1)]
        m = [[0, 2], [-3, 5]]
        x = restrict_rows(basis, hnf_pivots(basis), m)
        bt = QMat(basis).transpose()
        assert QMat(m) @ bt == bt @ QMat(x)

    def test_non_invariant_lattice_raises(self):
        # the x-axis is not invariant under the swap
        with pytest.raises(RankDeficient, match="inconsistent"):
            restrict_rows([(1, 0)], [0], [[0, 1], [1, 0]])
        with pytest.raises(RankDeficient, match="inconsistent"):
            restrict_rows([(1, 0)], [0], [[0, 1], [1, 0]], 5 ** 3)

    def test_non_integer_restriction_raises(self):
        # 2Z x Z is rationally invariant (it spans Q^2) but the shear maps
        # (0, 1) to (1, 1), outside it
        with pytest.raises(RankDeficient, match="non-integer"):
            restrict_rows([(2, 0), (0, 1)], [0, 1], [[1, 1], [0, 1]])

    def test_checks_survive_python_dash_o(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", RESTRICT_ERRORS],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
