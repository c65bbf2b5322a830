"""Group-law, CRT, automorphism, and coordinate tests for the step-2 module.

Reference values were worked by hand from the BCH formula z = x + y + (1/2)[x,y]
with the even-center Heisenberg table [e0, e1] = 2 e2, and the products
cross-checked against an independent full-table multiplier below.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hyperrank.cli import nil_structure_from_json
from hyperrank.errors import (NotAnAutomorphism, ParseError, ScalarMismatch,
                              SplittingNotDirect)
from hyperrank.exact import QMat
from hyperrank.nilpotent import (BracketReport, CrtSolution, NilElement,
                                 NilStructure, automorphism_action,
                                 bracket_inclusion_check, derived_series,
                                 heisenberg, nil_crt, nil_element,
                                 nil_element_padic, nil_inv, nil_mul,
                                 nil_structure)

from helpers import nil_identity

H = heisenberg()
ABELIAN1 = nil_structure(1, [])
ABELIAN2 = nil_structure(2, [])
HPLUSLINE = nil_structure(4, [(0, 1, 2, 2)])


def ref_mul(s, x, y):
    # independent oracle: full double sum over the c-table, no half shortcut
    d = s.dim
    z = [x[k] + y[k] for k in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                z[k] += Fraction(1, 2) * x[i] * y[j] * s.brackets[i][j][k]
    return tuple(z)


def rand_el(rng, s):
    return nil_element(s, [Fraction(rng.randrange(-9, 10),
                                    rng.randrange(1, 7))
                           for _ in range(s.dim)])


class TestStructureValidation:
    def test_heisenberg_table(self):
        assert H.dim == 3
        assert H.brackets[0][1] == (0, 0, 2)
        assert H.brackets[1][0] == (0, 0, -2)
        assert H.derived == (2,)
        assert H.half == ((0, 1, 2, 1),)

    def test_antisymmetric_partner_autofilled(self):
        s = nil_structure(3, [(1, 0, 2, -2)])
        assert s == H

    def test_explicit_consistent_pair(self):
        s = nil_structure(3, [(0, 1, 2, 2), (1, 0, 2, -2)])
        assert s == H

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            nil_structure(3, [(0, 1, 2, 2), (1, 0, 2, 2)])

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            nil_structure(3, [(0, 1, 2, 2), (0, 1, 2, 2)])

    def test_diagonal_bracket_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            nil_structure(3, [(0, 0, 2, 2)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            nil_structure(3, [(0, 1, 3, 2)])

    def test_noncentral_target_rejected(self):
        # [e0, e1] = 2 e1 makes e1 both hit and bracketing: step > 2
        with pytest.raises(ValueError, match="central"):
            nil_structure(2, [(0, 1, 1, 2)])

    def test_derived_not_coordinate_spanned(self):
        # bracket image is the line through e2 + e3, not a basis span
        with pytest.raises(ValueError, match="spanned"):
            nil_structure(4, [(0, 1, 2, 2), (0, 1, 3, 2)])

    def test_odd_constant_rejected(self):
        with pytest.raises(ValueError, match="even"):
            nil_structure(3, [(0, 1, 2, 1)])

    def test_scaling_repairs_odd_constant(self):
        s = nil_structure(3, [(0, 1, 2, 1)],
                          scaling=[1, 1, Fraction(1, 2)])
        assert s == H

    def test_scaling_validation(self):
        with pytest.raises(ValueError, match="scaling"):
            nil_structure(3, [(0, 1, 2, 2)], scaling=[1, 1])
        with pytest.raises(ValueError, match="scaling"):
            nil_structure(3, [(0, 1, 2, 2)], scaling=[1, 0, 1])

    def test_positive_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            nil_structure(0, [])


class TestJsonLoader:
    def test_round_trip_heisenberg(self):
        obj = {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 2, 1]]}
        assert nil_structure_from_json(obj) == H

    def test_scaling_entries(self):
        obj = {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 1, 1]],
               "lattice_scaling": [1, 1, [1, 2]]}
        assert nil_structure_from_json(obj) == H

    def test_abelian_default(self):
        assert nil_structure_from_json({"format": 1, "dim": 2}) == ABELIAN2

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            nil_structure_from_json([1, 2, 3])

    def test_format_checked(self):
        with pytest.raises(ParseError, match="format"):
            nil_structure_from_json({"format": 2, "dim": 3})

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            nil_structure_from_json({"format": 1, "dim": 2, "extra": 1})

    def test_bad_bracket_row(self):
        with pytest.raises(ParseError, match="bracket row"):
            nil_structure_from_json(
                {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 2]]})
        with pytest.raises(ParseError, match="denominator"):
            nil_structure_from_json(
                {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 2, 0]]})

    def test_bad_scaling_entry(self):
        with pytest.raises(ParseError, match="scaling"):
            nil_structure_from_json(
                {"format": 1, "dim": 2, "lattice_scaling": [1, "x"]})

    def test_validation_reported_as_parse_error(self):
        with pytest.raises(ParseError, match="even"):
            nil_structure_from_json(
                {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 1, 1]]})

    def test_bad_dim(self):
        with pytest.raises(ParseError, match="dim"):
            nil_structure_from_json({"format": 1, "dim": "three"})


class TestGroupLaw:
    def test_pinned_product(self):
        a = nil_element(H, (1, 0, 0))
        b = nil_element(H, (0, 1, 0))
        assert nil_mul(a, b).coords == (1, 1, 1)
        assert nil_mul(b, a).coords == (1, 1, -1)

    def test_identity_and_inverse(self):
        rng = random.Random(7)
        e = nil_identity(H)
        for _ in range(25):
            g = rand_el(rng, H)
            assert nil_mul(g, nil_inv(g)) == e
            assert nil_mul(nil_inv(g), g) == e
            assert nil_mul(g, e) == g
            assert nil_mul(e, g) == g

    def test_abelian_is_componentwise(self):
        rng = random.Random(8)
        for _ in range(20):
            g = rand_el(rng, ABELIAN2)
            h = rand_el(rng, ABELIAN2)
            assert nil_mul(g, h).coords == tuple(
                a + b for a, b in zip(g.coords, h.coords))

    def test_matches_full_table_oracle(self):
        rng = random.Random(9)
        for s in (H, ABELIAN2, HPLUSLINE):
            for _ in range(60):
                g = rand_el(rng, s)
                h = rand_el(rng, s)
                assert nil_mul(g, h).coords == ref_mul(s, g.coords, h.coords)

    def test_associativity_exhaustive_heisenberg(self):
        els = [nil_element(H, c)
               for c in itertools.product((-1, 0, 1), repeat=3)]
        table = [[nil_mul(g, h) for h in els] for g in els]
        for i, g in enumerate(els):
            for j, h in enumerate(els):
                gh = table[i][j]
                for k, w in enumerate(els):
                    assert nil_mul(gh, w) == nil_mul(g, table[j][k])

    def test_associativity_exhaustive_abelian(self):
        els = [nil_element(ABELIAN2, c)
               for c in itertools.product((-1, 0, 1), repeat=2)]
        for g in els:
            for h in els:
                gh = nil_mul(g, h)
                for w in els:
                    assert nil_mul(gh, w) == nil_mul(g, nil_mul(h, w))

    def test_associativity_sampled_dim4(self):
        rng = random.Random(10)
        for _ in range(80):
            g, h, w = (rand_el(rng, HPLUSLINE) for _ in range(3))
            assert nil_mul(nil_mul(g, h), w) == nil_mul(g, nil_mul(h, w))

    def test_integer_lattice_closed(self):
        rng = random.Random(11)
        for _ in range(40):
            g = nil_element(H, [rng.randrange(-5, 6) for _ in range(3)])
            h = nil_element(H, [rng.randrange(-5, 6) for _ in range(3)])
            assert all(c.denominator == 1 for c in nil_mul(g, h).coords)

    def test_structure_mismatch(self):
        with pytest.raises(ScalarMismatch):
            nil_mul(nil_identity(H), nil_identity(HPLUSLINE))

    def test_ring_mismatch(self):
        g = nil_element(H, (1, 0, 0))
        h = nil_element_padic(H, (1, 0, 0), 5, 3)
        with pytest.raises(ScalarMismatch):
            nil_mul(g, h)
        w = nil_element_padic(H, (1, 0, 0), 7, 3)
        with pytest.raises(ScalarMismatch):
            nil_mul(h, w)

    def test_padic_product_exact_at_two(self):
        # even center constant keeps the half-bracket integral, so p = 2 works
        a = nil_element_padic(H, (1, 0, 0), 2, 3)
        b = nil_element_padic(H, (0, 1, 0), 2, 3)
        z = nil_mul(a, b)
        assert z.coords == (1, 1, 1)
        e = nil_mul(z, nil_inv(z))
        assert e.coords == (0, 0, 0)

    def test_padic_associativity_sampled(self):
        rng = random.Random(12)
        for p, prec in ((2, 4), (3, 3)):
            for _ in range(40):
                g, h, w = (nil_element_padic(
                    H, [rng.randrange(p ** prec) for _ in range(3)], p, prec)
                    for _ in range(3))
                assert nil_mul(nil_mul(g, h), w) == nil_mul(g, nil_mul(h, w))

    def test_coordinate_count_checked(self):
        with pytest.raises(ValueError):
            nil_element(H, (1, 2))
        with pytest.raises(ValueError):
            nil_element_padic(H, (1, 2), 5, 3)


class TestDerivedSeries:
    def test_heisenberg_chain(self):
        assert derived_series(H) == ((0, 1, 2), (2,), ())

    def test_abelian_chain(self):
        assert derived_series(ABELIAN2) == ((0, 1), ())

    def test_direct_sum_center_is_bracket_span_only(self):
        # the abelian line e3 is central but not in [N, N]
        assert derived_series(HPLUSLINE) == ((0, 1, 2, 3), (2,), ())


class TestNilCrt:
    def test_abelian_two_primes_frozen(self):
        targets = {2: nil_element_padic(ABELIAN1, [3], 2, 2),
                   3: nil_element_padic(ABELIAN1, [1], 3, 2)}
        sol = nil_crt(ABELIAN1, targets, {2: 2, 3: 2})
        assert sol.element.coords == (19,)

    def test_identity_targets(self):
        targets = {2: nil_element_padic(H, [0, 0, 0], 2, 3),
                   3: nil_element_padic(H, [0, 0, 0], 3, 3)}
        sol = nil_crt(H, targets, {2: 3, 3: 2})
        assert sol.element == nil_identity(H)

    def test_heisenberg_level_one(self):
        targets = {2: nil_element_padic(H, [1, 1, 1], 2, 3)}
        sol = nil_crt(H, targets, {2: 1})
        assert sol.abelian_stage == (1, 1, 0)
        assert sol.central_stage == (0, 0, 1)
        assert sol.element.coords == (1, 1, 1)

    def test_heisenberg_two_stage_cross_term(self):
        # n1 = (1,1,0) only matches mod 4; the residual picks up z = 7 from
        # the bracket cross term, and the central stage must supply 3 mod 4
        targets = {2: nil_element_padic(H, [1, 5, 3], 2, 3)}
        sol = nil_crt(H, targets, {2: 2})
        assert sol.abelian_stage == (1, 1, 0)
        assert sol.central_stage == (0, 0, 3)
        assert sol.element.coords == (1, 1, 3)

    def test_congruences_verified_independently(self):
        rng = random.Random(13)
        for _ in range(100):
            prec = 4
            levels = {2: rng.randrange(0, 5), 3: rng.randrange(0, 5)}
            targets = {p: nil_element_padic(
                H, [rng.randrange(p ** prec) for _ in range(3)], p, prec)
                for p in levels}
            sol = nil_crt(H, targets, levels)
            n = sol.element
            assert all(c.denominator == 1 for c in n.coords)
            for p, l in levels.items():
                lift = nil_element_padic(
                    H, [int(c) for c in n.coords], p, prec)
                res = nil_mul(nil_inv(lift), targets[p])
                assert all(c % p ** l == 0 for c in res.coords)

    def test_dim4_free_line_handled(self):
        rng = random.Random(14)
        for _ in range(20):
            targets = {2: nil_element_padic(
                HPLUSLINE, [rng.randrange(16) for _ in range(4)], 2, 4),
                5: nil_element_padic(
                HPLUSLINE, [rng.randrange(125) for _ in range(4)], 5, 3)}
            levels = {2: 3, 5: 2}
            sol = nil_crt(HPLUSLINE, targets, levels)
            for p, l in levels.items():
                lift = nil_element_padic(
                    HPLUSLINE, [int(c) for c in sol.element.coords], p,
                    targets[p].padic[1])
                res = nil_mul(nil_inv(lift), targets[p])
                assert all(c % p ** l == 0 for c in res.coords)

    def test_checks_recorded(self):
        targets = {2: nil_element_padic(H, [1, 1, 1], 2, 3)}
        sol = nil_crt(H, targets, {2: 1})
        assert isinstance(sol, CrtSolution)
        (p, level, digits), = sol.checks
        assert (p, level) == (2, 1)
        assert all(d % 2 == 0 for d in digits)

    def test_random_step2_structures_against_integer_oracle(self):
        # shapes and levels as in the benchmark's crt traffic; n^-1 xi_p is
        # recomputed from the generated bracket entries over Z, not nil_mul
        rng = random.Random(1601)
        for _ in range(150):
            dim = rng.randint(3, 6)
            central = rng.randint(1, max(1, dim - 3))
            order = rng.sample(range(dim), dim)
            free, cent = order[central:], order[:central]
            pairs = list(itertools.combinations(free, 2))
            rng.shuffle(pairs)
            entries = [(i, j, k, 2 * rng.choice((-3, -2, -1, 1, 2, 3)))
                       for k, (i, j) in zip(cent, pairs)]
            entries += [(i, j, k, 2 * rng.randint(-3, 3))
                        for i, j in pairs[central:] for k in cent
                        if rng.random() < 0.3]
            entries = [e for e in entries if e[3]]
            structure = nil_structure(dim, entries)
            targets, levels, xis = {}, {}, {}
            for p in rng.sample((2, 3, 5, 7), rng.randint(2, 3)):
                levels[p] = rng.randint(1, 4)
                prec = levels[p] + rng.randint(0, 4)
                xis[p] = [rng.randint(-60, 60) for _ in range(dim)]
                targets[p] = nil_element_padic(structure, xis[p], p, prec)
            sol = nil_crt(structure, targets, levels)
            assert all(c.denominator == 1 for c in sol.element.coords)
            n = [int(c) for c in sol.element.coords]
            for p, level, digits in sol.checks:
                x, y = [-c for c in n], xis[p]
                z = [a + b for a, b in zip(x, y)]
                for i, j, k, v in entries:
                    z[k] += v // 2 * (x[i] * y[j] - x[j] * y[i])
                assert all(c % p ** level == 0 for c in z), (entries, p)
                q = p ** targets[p].padic[1]
                assert digits == tuple(c % q for c in z)
            assert sorted(p for p, _, _ in sol.checks) == sorted(levels)

    def test_level_beyond_precision(self):
        targets = {2: nil_element_padic(H, [1, 1, 1], 2, 3)}
        with pytest.raises(ValueError, match="precision"):
            nil_crt(H, targets, {2: 4})

    def test_prime_key_mismatch(self):
        targets = {2: nil_element_padic(H, [1, 1, 1], 2, 3)}
        with pytest.raises(ValueError, match="same primes"):
            nil_crt(H, targets, {2: 1, 3: 1})
        bad = {3: nil_element_padic(H, [1, 1, 1], 2, 3)}
        with pytest.raises(ScalarMismatch):
            nil_crt(H, bad, {3: 1})

    def test_rational_target_rejected(self):
        with pytest.raises(ScalarMismatch):
            nil_crt(H, {2: nil_element(H, (1, 1, 1))}, {2: 1})


class TestAutomorphisms:
    HYP = QMat([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    SHEAR = QMat([[2, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_hyperbolic_diagonal_action(self):
        g = nil_element(H, (1, 1, 1))
        out = automorphism_action(H, self.HYP, g)
        assert out.coords == (2, Fraction(1, 2), 1)

    def test_identity_action(self):
        g = nil_element(H, (3, -2, 5))
        eye = QMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert automorphism_action(H, eye, g) == g

    def test_center_must_scale_with_product(self):
        bad = QMat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NotAnAutomorphism):
            automorphism_action(H, bad, nil_identity(H))

    def test_shear_det_one_respects_bracket(self):
        # det of the top block is 1, so the center is fixed
        g = nil_element(H, (0, 1, 0))
        out = automorphism_action(H, self.SHEAR, g)
        assert out.coords == (1, 1, 0)

    def test_commutes_with_multiplication(self):
        rng = random.Random(15)
        for lin in (self.HYP, self.SHEAR):
            for _ in range(40):
                g = rand_el(rng, H)
                h = rand_el(rng, H)
                assert automorphism_action(H, lin, nil_mul(g, h)) == \
                    nil_mul(automorphism_action(H, lin, g),
                            automorphism_action(H, lin, h))

    def test_padic_action_commutes(self):
        rng = random.Random(16)
        for _ in range(25):
            g = nil_element_padic(
                H, [rng.randrange(125) for _ in range(3)], 5, 3)
            h = nil_element_padic(
                H, [rng.randrange(125) for _ in range(3)], 5, 3)
            assert automorphism_action(H, self.SHEAR, nil_mul(g, h)) == \
                nil_mul(automorphism_action(H, self.SHEAR, g),
                        automorphism_action(H, self.SHEAR, h))

    def test_padic_requires_integral_entries(self):
        g2 = nil_element_padic(H, (1, 0, 0), 2, 3)
        with pytest.raises(NotAnAutomorphism, match="integral"):
            automorphism_action(H, self.HYP, g2)
        # at p = 5 the entry 1/2 is a unit, so the same map acts fine
        g5 = nil_element_padic(H, (1, 0, 0), 5, 3)
        out = automorphism_action(H, self.HYP, g5)
        assert out.coords[0] == 2

    def test_shape_and_structure_checked(self):
        with pytest.raises(ValueError):
            automorphism_action(H, QMat([[1, 0], [0, 1]]), nil_identity(H))
        eye = QMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ScalarMismatch):
            automorphism_action(H, eye, nil_identity(HPLUSLINE))


class TestBracketInclusion:
    GRADED = (((1,), ((1, 0, 0),)),
              ((-1,), ((0, 1, 0),)),
              ((0,), ((0, 0, 1),)))

    def test_hyperbolic_grading_passes(self):
        rep = bracket_inclusion_check(H, self.GRADED)
        assert isinstance(rep, BracketReport)
        assert rep.ok and rep.failures == ()

    def test_abelian_any_tagging(self):
        rep = bracket_inclusion_check(
            ABELIAN2, (((3,), ((1, 0),)), ((7,), ((0, 1),))))
        assert rep.ok

    def test_missing_sum_tag_fails(self):
        rep = bracket_inclusion_check(
            H, (((1,), ((1, 0, 0),)), ((2,), ((0, 1, 0),)),
                ((0,), ((0, 0, 1),))))
        assert not rep.ok
        assert any("tagged" in msg for _, _, msg in rep.failures)

    def test_wrong_target_subspace_fails(self):
        # sum tag exists but the bracket of e0, e1 is central, not e1
        rep = bracket_inclusion_check(
            H, (((1,), ((1, 0, 0),)), ((0,), ((0, 1, 0),)),
                ((2,), ((0, 0, 1),))))
        assert not rep.ok

    def test_same_subspace_pair_checked(self):
        # e0, e1 share one tag; [e0, e1] would need tag 2, which is absent
        rep = bracket_inclusion_check(
            H, (((1,), ((1, 0, 0), (0, 1, 0))), ((0,), ((0, 0, 1),))))
        assert not rep.ok

    def test_center_absorbs_when_tagged_zero(self):
        # doubled grading: both generators positive, center tagged the sum
        rep = bracket_inclusion_check(
            H, (((1,), ((1, 0, 0),)), ((3,), ((0, 1, 0),)),
                ((4,), ((0, 0, 1),))))
        assert rep.ok

    def test_duplicate_tag_rejected(self):
        with pytest.raises(SplittingNotDirect, match="duplicate"):
            bracket_inclusion_check(
                H, (((1,), ((1, 0, 0),)), ((1,), ((0, 1, 0),)),
                    ((0,), ((0, 0, 1),))))

    def test_dependent_subspace_rejected(self):
        with pytest.raises(SplittingNotDirect, match="dependent"):
            bracket_inclusion_check(
                H, (((1,), ((1, 0, 0), (2, 0, 0))), ((0,), ((0, 0, 1),))))

    def test_not_spanning_rejected(self):
        with pytest.raises(SplittingNotDirect, match="split"):
            bracket_inclusion_check(
                H, (((1,), ((1, 0, 0),)), ((0,), ((0, 0, 1),))))

    def test_overlapping_subspaces_rejected(self):
        with pytest.raises(SplittingNotDirect, match="split"):
            bracket_inclusion_check(
                H, (((1,), ((1, 0, 0),)), ((2,), ((1, 0, 0),)),
                    ((0,), ((0, 0, 1), (0, 1, 0)))))

    def test_empty_subspace_rejected(self):
        with pytest.raises(SplittingNotDirect, match="empty"):
            bracket_inclusion_check(
                H, (((1,), ()), ((0,), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))

