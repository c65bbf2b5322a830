"""Ergodicity certificates, field splittings and the ergodic Z^2 subgroup.

A toral (or solenoid) automorphism is ergodic exactly when no eigenvalue is a
root of unity, i.e. when the characteristic polynomial is coprime to every
cyclotomic polynomial of degree <= d; its gcd with its reciprocal polynomial
holds every such factor, so only that gcd is tested.  Non-ergodicity comes
with a finite certificate: a period m and a primitive dual vector z fixed by
the m-th power of the transpose, whose character orbit averages to a
nonconstant invariant function.

The splitting/rank machinery decides when a commuting family genuinely has
higher rank.  Q^d splits into rational invariant blocks on which the action's
algebra is a field modulo nilpotents.  A block on which the Lyapunov value
vectors span a line (or vanish) is a rank-one factor and blocks every
higher-rank rigidity argument.  Otherwise the per-block matrices F_B of
functionals at every place certify an ergodic Z^2: a pair (a, b) with
F_B [a b] of rank 2 on every block makes every nonzero i a + j b ergodic,
with no box over (i, j).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoErgodicSubgroupFound, RankDeficient
from .exact import (QMat, QPoly, cyclotomic, cyclotomic_indices_up_to_degree,
                    hnf_rows, poly_gcd)
from .exact.intmat import (kernel_lattice, mat_mul_mod, mat_poly_mod,
                           mat_pow_mod, restrict_rows)
from .exact.factorq import factor_over_q
from .spectra import ActionSpec, joint_spectrum


@dataclass(frozen=True)
class ErgodicityCertificate:
    ergodic: bool
    period: int = None         # m with Phi_m dividing the charpoly, when not ergodic
    witness: tuple = None      # primitive z != 0 with (M^T)^m z = z


def is_ergodic(matrix) -> ErgodicityCertificate:
    """Root-of-unity test for a single invertible matrix over Q.

    Integer matrices are torus endomorphisms; rational ones act on the
    matching solenoid.  Either way the criterion is the same, and the witness
    is returned as a primitive integer dual vector.  Every Phi_m is
    self-reciprocal, so it divides cp exactly when it divides g = gcd(cp,
    x^d cp(1/x)); only the Phi_m with phi(m) <= deg g are tried, none when
    g = 1 (R. J. Bradford and J. H. Davenport, ISSAC '88, LNCS 358, 1989).
    """
    m = matrix if isinstance(matrix, QMat) else QMat(matrix)
    if not m.is_square():
        raise ValueError("ergodicity is defined for square matrices")
    d = m.shape[0]
    cp = m.charpoly()
    if cp[0] == 0:
        raise RankDeficient("singular matrix: no invertible dual action")
    g = poly_gcd(cp, QPoly(reversed(cp.coeffs)))
    for idx in cyclotomic_indices_up_to_degree(g.degree):
        if poly_gcd(g, cyclotomic(idx)).degree > 0:
            fixed = m.transpose().power(idx) - QMat.identity(d)
            kern = fixed.kernel()
            if not kern:
                raise RankDeficient(
                    "cyclotomic divisor without fixed dual vector")
            z = tuple(int(x) for x in kern[0])
            return ErgodicityCertificate(ergodic=False, period=idx, witness=z)
    return ErgodicityCertificate(ergodic=True)


# --- rational splitting -----------------------------------------------------


def _restrict_hnf(basis, m):
    """m restricted to the lattice of the HNF rows basis, whose pivots are
    their first nonzero entries."""
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    return restrict_rows(basis, pivots, m)


@dataclass(frozen=True)
class SplitBlock:
    basis: QMat                # saturated invariant lattice, HNF rows
    matrices: tuple            # restricted generators (integer)
    field: bool                # the action's algebra is certified a field
                               # on the block, modulo nilpotents

    @property
    def dim(self):
        return self.basis.shape[0]


def _polynomial_on_kernel(f: QPoly, m, mats) -> bool:
    """Is every matrix of mats, restricted to V0 = ker f(m), a polynomial in
    m there?  f is the minimal polynomial of m on V0, so 1, m, ...,
    m^(deg f - 1) are independent on V0 and the coefficients are unique
    when they exist; QMat.solve finds them or proves there are none."""
    m = m.int_rows()
    kern = kernel_lattice(mat_poly_mod(f.coeffs, m), len(m))
    m0 = _restrict_hnf(kern, m)
    powers = [mat_pow_mod(m0, 0)]
    while len(powers) < f.degree:
        powers.append(mat_mul_mod(powers[-1], m0))
    basis = QMat(list(zip(*([x for r in p for x in r] for p in powers))))
    for g in mats:
        g0 = _restrict_hnf(kern, g.int_rows())
        try:
            basis.solve(QMat([[x] for r in g0 for x in r]))
        except RankDeficient:
            return False
    return True


def _field_element(mats):
    """The first element m of the block's algebra whose charpoly either has
    several irreducible factors (m splits the block) or is f^e with every
    generator a polynomial in m on ker f(m) (the block is a field), as
    (m, factor_over_q of its charpoly); None when no candidate does either.

    The candidates are the generators, then M_t = sum_j t^j g_j for t = 1,
    ..., (k - 1) C(n, 2) + 1.  Two distinct joint eigenvalue tuples of the
    k generators give the same eigenvalue of M_t for at most k - 1 values
    of t, and there are at most C(n, 2) pairs of them, so some M_t
    separates all of them: it splits the block unless the action's algebra
    is local there, and then its image generates the residue field.  That
    certifies the block whenever the algebra acts semisimply on it.
    """
    rows = [g.int_rows() for g in mats]
    k, n = len(rows), len(rows[0])
    tries = (k - 1) * (n * (n - 1) // 2) + 1 if k > 1 else 0
    generic = (QMat([[sum(t ** j * g[r][c] for j, g in enumerate(rows))
                      for c in range(n)] for r in range(n)])
               for t in range(1, tries + 1))
    for m in itertools.chain(mats, generic):
        facs = factor_over_q(m.charpoly())
        if len(facs) > 1:
            return m, facs
        (f, e), = facs
        if e == 1 or _polynomial_on_kernel(f, m, mats):
            return m, facs
    return None


def rational_splitting(action: ActionSpec):
    """Split Q^d into rational invariant blocks on which the action's
    algebra is a field modulo nilpotents.

    A block is split by the primary components (kernels of f(M)^e over the
    irreducible factors f) of the first element M from _field_element that
    has several, until that element certifies the block; a block no
    candidate certifies comes back with field=False.  Every matrix here is
    integer, so the lattices are int rows: a component's saturated kernel
    lattice K is kernel_lattice of f(M)^e, from one HNF (f is a monic
    integer factor of an integer charpoly, by Gauss's lemma), and the block
    basis is hnf_rows(K @ basis), saturated because the basis is.  The
    generators restrict to it by restrict_rows on its HNF pivots, as QMats,
    so each one's charpoly is computed once.
    """
    ints = [g.int_rows() for g in action.generators]
    d = action.dim
    todo = [(mat_pow_mod(ints[0], 0), action.generators)]
    blocks = []
    while todo:
        basis, mats = todo.pop()
        found = _field_element(mats)
        if found is None or len(found[1]) == 1:
            blocks.append((basis, mats, found is not None))
            continue
        m, facs = found[0].int_rows(), found[1]
        for f, e in facs:
            kern = kernel_lattice(mat_pow_mod(mat_poly_mod(f.coeffs, m), e),
                                  len(m))
            sat = hnf_rows(mat_mul_mod(kern, basis))
            todo.append((sat, [QMat(_restrict_hnf(sat, g)) for g in ints]))
    if sum(len(b) for b, _, _ in blocks) != d:
        raise RankDeficient("invariant blocks do not span Q^d")
    out = []
    for basis, mats, field in sorted(blocks, key=lambda b: (len(b[0]), b[0])):
        out.append(SplitBlock(basis=QMat(basis), matrices=tuple(mats),
                              field=field))
    return out


@dataclass(frozen=True)
class RankOneReport:
    found: bool
    blocks: tuple              # (dim, value rank) per split block
    culprit: SplitBlock = None


def block_actions(action: ActionSpec):
    """[(SplitBlock, its restricted action)] of rational_splitting, kept in
    action.cache.  A lone block is the action itself.  Each block of a split
    action gets its own ActionSpec, whose split is set to the one block it
    is in its own coordinates, so that it is never split again."""
    if "split" not in action.cache:
        split = rational_splitting(action)
        if len(split) == 1:
            action.cache["split"] = [(split[0], action)]
        else:
            action.cache["split"] = [(blk, _lone(blk)) for blk in split]
    return action.cache["split"]


def _lone(blk: SplitBlock):
    act = ActionSpec(blk.matrices)
    act.cache["split"] = [(SplitBlock(basis=QMat.identity(blk.dim),
                                      matrices=blk.matrices,
                                      field=blk.field), act)]
    return act


def _block_spectra(action: ActionSpec, tol, padic_prec):
    """[(SplitBlock, joint spectrum of its restricted action at tol and
    padic_prec)].  Each block's spectra are kept in its own cache; a lone
    block shares the action's spectrum."""
    return [(blk, joint_spectrum(act, tol, padic_prec))
            for blk, act in block_actions(action)]


def _value_matrix(spec):
    """Rows: the value vectors of every functional (all places)."""
    return np.array([f.values for f in spec.functionals])


def _numerical_rank(rows, tol):
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def has_rank_one_factor(action: ActionSpec, tol=1e-9,
                        padic_prec=32) -> RankOneReport:
    """Does some rational invariant block carry Lyapunov data of rank <= 1?

    Rank is that of the matrix whose rows are the value vectors of every
    functional (all places) of the restricted action.  Rank 0 (an identity or
    finite-order block) counts: it is as rank-one an obstruction as a line.
    """
    ranks = []
    culprit = None
    for blk, spec in _block_spectra(action, tol, padic_prec):
        rank = _numerical_rank(_value_matrix(spec), tol)
        ranks.append((blk.dim, rank))
        if rank <= 1 and culprit is None:
            culprit = blk
    return RankOneReport(found=culprit is not None, blocks=tuple(ranks),
                         culprit=culprit)


# --- ergodic Z^2 subgroup ----------------------------------------------------


def _norm_lex(k, bound):
    """Nonzero integer vectors by (sup norm, lex), sup norm <= bound."""
    for n in range(1, bound + 1):
        for a in itertools.product(range(-n, n + 1), repeat=k):
            if max(abs(x) for x in a) == n:
                yield a


def _canonical_sign(a):
    for x in a:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


_KERNEL_DENOMINATOR = 100   # the rounded kernel direction's largest entry


def _rounded_direction(v):
    """The primitive integer (i, j), first nonzero entry positive, nearest
    in direction to the real 2-vector v among those with entries of at most
    _KERNEL_DENOMINATOR."""
    x, y = float(v[0]), float(v[1])
    if abs(x) >= abs(y):
        r = Fraction(y / x).limit_denominator(_KERNEL_DENOMINATOR)
        return r.denominator, r.numerator
    r = Fraction(x / y).limit_denominator(_KERNEL_DENOMINATOR)
    return (r.numerator, r.denominator) if r >= 0 else \
        (-r.numerator, -r.denominator)


@dataclass(frozen=True)
class Z2SubgroupCertificate:
    pair: tuple                # (a, b), each a vector in Z^rank; every
                               # nonzero i a + j b is ergodic ("covers": span)
    value_rank: int            # rank of the pair's value vectors, 2


def ergodic_z2_subgroup(action: ActionSpec, pair_bound=2, combo_bound=20,
                        tol=1e-9, padic_prec=32):
    """Find (a, b) such that every nonzero i a + j b is ergodic.

    On a field block B the eigenvalues of rho(v) are the Galois conjugates
    of one algebraic number, a root of unity exactly when every Lyapunov
    functional of B, at every place, vanishes at v (Kronecker's theorem and
    the product formula; K. Schmidt, Dynamical Systems of Algebraic Origin,
    1995).  So the first candidate pair, in (sup norm, lex) order up to
    pair_bound, with F_B [a b] of rank 2 on every block is certified, F_B
    the block's value matrix.  The float rank is spot-checked exactly at a,
    b, a + b and a - b; a failure ends the search without a certificate.  A
    rejected pair is obstructed by the rounded kernel direction (i, j) of
    some F_B [a b], a "non-ergodic combination" when the exact test
    confirms i a + j b.  combo_bound bounds nothing; it is reported in the
    budget of a failure.
    """
    blocks = _block_spectra(action, tol, padic_prec)
    budget = (pair_bound, combo_bound)
    for blk, _ in blocks:
        if not blk.field:
            raise NoErgodicSubgroupFound(
                obstructions=[], budget=budget,
                reason=f"a block of dimension {blk.dim} is not certified "
                       "to be a field")
    values = [_value_matrix(spec) for _, spec in blocks]

    def combination(a, b, ij):
        return tuple(ij[0] * x + ij[1] * y for x, y in zip(a, b))

    # primitive with a positive first nonzero entry: no two are parallel
    candidates = [a for a in _norm_lex(action.rank, pair_bound)
                  if _canonical_sign(a) and math.gcd(*a) == 1]
    obstructions = []
    for ai in range(len(candidates)):
        for bi in range(ai + 1, len(candidates)):
            a, b = candidates[ai], candidates[bi]
            pair = np.array([a, b], dtype=float).T
            kernel = None
            for rows in values:
                image = rows @ pair
                if _numerical_rank(image, tol) < 2:
                    kernel = np.linalg.svd(image)[2][-1]
                    break
            if kernel is None:
                for ij in ((1, 0), (0, 1), (1, 1), (1, -1)):
                    cert = is_ergodic(action.element(combination(a, b, ij)))
                    if not cert.ergodic:
                        obstructions.append(((a, b), "non-ergodic combination",
                                             (ij, cert.period)))
                        raise NoErgodicSubgroupFound(obstructions, budget)
                return Z2SubgroupCertificate(pair=(a, b), value_rank=2)
            ij = _rounded_direction(kernel)
            cert = is_ergodic(action.element(combination(a, b, ij)))
            if cert.ergodic:
                obstructions.append(((a, b), "value vectors dependent", None))
            else:
                obstructions.append(((a, b), "non-ergodic combination",
                                     (ij, cert.period)))
    raise NoErgodicSubgroupFound(obstructions=obstructions, budget=budget)
