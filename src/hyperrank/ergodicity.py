"""Ergodicity certificates and ergodic subgroup search.

A toral (or solenoid) automorphism is ergodic exactly when no eigenvalue is a
root of unity, i.e. when the characteristic polynomial is coprime to every
cyclotomic polynomial of degree <= d.  Non-ergodicity comes with a finite
certificate: a period m and a primitive dual vector z fixed by the m-th power
of the transpose, whose character orbit averages to a nonconstant invariant
function.

The splitting/rank machinery decides when a commuting family genuinely has
higher rank: a rational invariant block on which the Lyapunov value vectors
span a line (or vanish) is a rank-one factor and blocks every higher-rank
rigidity argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoErgodicSubgroupFound, RankDeficient
from .exact import (QMat, QPoly, cyclotomic, cyclotomic_indices_up_to_degree,
                    hnf_rows, poly_gcd)
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
    is returned as a primitive integer dual vector.
    """
    m = matrix if isinstance(matrix, QMat) else QMat(matrix)
    if not m.is_square():
        raise ValueError("ergodicity is defined for square matrices")
    d = m.shape[0]
    cp = m.charpoly()
    if cp[0] == 0:
        raise RankDeficient("singular matrix: no invertible dual action")
    for idx in cyclotomic_indices_up_to_degree(d):
        if poly_gcd(cp, cyclotomic(idx)).degree > 0:
            fixed = m.transpose().power(idx) - QMat.identity(d)
            kern = fixed.kernel()
            if not kern:
                raise RankDeficient(
                    "cyclotomic divisor without fixed dual vector")
            z = tuple(int(x) for x in kern[0])
            return ErgodicityCertificate(ergodic=False, period=idx, witness=z)
    return ErgodicityCertificate(ergodic=True)


# --- rational splitting -----------------------------------------------------


def _poly_at(f: QPoly, m: QMat) -> QMat:
    out = QMat.zeros(*m.shape)
    for c in reversed(f.coeffs):
        out = out @ m + QMat.identity(m.shape[0]).scalar(c)
    return out


def _saturate_rows(v: QMat) -> QMat:
    """HNF basis of rowspan(v) intersected with Z^n (the saturated lattice).

    That lattice is the integer kernel of the complement C = v.kernel(): the
    rows of hnf_rows([C^T | I]) whose C^T part is zero carry a basis of it in
    their I part, already in HNF (H. Cohen, A Course in Computational
    Algebraic Number Theory, 1993, ch. 2).
    """
    n = v.shape[1]
    comp = v.kernel()
    k = len(comp)
    rows = [[c[j] for c in comp] + [int(i == j) for i in range(n)]
            for j in range(n)]
    return QMat([row[k:] for row in hnf_rows(rows) if not any(row[:k])])


def _restrict_rows(basis: QMat, m: QMat) -> QMat:
    """X with m @ basis^T = basis^T @ X, the restriction of m to the span of
    the basis vectors in their coordinates; integer when the basis is
    saturated."""
    bt = basis.transpose()
    return bt.solve(m @ bt)


@dataclass(frozen=True)
class SplitBlock:
    basis: QMat                # saturated invariant lattice, HNF rows
    matrices: tuple            # restricted generators (integer)
    charpolys: tuple

    @property
    def dim(self):
        return self.basis.shape[0]


def rational_splitting(obj):
    """Finest common splitting of Q^d into rational invariant subspaces.

    Blocks are primary components (kernels of f(M)^e over the irreducible
    factors f), refined generator by generator; each comes back with a
    saturated HNF lattice basis and the restricted integer matrices.
    """
    if isinstance(obj, ActionSpec):
        gens = list(obj.generators)
    elif isinstance(obj, QMat):
        gens = [obj]
    else:
        gens = [QMat(obj)]
    d = gens[0].shape[0]
    blocks = [(QMat.identity(d), gens)]
    for gi in range(len(gens)):
        nxt = []
        for basis, mats in blocks:
            r = mats[gi]
            facs = factor_over_q(r.charpoly())
            if len(facs) == 1:
                nxt.append((basis, mats))
                continue
            for f, e in facs:
                p = _poly_at(f, r).power(e)
                kern = p.kernel()
                sub = QMat(kern) @ basis
                sat = _saturate_rows(sub)
                nxt.append((sat, [_restrict_rows(sat, g) for g in gens]))
        blocks = nxt
    if sum(b.shape[0] for b, _ in blocks) != d:
        raise RankDeficient("invariant blocks do not span Q^d")
    out = []
    for basis, mats in sorted(blocks, key=lambda bm: (bm[0].shape[0],
                                                      bm[0].rows)):
        for m in mats:
            if not m.is_integer():
                raise RankDeficient("restriction to a saturated lattice "
                                    "produced non-integer entries")
        out.append(SplitBlock(basis=basis, matrices=tuple(mats),
                              charpolys=tuple(m.charpoly() for m in mats)))
    return out


@dataclass(frozen=True)
class RankOneReport:
    found: bool
    blocks: tuple              # (dim, value rank) per split block
    culprit: SplitBlock = None


def has_rank_one_factor(action: ActionSpec, tol=1e-8) -> RankOneReport:
    """Does some rational invariant block carry Lyapunov data of rank <= 1?

    Rank is that of the matrix whose rows are the value vectors of every
    functional (all places) of the restricted action.  Rank 0 (an identity or
    finite-order block) counts: it is as rank-one an obstruction as a line.
    """
    ranks = []
    culprit = None
    for blk in rational_splitting(action):
        sub = ActionSpec(blk.matrices)
        spec = joint_spectrum(sub)
        rows = np.array([f.values for f in spec.functionals])
        s = np.linalg.svd(rows, compute_uv=False)
        rank = int(np.sum(s > tol * max(1.0, s[0])))
        ranks.append((blk.dim, rank))
        if rank <= 1 and culprit is None:
            culprit = blk
    return RankOneReport(found=culprit is not None, blocks=tuple(ranks),
                         culprit=culprit)


# --- subgroup search ---------------------------------------------------------


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


@dataclass(frozen=True)
class Z2SubgroupCertificate:
    pair: tuple                # (a, b), each a vector in Z^rank
    combo_bound: int           # every primitive i a + j b with |(i,j)|_inf
    checked: int               # below this bound was verified ergodic
    value_rank: int


def ergodic_z2_subgroup(action: ActionSpec, pair_bound=2, combo_bound=20,
                        tol=1e-8):
    """Search for (a, b) generating a Z^2 of totally ergodic elements.

    Certificate: every primitive combination i a + j b with |(i, j)|_inf <=
    combo_bound is ergodic (exact cyclotomic test, cached per element), and
    the two Lyapunov value vectors are independent, so the pair really spans
    a rank-2 subgroup.  Failures are collected as obstructions.
    """
    spec = joint_spectrum(action)
    cache = {}

    def erg(vec):
        key = vec
        if key not in cache:
            cache[key] = is_ergodic(action.element(vec))
        return cache[key]

    candidates = [a for a in _norm_lex(action.rank, pair_bound)
                  if _canonical_sign(a) and math.gcd(*a) == 1]
    obstructions = []
    for ai in range(len(candidates)):
        for bi in range(ai + 1, len(candidates)):
            a, b = candidates[ai], candidates[bi]
            if QMat([a, b]).rank() < 2:
                continue
            va = [f.value_at(a) for f in spec.functionals]
            vb = [f.value_at(b) for f in spec.functionals]
            s = np.linalg.svd(np.array([va, vb]), compute_uv=False)
            value_rank = int(np.sum(s > tol * max(1.0, s[0])))
            if value_rank < 2:
                obstructions.append(((a, b), "value vectors dependent", None))
                continue
            checked = 0
            bad = None
            for ij in _norm_lex(2, combo_bound):
                if not _canonical_sign(ij) or math.gcd(*ij) != 1:
                    continue
                i, j = ij
                vec = tuple(i * x + j * y for x, y in zip(a, b))
                cert = erg(vec)
                checked += 1
                if not cert.ergodic:
                    bad = (ij, cert.period)
                    break
            if bad is None:
                return Z2SubgroupCertificate(pair=(a, b),
                                             combo_bound=combo_bound,
                                             checked=checked,
                                             value_rank=value_rank)
            obstructions.append(((a, b), "non-ergodic combination", bad))
    raise NoErgodicSubgroupFound(obstructions=obstructions,
                                 budget=(pair_bound, combo_bound))
