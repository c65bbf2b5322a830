"""Lyapunov spectra of commuting integer-matrix actions, at every place.

The joint spectrum is computed by sequential invariant-subspace refinement:

* real place: numerical, splitting each block by the log-modulus clusters of
  the restricted generator (numpy eigenvalues; group subspaces are null
  spaces of the group's own characteristic factor evaluated on the block).

* p-adic places: exact, mod p^K.  Every generator but the last splits the
  blocks by the Newton-polygon slope classes of the restricted generator:
  powering by the lcm of slope denominators makes the valuations integral
  without changing the invariant subspaces, then slope-class factors are
  peeled off by Hensel-splitting the unit part and shifting x -> p x, and
  each class subspace is realized as the saturated column span of the
  complementary factors evaluated on the block, on which only the later
  generators are restricted.  Nothing splits a block
  after the last generator, so its classes and their multiplicities are
  read off the Newton polygon of its block charpoly, with no subspace
  built.  The root block (the whole action, while no generator has split
  it) reads the generators' memoized exact charpolys, so a rank-1 action
  needs no precision at all.  Precision loss is tracked; PrecisionExhausted
  triggers a retry at doubled precision from the exact integer inputs.

An action of rank >= 2 that splits into several rational invariant blocks
(ergodicity.rational_splitting) refines each p-adic place once, per block:
the blocks' functionals at p are merged into the action's.  Its real place
is still refined on the whole action.

Valuations are exact Fractions end to end; only the final functional values
(v times log p, log moduli) are floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (CommutativityViolated, HyperrankError,
                     PrecisionExhausted, RankDeficient, RootFindingFailure)
from .exact import QMat, factor_int, primitive_vector, vp_int
from .exact import modp
from .exact.intmat import (berkowitz_charpoly_mod, mat_mod, mat_poly_mod,
                           mat_pow_mod, restrict_rows)
from .exact.modp import hensel_lift
from .exact.newton import newton_polygon


@dataclass(frozen=True)
class ActionSpec:
    """k commuting nonsingular integer matrices acting on the d-torus (and on
    its solenoid extension when determinants are not +-1)."""

    generators: tuple
    # derived data kept per action: joint spectra, or the error one raised,
    # by (tol, padic_prec) and block spectra, where a lone block shares the
    # action's joint spectrum
    cache: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        gens = tuple(g if isinstance(g, QMat) else QMat(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("need at least one generator")
        d = gens[0].shape[0]
        for i, g in enumerate(gens):
            if not g.is_square() or g.shape[0] != d:
                raise ValueError(f"generator {i} is not square of dimension {d}")
            if not g.is_integer():
                raise ValueError(f"generator {i} has non-integer entries")
            if g.det() == 0:
                raise RankDeficient(f"generator {i} is singular")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if gens[i] @ gens[j] != gens[j] @ gens[i]:
                    raise CommutativityViolated(i, j)

    @property
    def dim(self):
        return self.generators[0].shape[0]

    @property
    def rank(self):
        return len(self.generators)

    def dets(self):
        return [g.det() for g in self.generators]

    def primes(self):
        """Primes dividing any generator determinant, ascending."""
        out = set()
        for det in self.dets():
            out.update(factor_int(det))
        return sorted(out)

    def element(self, a):
        """rho(a) = prod generators[i]^a[i]; rational when any a[i] < 0."""
        if len(a) != self.rank:
            raise ValueError(f"element vector must have length {self.rank}")
        out = None
        for g, e in zip(self.generators, a):
            if e:
                power = g.power(int(e))
                out = power if out is None else out @ power
        return QMat.identity(self.dim) if out is None else out


@dataclass(frozen=True)
class LyapunovFunctional:
    """One joint Lyapunov functional: its place ('real' or a prime p), the
    value vector over the generators, exact valuations when p-adic, and the
    dimension of its subspace."""

    place: object              # 'real' or int prime
    values: tuple              # floats, one per generator
    multiplicity: int
    exact: tuple = None        # Fractions (valuations per generator) for p-adic

    def value_at(self, a):
        return sum(v * float(e) for v, e in zip(self.values, a))


@dataclass(frozen=True)
class LyapunovSpectrum:
    dim: int
    rank: int
    functionals: tuple
    product_residual: float    # max over generators of |sum mult * value| (all places)


# --- single-matrix spectra --------------------------------------------------


def real_lyapunov(matrix):
    """[(log|lambda|, multiplicity)] ascending, clustered within 1e-9."""
    m = matrix if isinstance(matrix, QMat) else QMat(matrix)
    if m.det() == 0:
        raise RankDeficient("singular matrix has a -infinity exponent")
    logm = np.sort(_log_moduli(np.linalg.eigvals(
        np.array(m.int_rows(), dtype=float))))
    out = []
    for v in logm:
        if out and v - out[-1][0] <= 1e-9:
            val, mult = out[-1]
            out[-1] = ((val * mult + v) / (mult + 1), mult + 1)
        else:
            out.append((float(v), 1))
    return [(float(v), m_) for v, m_ in out]


def _log_moduli(eigs):
    """log|lambda| of the float eigenvalues of a nonsingular matrix."""
    mods = np.abs(eigs)
    if not mods.all():
        raise RootFindingFailure(
            "a float eigenvalue of the nonsingular matrix underflows to "
            "modulus 0; its log-modulus is not resolved at working precision")
    return np.log(mods)


# --- real joint refinement --------------------------------------------------


def _matpoly(coeffs_desc, M):
    eye = np.eye(M.shape[0])
    out = np.zeros_like(M)
    for c in coeffs_desc:
        out = out @ M + c * eye
    return out


def _nullspace(P, expect, context):
    u, s, vt = np.linalg.svd(P)
    scale = max(s[0], 1.0)
    small = int(np.sum(s <= 1e-8 * scale))
    if small != expect:
        raise RootFindingFailure(
            f"{context}: null space dimension {small}, expected {expect}; "
            "eigenvalue clusters not separated at working tolerance")
    return vt[len(s) - expect:].T


def _real_refine(action: ActionSpec, tol):
    d = action.dim
    gens = [np.array(g.int_rows(), dtype=float) for g in action.generators]
    blocks = [(np.eye(d), [])]
    for gi, A in enumerate(gens):
        last = gi == len(gens) - 1
        nxt = []
        for Q, vals in blocks:
            Ar = Q.T @ A @ Q
            eigs = np.linalg.eigvals(Ar)
            logm = _log_moduli(eigs)
            order = np.argsort(logm)
            groups = [[order[0]]]
            for idx in order[1:]:
                if logm[idx] - logm[groups[-1][-1]] <= max(tol, 1e-10):
                    groups[-1].append(idx)
                else:
                    groups.append([idx])
            if len(groups) == 1:
                nxt.append((Q, vals + [float(np.mean(logm))]))
                continue
            for grp in groups:
                q = np.real(np.poly(eigs[grp]))  # conjugates share |.|, so real
                P = _matpoly(q, Ar)
                null = _nullspace(P, len(grp), f"block split at |eig| group")
                # nothing splits a block after the last generator: only the
                # null space's dimension is read, so no subspace is built
                Qg = null if last else np.linalg.qr(Q @ null)[0]
                nxt.append((Qg, vals + [float(np.mean(logm[grp]))]))
        blocks = nxt
    out = [(tuple(vals), Q.shape[1]) for Q, vals in blocks]
    if sum(m for _, m in out) != d:
        raise RootFindingFailure("real blocks do not span R^d")
    return out


# --- p-adic joint refinement ------------------------------------------------


_MIN_PREC = 4  # digits below which saturation results are not trusted


def _polygon_classes(coeffs, p, W):
    """Slope classes ((valuation Fraction >= 0, multiplicity), ...) of a
    monic polynomial known mod p^W.  Raises PrecisionExhausted when a
    coefficient indistinguishable from zero could cut the hull."""
    if coeffs[0] == 0:
        raise PrecisionExhausted(
            "constant term is 0 mod p^W; determinant valuation >= precision")
    poly = newton_polygon(coeffs, p)
    hull = poly.vertices
    for i, c in enumerate(coeffs[1:-1], 1):
        if c != 0:
            continue
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= i <= x2:
                if y1 + Fraction(y2 - y1, x2 - x1) * (i - x1) >= W:
                    raise PrecisionExhausted(
                        f"hull at index {i} reaches the precision ceiling {W}")
                break
    if any(v < 0 for v, _ in poly.slopes):
        raise PrecisionExhausted("negative slope from a p-integral matrix: "
                                 "precision artifact")
    return poly.slopes


def _slope_class_factors(F, p, W):
    """Split monic F (integer root valuations, known mod p^W) into slope-class
    factors: [(coeffs mod p^W', integer valuation, W')]."""
    classes = _polygon_classes(F, p, W)
    if any(v.denominator != 1 for v, _ in classes):
        raise ValueError("slope-class split requires integral valuations")
    if len(classes) == 1:
        return [(list(F), int(classes[0][0]), W)]
    degree = len(F) - 1
    vmax = int(max(v for v, _ in classes))
    if W < _MIN_PREC + vmax * degree:
        raise PrecisionExhausted(
            f"need about {vmax * degree} spare digits for slope shifts, have {W}")
    if min(v for v, _ in classes) == 0:
        # unit part splits off mod p: F = x^w * U with U(0) != 0
        fbar = [c % p for c in F]
        w = next(i for i, c in enumerate(fbar) if c != 0)
        unit_part = fbar[w:]
        g_plus, g_zero = hensel_lift(F, [[0] * w + [1], unit_part], p, W)
        return _slope_class_factors(g_plus, p, W) + [(g_zero, 0, W)]
    # every valuation >= 1: substitute x -> p x (divide roots by p), recurse
    shifted = [F[i] // p ** (degree - i) for i in range(len(F))]
    W1 = W - degree
    q1 = p ** W1
    shifted = [c % q1 for c in shifted]
    out = []
    for g1, v1, Wg in _slope_class_factors(shifted, p, W1):
        dg = len(g1) - 1
        qg = p ** Wg
        g = [g1[i] * p ** (dg - i) % qg for i in range(len(g1))]
        out.append((g, v1 + 1, Wg))
    return out


def _saturate_columns(cols, p, W, expect_dim):
    """Saturated lattice basis of the column span, in pivot-identity form.

    Returns (basis columns, pivot rows, remaining precision).  Gauss-Jordan
    with global-minimal-valuation pivoting; each pivot division by p^v costs v
    digits of working precision.
    """
    q = p ** W
    cols = [[x % q for x in c] for c in cols]
    n = len(cols[0]) if cols else 0
    basis, pivots = [], []
    while True:
        best = None
        for j, c in enumerate(cols):
            for i, x in enumerate(c):
                if x != 0:
                    v = vp_int(x, p)
                    if v < W and (best is None or v < best[0]):
                        best = (v, j, i)
        if best is None:
            break
        v, j, i = best
        c = cols.pop(j)
        if v > 0:
            W -= v
            if W < _MIN_PREC:
                raise PrecisionExhausted("pivot divisions consumed the precision")
            q = p ** W
            c = [(x // p ** v) % q for x in c]
            cols = [[x % q for x in col] for col in cols]
            basis = [[x % q for x in b] for b in basis]
        c = [x * pow(c[i], -1, q) % q for x in c]
        c[i] = 1
        for arr in (cols, basis):
            for cc in arr:
                f = cc[i] % q
                if f:
                    for r in range(n):
                        cc[r] = (cc[r] - f * c[r]) % q
                    cc[i] = 0
        basis.append(c)
        pivots.append(i)
        if len(basis) > expect_dim:
            raise PrecisionExhausted(
                f"span dimension exceeds expected {expect_dim}")
    if len(basis) != expect_dim:
        raise PrecisionExhausted(
            f"span dimension {len(basis)}, expected {expect_dim}")
    return basis, pivots, W


def _block_charpoly(blk, p):
    """The block's first generator's charpoly on the block, mod p^W: the
    root reduces its memoized exact charpoly, a split block runs Berkowitz."""
    q = p ** blk["W"]
    if blk["exact"]:
        return [c % q for c in blk["exact"][0].charpoly()]
    return berkowitz_charpoly_mod(blk["gens"][0], q)


def _last_classes(blk, p):
    """Slope classes of the last generator, all the block has left,
    descending, as _slope_class_factors orders its factors.  Nothing splits
    the block after it, so its classes and their multiplicities are the
    Newton slopes of its block charpoly, which the root reads exactly."""
    if blk["exact"]:
        classes = newton_polygon(blk["exact"][0].charpoly(), p).slopes
    else:
        classes = _polygon_classes(_block_charpoly(blk, p), p, blk["W"])
    return classes[::-1]


def _split_block(blk, p):
    W = blk["W"]
    R, rest = blk["gens"][0], blk["gens"][1:]
    m = len(R)
    q = p ** W
    cp = _block_charpoly(blk, p)
    classes = _polygon_classes(cp, p, W)
    if len(classes) == 1:
        blk["vals"].append(classes[0][0])
        blk["gens"], blk["exact"] = rest, blk["exact"][1:]
        return [blk]
    e = 1
    for v, _ in classes:
        e = e * v.denominator // math.gcd(e, v.denominator)
    B = R if e == 1 else mat_pow_mod(R, e, q)
    cpB = cp if e == 1 else berkowitz_charpoly_mod(B, q)
    facs = _slope_class_factors(cpB, p, W)
    expect = {v * e: mult for v, mult in classes}
    got = {}
    for coeffs, v, _ in facs:
        got[Fraction(v)] = got.get(Fraction(v), 0) + len(coeffs) - 1
    if got != expect:
        raise PrecisionExhausted(
            f"slope factor degrees {got} disagree with polygon {expect}")
    Wf = min([W] + [w for _, _, w in facs])
    qf = p ** Wf
    out = []
    for idx, (coeffs_v, vint, _) in enumerate(facs):
        others = [1]   # the other factors' product, at B by one Horner
        for jdx, (coeffs_w, _, _) in enumerate(facs):
            if jdx != idx:
                others = modp.mul(others, coeffs_w, qf)
        proj = mat_poly_mod(others, B, qf)
        cols = [[proj[r][j] for r in range(m)] for j in range(m)]
        basis, pivots, Wn = _saturate_columns(cols, p, Wf,
                                              expect_dim=len(coeffs_v) - 1)
        try:
            gens_r = [restrict_rows(basis, pivots, g, p ** Wn)
                      for g in rest]
        except RankDeficient:
            raise PrecisionExhausted(
                "restricted image leaves the subspace at working precision")
        out.append(dict(W=Wn, gens=gens_r, exact=(),
                        vals=blk["vals"] + [Fraction(vint, e)]))
    return out


def _padic_refine(action: ActionSpec, p, prec):
    q = p ** prec
    root = dict(W=prec,
                gens=[mat_mod(g.int_rows(), q) for g in action.generators],
                vals=[], exact=action.generators)
    blocks = [root]
    for _ in range(action.rank - 1):
        nxt = []
        for blk in blocks:
            nxt.extend(_split_block(blk, p))
        blocks = nxt
    out = [(tuple(blk["vals"] + [v]), mult) for blk in blocks
           for v, mult in _last_classes(blk, p)]
    if sum(m for _, m in out) != action.dim:
        raise PrecisionExhausted(f"p = {p}: blocks do not span Q_p^d")
    return out


def _padic_functionals(action, p, base_prec):
    """p-adic refinement, doubling the precision from base_prec until it
    succeeds or has run at a bound from the determinants.  Per splitting
    generator g, with e the lcm of the slope denominators, the slope shifts
    need up to dim e v_p(det g) spare digits, and the shifts and saturation
    pivots use up to (dim + 1) e v_p(det g).  The bound takes e <= dim,
    which fails only when one block mixes slope denominators with a larger
    lcm.  The last generator only needs its block charpolys' Newton
    polygons resolved, and an unsplit root reads its polygon exactly, so a
    rank-1 action succeeds at the first attempt."""
    dim = action.dim
    need = _MIN_PREC + (2 * dim + 1) * dim * sum(
        vp_int(det, p) for det in action.dets())
    prec = base_prec
    while True:
        try:
            return _padic_refine(action, p, prec)
        except PrecisionExhausted as exc:
            if prec >= need:
                raise PrecisionExhausted(
                    f"p = {p}: still failing at {prec} digits: {exc}")
            prec *= 2


def _merged_padic(action, primes, tol, padic_prec):
    """{p: [(valuations, multiplicity)]} from the block spectra of an
    action that splits into several rational blocks; None at rank 1 (a
    split costs more than it saves there), with no prime, with one block,
    or when a block raises.  The blocks are invariant over Q, so the joint
    slope spaces at p are sums of theirs: equal valuation tuples add their
    multiplicities, and a block whose determinants are p-units adds
    (0, ..., 0) once per dimension.  Sorted descending, as _padic_refine
    gives them: it splits by one generator after another, each into
    descending slopes, and lists the last generator's slope classes of
    each block in descending order too."""
    if action.rank < 2 or not primes:
        return None
    from .ergodicity import block_actions   # it imports this module
    try:
        split = block_actions(action)
        if len(split) == 1:
            return None
        blocks = [(act.dim, joint_spectrum(act, tol, padic_prec))
                  for _, act in split]
    except HyperrankError:
        return None
    merged = {p: {} for p in primes}
    for dim, spec in blocks:
        for p, mults in merged.items():
            found = [(f.exact, f.multiplicity) for f in spec.functionals
                     if f.place == p] or [((Fraction(0),) * action.rank, dim)]
            for vals, mult in found:
                mults[vals] = mults.get(vals, 0) + mult
    return {p: sorted(mults.items(), reverse=True)
            for p, mults in merged.items()}


# --- the joint spectrum -----------------------------------------------------


def joint_spectrum(action: ActionSpec, tol=1e-9, padic_prec=32) -> LyapunovSpectrum:
    """All joint Lyapunov functionals of the action, real and p-adic places.

    Real values are floats (clustered within tol); p-adic functionals carry
    exact valuations.  An action of rank >= 2 that ergodicity's rational
    splitting cuts into several blocks takes its p-adic functionals from
    the block spectra (_merged_padic), so each place is refined once, per
    block; a block that fails leaves the refinement to the whole action.
    The product-formula residual (sum of multiplicity times value over all
    places, per generator) is checked exactly in the p-adic part and within
    float tolerance overall.  The result, or the HyperrankError raised, is
    memoized in action.cache under ("spectrum", tol, padic_prec), so a block
    that failed in the merge is not refined again.
    """
    key = ("spectrum", tol, padic_prec)
    if key not in action.cache:
        try:
            action.cache[key] = _spectrum(action, tol, padic_prec)
        except HyperrankError as exc:
            action.cache[key] = exc
    if isinstance(action.cache[key], HyperrankError):
        raise action.cache[key]
    return action.cache[key]


def _spectrum(action, tol, padic_prec):
    functionals = []
    for vals, mult in _real_refine(action, tol):
        functionals.append(LyapunovFunctional(
            place="real", values=vals, multiplicity=mult))
    dets = action.dets()
    logdets = [math.log(abs(det)) for det in dets]
    primes = action.primes()
    merged = _merged_padic(action, primes, tol, padic_prec)
    for p in primes:
        blocks = (merged[p] if merged else
                  _padic_functionals(action, p, padic_prec))
        for g in range(action.rank):
            total = sum(v[g] * mult for v, mult in blocks)
            expected = vp_int(dets[g], p)
            if total != expected:
                raise RootFindingFailure(
                    f"p = {p}: valuation sum {total} != v_p(det) = {expected} "
                    f"for generator {g}")
        logp = math.log(p)
        for vals, mult in blocks:
            functionals.append(LyapunovFunctional(
                place=p,
                values=tuple(-float(v) * logp for v in vals),
                multiplicity=mult,
                exact=tuple(vals)))
    residual = 0.0
    for g in range(action.rank):
        total = sum(f.values[g] * f.multiplicity for f in functionals)
        residual = max(residual, abs(total))
        real_sum = sum(f.values[g] * f.multiplicity
                       for f in functionals if f.place == "real")
        if abs(real_sum - logdets[g]) > 1e-6 * max(1.0, action.dim):
            raise RootFindingFailure(
                f"real exponents sum to {real_sum}, want log|det| = {logdets[g]}")
    return LyapunovSpectrum(dim=action.dim, rank=action.rank,
                            functionals=tuple(functionals),
                            product_residual=residual)


# --- coarse classes and Weyl chambers ---------------------------------------


def _positively_proportional(f1: LyapunovFunctional, f2: LyapunovFunctional, tol):
    v1, v2 = f1.values, f2.values
    n1 = math.sqrt(sum(x * x for x in v1))
    n2 = math.sqrt(sum(x * x for x in v2))
    if n1 <= tol and n2 <= tol:
        return True           # both zero functionals: one trivial class
    if n1 <= tol or n2 <= tol:
        return False
    if f1.exact is not None and f2.exact is not None and f1.place == f2.place:
        # exact rational decision on the valuation vectors (sign flips: values
        # are -v log p, so positive proportionality means same-sign valuations)
        j = next(i for i, x in enumerate(f1.exact) if x != 0)
        if f2.exact[j] == 0:
            return False
        c = Fraction(f2.exact[j], f1.exact[j])
        if c <= 0:
            return False
        return all(Fraction(y) == c * Fraction(x)
                   for x, y in zip(f1.exact, f2.exact))
    c = sum(x * y for x, y in zip(v1, v2)) / (n1 * n1)
    if c <= 0:
        return False
    dist = math.sqrt(sum((y - c * x) ** 2 for x, y in zip(v1, v2)))
    return dist <= max(tol, 1e-9) * max(1.0, n2)


def coarse_classes(spectrum: LyapunovSpectrum, tol=1e-9):
    """Partition of functional indices into positive-proportionality classes."""
    classes = []
    for i, f in enumerate(spectrum.functionals):
        for cls in classes:
            if _positively_proportional(spectrum.functionals[cls[0]], f, tol):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


@dataclass(frozen=True)
class WeylChamber:
    signs: tuple               # sign of each (nonzero) functional on the chamber
    representative: tuple      # least-sup-norm integer vector inside
    boundary_angles: tuple     # (start, end) angles of the open sector
    boundary_rays: tuple       # exact integer directions when known, else None


def weyl_chambers(spectrum: LyapunovSpectrum, tol=1e-9):
    """Open cones on which every functional has constant nonzero sign (k = 2).

    Each kernel line contributes two boundary rays; chambers are the open
    sectors between consecutive rays, each represented by its primitive
    integer vector of least sup norm.
    """
    if spectrum.rank != 2:
        raise ValueError("Weyl chambers are enumerated for rank-2 actions only")
    funcs = [f for f in spectrum.functionals
             if math.hypot(*f.values) > max(tol, 1e-12)]
    lines = []  # (angle in [0, pi), exact primitive direction or None)
    for f in funcs:
        a, b = f.values
        ang = math.atan2(a, -b) % math.pi
        exact = None
        if f.exact is not None:
            s1, s2 = f.exact
            exact = primitive_vector([-Fraction(s2), Fraction(s1)])
        for li, (la, lex) in enumerate(lines):
            if min(abs(la - ang), math.pi - abs(la - ang)) <= 1e-9:
                if lex is None and exact is not None:
                    lines[li] = (la, exact)
                break
        else:
            lines.append((ang, exact))
    if not lines:
        return []
    rays = []
    for ang, exact in sorted(lines):
        rays.append((ang, exact))
        neg = tuple(-x for x in exact) if exact is not None else None
        rays.append((ang + math.pi, neg))
    rays.sort()
    chambers = []
    for (a0, e0), (a1, e1) in zip(rays, rays[1:] + [(rays[0][0] + 2 * math.pi,
                                                     rays[0][1])]):
        rep = _simplest_direction_in_sector(a0, a1)
        signs = tuple(1 if f.value_at(rep) > 0 else -1 for f in funcs)
        chambers.append(WeylChamber(signs=signs, representative=rep,
                                    boundary_angles=(a0, a1),
                                    boundary_rays=(e0, e1)))
    return chambers


def _simplest_between(lo, hi):
    """The fraction of least denominator strictly between the rationals
    lo < hi, which also has the least |numerator|: 0 when the interval
    holds it, else the Stern-Brocot descent, taken a continued-fraction run
    at a time."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_between(-hi, -lo)
    n = math.floor(lo)
    if n + 1 < hi:
        return Fraction(n + 1)
    if lo == n:
        return n + Fraction(1, math.floor(1 / (hi - n)) + 1)
    return n + 1 / _simplest_between(1 / (hi - n), 1 / (lo - n))


def _simplest_direction_in_sector(a0, a1):
    """The primitive integer vector of least sup norm strictly inside the
    open sector (a0, a1) of width at most pi: turn the sector by quarter
    turns to face the positive x-axis, take the axis itself if the turned
    sector holds it, else the simplest slope strictly between its edges, and
    turn the vector (denominator, numerator) back."""
    turns = round((a0 + a1) / math.pi)
    lo = a0 + 1e-12 - turns * math.pi / 2
    hi = a1 - 1e-12 - turns * math.pi / 2
    x, y = 1, 0   # a sector wider than pi/2 always holds the axis
    if lo < hi and not lo < 0 < hi:
        slope = _simplest_between(Fraction(math.tan(lo)),
                                  Fraction(math.tan(hi)))
        x, y = slope.denominator, slope.numerator
    for _ in range(turns % 4):
        x, y = -y, x
    ang = math.atan2(y, x) % (2 * math.pi)
    if any(a0 + 1e-12 < ang + shift < a1 - 1e-12
           for shift in (-2 * math.pi, 0, 2 * math.pi)):
        return (x, y)
    raise RootFindingFailure(f"no integer vector inside sector ({a0}, {a1})")


# --- expansion --------------------------------------------------------------


_SOLVE_BATCH = 1 << 14   # systems per np.linalg.solve call


def min_expansion_rate(spectrum: LyapunovSpectrum):
    """min over the unit sup-norm sphere of max_chi |chi(a)| (all places).

    The objective is convex piecewise-linear on each facet, so the minimum is
    attained where (dim of the facet many) active constraints from
    {chi_i = 0} and {chi_i = +-chi_j} meet; candidates are enumerated over
    all faces of the cube.  The systems of every face with the same number
    of free coordinates are solved together, in batches of _SOLVE_BATCH;
    every float is formed by the same operations as one scalar solve and
    sum per candidate would, and the minimum is taken in face order.
    """
    k = spectrum.rank
    rows = np.array([f.values for f in spectrum.functionals], dtype=float)
    first, second = np.triu_indices(len(rows), 1)
    hyperplanes = np.concatenate([rows, np.stack(
        [rows[first] - rows[second], rows[first] + rows[second]],
        axis=1).reshape(-1, k)])

    # the interior of the cube (no fixed coordinate) is not on the sphere
    faces = [f for f in itertools.product((-1, 0, 1), repeat=k) if any(f)]
    signs = np.array(faces, dtype=float)
    rhs = np.zeros((len(faces), len(hyperplanes)))   # sum of h_i s_i, fixed i
    for n, fixed in enumerate(faces):
        for i in np.flatnonzero(fixed):
            rhs[n] = rhs[n] + hyperplanes[:, i] * fixed[i]
    owners, vals = [], []
    for size in range(k):
        combos = ((n, c) for n, f in enumerate(faces) if f.count(0) == size
                  for c in itertools.combinations(range(len(hyperplanes)),
                                                  size))
        while block := list(itertools.islice(combos, _SOLVE_BATCH)):
            owner = np.array([n for n, _ in block], dtype=np.intp)
            cand = signs[owner]
            if size:
                idx = np.array([c for _, c in block], dtype=np.intp)
                free = np.nonzero(cand == 0)[1].reshape(-1, size)
                cand[np.arange(len(block))[:, None], free] = _solve_each(
                    hyperplanes[idx[:, :, None], free[:, None, :]],
                    -rhs[owner[:, None], idx])
            keep = ~(np.max(np.abs(cand), axis=1) > 1 + 1e-9)
            cand = cand[keep]
            acc = np.zeros((len(cand), len(rows)))
            for i in range(k):
                acc = acc + cand[:, i, None] * rows[:, i]
            owners.append(owner[keep])
            vals.append(np.max(np.abs(acc), axis=1))
    # the builtin min is the left fold min(best, val), nan or not
    order = np.argsort(np.concatenate(owners), kind="stable")
    return min(np.concatenate(vals)[order].tolist())


def _solve_each(a, b):
    """x with a[n] x[n] = b[n] for each n, inf where a[n] is singular.  A
    batched np.linalg.solve runs the same LAPACK gesv on each system as one
    call per system, but raises on any exact zero pivot of its LU (getrf);
    slogdet runs that getrf and gives sign 0 there.  If the systems of
    nonzero sign raise all the same, the batch is halved down to single
    systems."""
    out = np.full(b.shape, np.inf)
    ok = np.flatnonzero(np.linalg.slogdet(a)[0])
    try:
        out[ok] = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(ok) > 1:
            for half in np.array_split(ok, 2):
                out[half] = _solve_each(a[half], b[half])
    return out
