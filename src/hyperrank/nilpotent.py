"""Step-2 nilpotent group arithmetic in exponential coordinates.

An element is exp of a Lie algebra vector on a fixed basis e_1..e_d, so the
group law is the two-term Baker-Campbell-Hausdorff formula

    log(exp X exp Y) = X + Y + (1/2) [X, Y],

exact because every bracket lands in the center.  Structure constants are
validated so that (a) basis vectors hit by brackets are central, which gives
Jacobi and the step bound for free, and (b) half of every constant is an
integer, so the integer lattice is closed under the product and the same
formulas run unchanged over Z, Q, and Z/p^K (any p, including 2), where a
coordinate is an int residue mod p^K.

The integer-approximation routine follows the two-stage recursion: match the
abelianized coordinates by the ordinary Chinese remainder theorem, peel the
candidate off, then fix the central coordinates of what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAnAutomorphism, ScalarMismatch, SplittingNotDirect
from .exact import QMat, crt_integers


# --- structures -------------------------------------------------------------


@dataclass(frozen=True)
class NilStructure:
    """Bracket table on a Mal'cev basis; build through nil_structure()."""

    dim: int
    brackets: tuple            # brackets[i][j] = tuple of d Fractions
    derived: tuple             # indices of the basis vectors spanning [N, N]
    half: tuple                # ((i, j, k, int(c_ijk / 2)) for i < j), sparse

    def bracket(self, u, v):
        """[u, v] for coordinate vectors over any scalar ring."""
        out = [0] * self.dim
        for i, j, k, h in self.half:
            out[k] = out[k] + (u[i] * v[j] - u[j] * v[i]) * (2 * h)
        return tuple(out)


def nil_structure(dim, entries, scaling=None) -> NilStructure:
    """Build and validate a structure from sparse bracket entries.

    entries: iterable of (i, j, k, value) meaning [e_i, e_j] has coefficient
    value on e_k (0-based); the antisymmetric partner is filled in.  An
    optional per-coordinate scaling s replaces the basis by s_k e_k, turning
    constants into c * s_i * s_j / s_k; this is how half-integral tables are
    brought to the closed-lattice form.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    given = {}
    for i, j, k, val in entries:
        if not all(0 <= t < dim for t in (i, j, k)):
            raise ValueError(f"bracket index out of range: {(i, j, k)}")
        val = Fraction(val)
        if i == j and val != 0:
            raise ValueError(f"[e_{i}, e_{i}] must vanish")
        if (i, j, k) in given:
            raise ValueError(f"duplicate bracket entry {(i, j, k)}")
        given[(i, j, k)] = val
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), val in given.items():
        mirror = given.get((j, i, k))
        if mirror is not None and mirror != -val:
            raise ValueError(f"entries {(i, j, k)} and {(j, i, k)} "
                             "are not antisymmetric")
        c[i][j][k] = val
        if mirror is None:
            c[j][i][k] = -val
    if scaling is not None:
        s = [Fraction(t) for t in scaling]
        if len(s) != dim or any(t == 0 for t in s):
            raise ValueError("scaling needs one nonzero factor per coordinate")
        c = [[[c[i][j][k] * s[i] * s[j] / s[k] for k in range(dim)]
              for j in range(dim)] for i in range(dim)]
    hit = sorted({k for i in range(dim) for j in range(dim)
                  for k in range(dim) if c[i][j][k] != 0})
    for k in hit:
        for j in range(dim):
            if any(c[k][j][t] != 0 for t in range(dim)):
                raise ValueError(
                    f"e_{k} carries bracket values but is not central; "
                    "only step <= 2 structures are supported")
    if hit:
        vecs = [tuple(c[i][j][k] for k in range(dim))
                for i in range(dim) for j in range(i + 1, dim)
                if any(c[i][j][k] != 0 for k in range(dim))]
        if QMat(vecs).rank() != len(hit):
            raise ValueError("derived subalgebra is not spanned by basis "
                             "vectors; re-coordinate the structure")
    half = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                v = c[i][j][k]
                if v == 0:
                    continue
                if v.denominator != 1 or v.numerator % 2 != 0:
                    raise ValueError(
                        f"constant {v} on [e_{i}, e_{j}] is not an even "
                        "integer; the lattice is not closed (rescale)")
                half.append((i, j, k, v.numerator // 2))
    return NilStructure(
        dim=dim,
        brackets=tuple(tuple(tuple(row) for row in plane) for plane in c),
        derived=tuple(hit),
        half=tuple(half))


def heisenberg() -> NilStructure:
    """The 3-dim Heisenberg lattice with [e_0, e_1] = 2 e_2, so that
    (1,0,0)(0,1,0) = (1,1,1) and the half-bracket is integral."""
    return nil_structure(3, [(0, 1, 2, 2)])


# --- elements ---------------------------------------------------------------


@dataclass(frozen=True)
class NilElement:
    structure: NilStructure
    coords: tuple              # Fractions, or ints reduced mod p^prec
    padic: tuple = None        # (p, prec) for a p-adic element

    def _reduced(self, coords):
        """An element of this one's ring with the given coordinates."""
        if self.padic:
            q = self.padic[0] ** self.padic[1]
            coords = (c % q for c in coords)
        return NilElement(self.structure, tuple(coords), self.padic)


def nil_element(structure, coords) -> NilElement:
    coords = tuple(Fraction(c) for c in coords)
    if len(coords) != structure.dim:
        raise ValueError("coordinate count disagrees with the structure")
    return NilElement(structure=structure, coords=coords)


def nil_element_padic(structure, coords, p, prec) -> NilElement:
    q = p ** prec
    coords = tuple(int(c) % q for c in coords)
    if len(coords) != structure.dim:
        raise ValueError("coordinate count disagrees with the structure")
    return NilElement(structure=structure, coords=coords, padic=(p, prec))


def _compatible(g: NilElement, h: NilElement):
    if g.structure != h.structure:
        raise ScalarMismatch("elements of different structures")
    if g.padic != h.padic:
        raise ScalarMismatch(f"mixed scalar rings {g.padic or 'Q'} and "
                             f"{h.padic or 'Q'}")


def nil_mul(g: NilElement, h: NilElement) -> NilElement:
    """Exact product: z = x + y + (1/2)[x, y]."""
    _compatible(g, h)
    x, y = g.coords, h.coords
    z = [a + b for a, b in zip(x, y)]
    for i, j, k, hf in g.structure.half:
        z[k] = z[k] + (x[i] * y[j] - x[j] * y[i]) * hf
    return g._reduced(z)


def nil_inv(g: NilElement) -> NilElement:
    # exp(X)^{-1} = exp(-X); the BCH correction cancels identically
    return g._reduced(-c for c in g.coords)


def derived_series(structure: NilStructure):
    full = tuple(range(structure.dim))
    if not structure.derived:
        return (full, ())
    return (full, structure.derived, ())


# --- integer approximation (two-stage recursion) ----------------------------


@dataclass(frozen=True)
class CrtSolution:
    element: NilElement        # integer coordinates
    abelian_stage: tuple       # stage-1 coordinates (free positions)
    central_stage: tuple       # stage-2 correction (derived positions)
    checks: tuple              # ((p, level, residues of n^{-1} xi), ...)


def nil_crt(structure: NilStructure, targets, levels) -> CrtSolution:
    """Integer n with n^{-1} xi_p = identity mod p^{l_p} for every p.

    Stage 1 solves the abelianization (coordinates outside the derived set)
    by componentwise CRT; stage 2 reads the central coordinates of the
    residual n_1^{-1} xi_p and fixes them the same way.  The congruences are
    re-verified by direct group arithmetic before returning.
    """
    if set(targets) != set(levels):
        raise ValueError("targets and levels must list the same primes")
    for p, el in targets.items():
        if el.padic is None or el.padic[0] != p:
            raise ScalarMismatch(f"target for p = {p} is not a {p}-adic "
                                 "element")
        if el.structure != structure:
            raise ScalarMismatch("target from a different structure")
        if not 0 <= levels[p] <= el.padic[1]:
            raise ValueError(f"level {levels[p]} outside precision "
                             f"{el.padic[1]} at p = {p}")
    d = structure.dim
    der = set(structure.derived)
    free = [i for i in range(d) if i not in der]

    def crt_at(residue_of):
        pairs = [(residue_of(p) % p ** l, p ** l)
                 for p, l in sorted(levels.items()) if l > 0]
        return crt_integers(pairs)[0] if pairs else 0

    n1 = [0] * d
    for i in free:
        n1[i] = crt_at(lambda p: targets[p].coords[i])
    n1_el = nil_element(structure, n1)

    residuals = {p: nil_mul(nil_inv(_embed(n1_el, p, targets[p].padic[1])), el)
                 for p, el in targets.items()}
    n2 = [0] * d
    for k in structure.derived:
        n2[k] = crt_at(lambda p: residuals[p].coords[k])
    n2_el = nil_element(structure, n2)
    n = nil_mul(n1_el, n2_el)

    checks = []
    for p, el in sorted(targets.items()):
        digits = nil_mul(nil_inv(_embed(n, p, el.padic[1])), el).coords
        if any(r % p ** levels[p] != 0 for r in digits):
            raise AssertionError("congruence verification failed; "
                                 "the structure validation let a bad "
                                 "bracket table through")
        checks.append((p, levels[p], digits))
    return CrtSolution(element=n, abelian_stage=tuple(n1),
                       central_stage=tuple(n2), checks=tuple(checks))


def _embed(g: NilElement, p, prec) -> NilElement:
    q = p ** prec
    return NilElement(g.structure, tuple(_residue(c, q) for c in g.coords),
                      (p, prec))


def _residue(x: Fraction, q):
    """x mod q, for a rational x whose denominator is prime to q."""
    return x.numerator * pow(x.denominator, -1, q) % q


# --- automorphisms ----------------------------------------------------------


def automorphism_action(structure: NilStructure, lin: QMat,
                        g: NilElement) -> NilElement:
    """Push an element through the automorphism exp(L . log).

    L must respect every basis bracket exactly: L [e_i, e_j] = [L e_i, L e_j].
    """
    d = structure.dim
    if lin.shape != (d, d):
        raise ValueError("linear map has the wrong shape")
    cols = [lin.matvec(tuple(int(t == i) for t in range(d)))
            for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = lin.matvec(structure.brackets[i][j])
            rhs = structure.bracket(cols[i], cols[j])
            if tuple(lhs) != tuple(rhs):
                raise NotAnAutomorphism(
                    f"bracket [e_{i}, e_{j}] is not respected")
    if g.structure != structure:
        raise ScalarMismatch("element from a different structure")
    if not g.padic:
        return nil_element(structure, lin.matvec(g.coords))
    p, prec = g.padic
    bad = [v for row in lin.rows for v in row if v.denominator % p == 0]
    if bad:
        raise NotAnAutomorphism(f"map is not Z_{p}-integral: {bad[0]} has "
                                f"negative {p}-adic valuation")
    q = p ** prec
    return g._reduced(sum(_residue(v, q) * c for v, c in zip(row, g.coords))
                      for row in lin.rows)


# --- subspace machinery -----------------------------------------------------


def _in_span(vectors, v) -> bool:
    base = list(vectors)
    return QMat(base).rank() == QMat(base + [tuple(v)]).rank()


@dataclass(frozen=True)
class BracketReport:
    ok: bool
    failures: tuple            # ((tag_i, tag_j, description), ...)


def bracket_inclusion_check(structure: NilStructure,
                            splitting) -> BracketReport:
    """Verify [V_s, V_t] lands in the subspace tagged s + t (or vanishes).

    splitting: ((tag, basis), ...) with exact rational tags; the tagged
    subspaces must be independent and span the algebra, else
    SplittingNotDirect.  Wrong tags give ok=False, not an exception.
    """
    tagged = []
    for tag, basis in splitting:
        tag = tuple(Fraction(t) for t in tag)
        basis = tuple(tuple(Fraction(c) for c in v) for v in basis)
        if not basis:
            raise SplittingNotDirect(f"empty subspace tagged {tag}")
        if QMat(basis).rank() != len(basis):
            raise SplittingNotDirect(f"subspace tagged {tag} is dependent")
        if any(t == tag for t, _ in tagged):
            raise SplittingNotDirect(f"duplicate tag {tag}")
        tagged.append((tag, basis))
    everything = [v for _, basis in tagged for v in basis]
    if len(everything) != structure.dim or \
            QMat(everything).rank() != structure.dim:
        raise SplittingNotDirect("subspaces do not split the algebra")
    lookup = dict(tagged)
    failures = []
    for si, (ti, vi) in enumerate(tagged):
        for tj, vj in tagged[si:]:
            target = tuple(a + b for a, b in zip(ti, tj))
            for u in vi:
                for w in vj:
                    br = structure.bracket(u, w)
                    if all(c == 0 for c in br):
                        continue
                    dest = lookup.get(target)
                    if dest is None:
                        failures.append(
                            (ti, tj, f"bracket is nonzero but no subspace "
                                     f"is tagged {target}"))
                    elif not _in_span(list(dest), br):
                        failures.append(
                            (ti, tj, "bracket leaves the subspace tagged "
                                     f"{target}"))
    return BracketReport(ok=not failures, failures=tuple(failures))
