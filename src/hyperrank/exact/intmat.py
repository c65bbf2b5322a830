"""Exact matrices over Q plus integer kernels.

QMat is a small immutable dense matrix type: desk scale (dim <= ~10), so the
cubic algorithms with exact arithmetic are the right trade.  It holds int
rows over one denominator: its product, power, charpoly and inverse run on
the integer kernels below, its rank, solve and kernel on one fraction-free
Gauss-Jordan elimination over Z.  The kernels, one copy of each job:

* hnf_rows, the Hermite normal form, and kernel_lattice, the saturated
  integer kernel from one HNF;
* mat_mul_mod and mat_pow_mod, the product and the power;
* mat_poly_mod, a polynomial at a matrix by Horner;
* restrict_rows, a matrix restricted to the lattice of some basis rows;
* berkowitz_charpoly_mod, the one characteristic polynomial, which also
  gives QMat's inverse by Cayley-Hamilton over Z.

Each is exact over Z when q is None, as for QMat and for the rational
splitting, and works mod q otherwise, as for the p-adic refinement.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ..errors import RankDeficient


class QMat:
    """A matrix over Q as int rows _num over one denominator _den > 0 in
    lowest terms, gcd(_den, every entry) = 1, so equal matrices hold equal
    data.  Only this module reads _num and _den; rows is a read-only view
    of the entries as Fractions, built on first use."""

    __slots__ = ("_num", "_den", "_rows", "_charpoly")

    def __init__(self, rows):
        num, den = tuple(map(tuple, rows)), 1
        if not all(type(c) is int for r in num for c in r):
            fracs = [[Fraction(c) for c in r] for r in num]
            den = math.lcm(*(c.denominator for r in fracs for c in r))
            num = tuple(tuple(c.numerator * (den // c.denominator) for c in r)
                        for r in fracs)
        if any(len(r) != len(num[0]) for r in num):
            raise ValueError("ragged rows")
        self._num, self._den = num, den
        self._rows = self._charpoly = None

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple(Fraction(x, self._den) for x in r)
                               for r in self._num)
        return self._rows

    @property
    def shape(self):
        return (len(self._num), len(self._num[0]) if self._num else 0)

    def is_square(self):
        m, n = self.shape
        return m == n

    def is_integer(self):
        return self._den == 1

    def int_rows(self):
        if self._den != 1:
            raise ValueError("matrix has non-integer entries")
        return [list(r) for r in self._num]

    def __eq__(self, other):
        if isinstance(other, QMat):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __add__(self, other):       # __sub__'s partner, for test oracles
        return self - other.scalar(-1)

    def __sub__(self, other):
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return _reduced([[fa * x - fb * y for x, y in zip(ra, rb)]
                         for ra, rb in zip(self._num, other._num)], den)

    def scalar(self, c):
        c = Fraction(c)
        return _reduced([[c.numerator * x for x in r] for r in self._num],
                        c.denominator * self._den)

    def __matmul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return _reduced(mat_mul_mod(self._num, other._num),
                        self._den * other._den)

    def matvec(self, v):
        v = [Fraction(x) for x in v]
        return tuple(sum(map(operator.mul, r, v)) / self._den
                     for r in self._num)

    def transpose(self):
        return _reduced(list(zip(*self._num)), self._den)

    def det(self):
        """(-1)^n times the constant term of the characteristic polynomial:
        an int for an integer matrix."""
        if not self.is_square():
            raise ValueError("det of non-square matrix")
        return self.charpoly()[0] * (-1) ** len(self._num)

    def inverse(self):
        """Cayley-Hamilton over Z: A = N/D with N's charpoly c gives A^-1 =
        -D (sum_{k>=1} c_k N^(k-1)) / c_0."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        self.charpoly()
        cp = self._charpoly
        if cp[0] == 0:
            raise RankDeficient("matrix is singular")
        return _reduced([[-self._den * x for x in r]
                         for r in mat_poly_mod(cp[1:], self._num)], cp[0])

    def adjugate(self):
        """det * inverse, exact."""
        d = self.det()
        if d == 0:
            raise RankDeficient("adjugate via inverse needs a nonsingular matrix")
        return self.inverse().scalar(d)

    def power(self, e: int):
        """Integer power; negative exponents go through the exact inverse."""
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        base = self if e >= 0 else self.inverse()
        if abs(e) == 1:     # no product, so nothing to reduce
            return base
        return _reduced(mat_pow_mod(base._num, abs(e)), base._den ** abs(e))

    def charpoly(self) -> tuple:
        """det(xI - A), monic, as an ascending coefficient tuple: Berkowitz
        over Z on N, A = N/D, then the x^k coefficient is divided by
        D^(n-k).  Ints for an integer matrix, Fractions otherwise.  N's
        charpoly is computed once per matrix."""
        if self._charpoly is None:
            if not self.is_square():
                raise ValueError("charpoly of non-square matrix")
            self._charpoly = tuple(berkowitz_charpoly_mod(self._num, None))
        n, den = len(self._num), self._den
        return self._charpoly if den == 1 else tuple(
            Fraction(c, den ** (n - k)) for k, c in enumerate(self._charpoly))

    def rank(self):
        return len(_rref(self._num)[1])

    def solve(self, rhs: "QMat") -> "QMat":
        """Solve self @ X = rhs exactly; raises RankDeficient if inconsistent
        or underdetermined (callers here always have unique solutions).  For
        self = N/D, rhs = M/E, [N | M] reduces to p [I | X E/D]."""
        n = self.shape[1]
        a, pivots = _rref([r + b for r, b in zip(self._num, rhs._num)])
        if pivots and pivots[-1] >= n:
            raise RankDeficient("inconsistent system")
        if len(pivots) < n:
            raise RankDeficient("underdetermined system")
        return _reduced([[self._den * x for x in r[n:]] for r in a[:n]],
                        rhs._den * (a[0][0] if n else 1))

    def kernel(self):
        """Primitive integer basis of the rational null space (list of tuples)."""
        n = self.shape[1]
        a, pivots = _rref(self._num)
        basis = []
        for col in range(n):
            if col in pivots:
                continue
            v = [0] * n
            v[col] = a[0][pivots[0]] if pivots else 1
            for prow, pcol in enumerate(pivots):
                v[pcol] = -a[prow][col]
            basis.append(primitive_vector(v))
        return basis


def _reduced(num, den):
    """The QMat of int rows num over den != 0, in lowest terms."""
    if den != 1:
        g = math.gcd(den, *(x for r in num for x in r))
        g = -g if den < 0 else g
        if g != 1:
            num, den = [[x // g for x in r] for r in num], den // g
    m = object.__new__(QMat)
    m._num, m._den = tuple(map(tuple, num)), den
    m._rows = m._charpoly = None
    return m


def _rref(a):
    """Fraction-free Gauss-Jordan on int rows: (p * RREF, pivot columns),
    p the last pivot.  Every row is updated at every pivot, so each entry
    stays a minor of a and every division by the previous pivot is exact
    (E. H. Bareiss, Math. Comp. 22, 1968).  The RREF is unique, so every
    caller's result is too."""
    a = [list(r) for r in a]
    m, n = len(a), len(a[0]) if a else 0
    pivots, prev = [], 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, row = a[r][col], a[r]
        for i in range(m):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        pivots.append(col)
        prev = p
        if len(pivots) == m:
            break
    return a, pivots


def primitive_vector(v):
    """Scale a rational vector (ints or Fractions) to a primitive integer
    vector, first nonzero > 0."""
    if not any(v):
        raise ValueError("zero vector has no primitive form")
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*ints)
    g = -g if next(x for x in ints if x) < 0 else g
    return tuple(x // g for x in ints)


def hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the canonical basis of the row lattice: pivots positive, entries
    above a pivot reduced into [0, pivot), zero rows dropped.
    """
    a = [[int(x) for x in r] for r in rows]
    if not a:
        return []
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            # Euclid on the two column entries via row operations
            while a[i][col] != 0:
                q = a[r][col] // a[i][col]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
        for j in range(r):
            q = a[j][col] // a[r][col]
            if q:
                a[j] = [x - q * y for x, y in zip(a[j], a[r])]
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a[:r] if any(row)]


def kernel_lattice(a, n):
    """HNF basis of {x in Z^n : a x = 0}, a given by its int rows: the I part
    of the rows of hnf_rows([a^T | I]) whose a^T part is zero (H. Cohen, A
    Course in Computational Algebraic Number Theory, 1993, ch. 2)."""
    k = len(a)
    rows = [[r[j] for r in a] + [int(i == j) for i in range(n)]
            for j in range(n)]
    return [row[k:] for row in hnf_rows(rows) if not any(row[:k])]


# --- integer matrices, exact (q None) or mod q -------------------------------


def mat_mod(rows, q=None):
    return [[int(x) if q is None else int(x) % q for x in r] for r in rows]


def mat_mul_mod(a, b, q=None):
    bt = list(zip(*b))
    if q is None:
        return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]
    return [[sum(map(operator.mul, row, col)) % q for col in bt] for row in a]


def mat_pow_mod(a, e, q=None):
    """a^e for e >= 0, with no squaring past the last bit."""
    out, base = None, mat_mod(a, q)
    while e:
        if e & 1:
            out = base if out is None else mat_mul_mod(out, base, q)
        e >>= 1
        if e:
            base = mat_mul_mod(base, base, q)
    if out is None:
        return [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    return out


def mat_poly_mod(coeffs, m, q=None):
    """f(m) by Horner, f given by its ascending integer coefficients."""
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = mat_mul_mod(out, m, q)
        for i in range(n):
            out[i][i] += c
    return mat_mod(out, q)


def restrict_rows(basis, pivots, m, q=None):
    """X with m @ B^T = B^T @ X: m restricted to the lattice of the int rows
    B = basis, in their coordinates.  Each row is zero at the pivots of the
    rows after it (HNF or pivot-identity rows), so each m b is solved by
    forward substitution on the pivot columns, dividing exactly over Z or by
    unit pivots mod q.  RankDeficient unless every m b is in the lattice."""
    cols = []
    for w in mat_mul_mod(basis, list(zip(*m)), q):   # row j is m b_j
        col = []
        for b, p in zip(basis, pivots):
            if q is None:
                c, r = divmod(w[p], b[p])
                if r:
                    raise RankDeficient("restriction to a saturated lattice "
                                        "produced non-integer entries")
            else:
                c = w[p] * pow(b[p], -1, q) % q
            if c:
                w = [x - c * y for x, y in zip(w, b)]
                if q is not None:
                    w = [x % q for x in w]
            col.append(c)
        if any(w):
            raise RankDeficient("inconsistent system")
        cols.append(col)
    return [list(r) for r in zip(*cols)]


def berkowitz_charpoly_mod(a, q):
    """Characteristic polynomial det(xI - A), division-free (Berkowitz).

    Exact over Z when q is None, else over Z/q for any modulus q.  Returns
    ascending coefficients, length dim+1.
    """
    def red(v):
        return v if q is None else [x % q for x in v]

    n = len(a)
    a = mat_mod(a, q)
    coeffs = red([1])  # descending, the charpoly of the empty leading block
    for i in range(n):
        R = a[i][:i]
        M = [row[:i] for row in a[:i]]
        t = [1, -a[i][i]]
        v = [a[j][i] for j in range(i)]
        for k in range(i):
            t.append(-sum(x * y for x, y in zip(R, v)))
            if k < i - 1:
                v = red([sum(x * y for x, y in zip(row, v)) for row in M])
        t = red(t)
        coeffs = red([sum(t[k] * coeffs[idx - k]
                          for k in range(max(0, idx - i), min(idx, i + 1) + 1))
                      for idx in range(i + 2)])
    return list(reversed(coeffs))
