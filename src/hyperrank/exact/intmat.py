"""Exact matrices over Q (Fraction entries) plus integer kernels.

QMat is a small immutable dense matrix type: desk scale (dim <= ~10), so the
cubic algorithms with exact arithmetic are the right trade.  The integer
kernels on int rows live alongside, the package's one copy of each job:

* hnf_rows, the Hermite normal form, and kernel_lattice, the saturated
  integer kernel from one HNF;
* mat_mul_mod and mat_pow_mod, the product and the power;
* mat_poly_mod, a polynomial at a matrix by Horner;
* restrict_rows, a matrix restricted to the lattice of some basis rows;
* berkowitz_charpoly_mod, the one characteristic polynomial, which also
  gives QMat's inverse by Cayley-Hamilton over Z.

Each is exact over Z when q is None, as for QMat's product, power,
charpoly and inverse and for the rational splitting, and works mod q
otherwise, as for the p-adic refinement.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ..errors import RankDeficient
from .poly import QPoly


class QMat:
    __slots__ = ("rows", "_charpoly")

    def __init__(self, rows):
        self.rows = tuple(tuple(c if type(c) is Fraction else Fraction(c)
                                for c in r) for r in rows)
        self._charpoly = None   # memo of charpoly(); rows never change
        if self.rows:
            n = len(self.rows[0])
            if any(len(r) != n for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def is_square(self):
        m, n = self.shape
        return m == n

    def is_integer(self):
        return all(c.denominator == 1 for r in self.rows for c in r)

    def int_rows(self):
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return [[int(c) for c in r] for r in self.rows]

    def __eq__(self, other):
        if isinstance(other, QMat):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"QMat({[[str(c) for c in r] for r in self.rows]})"

    def __add__(self, other):
        return QMat([[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return QMat([[a - b for a, b in zip(ra, rb)]
                     for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return QMat([[-a for a in r] for r in self.rows])

    def scalar(self, c):
        c = Fraction(c)
        return QMat([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        la, a = self._scaled()
        lb, b = other._scaled()
        return _divided(mat_mul_mod(a, b), la * lb)

    def _scaled(self):
        """(L, L * rows as ints) with L the lcm of the entry denominators."""
        lcm = math.lcm(*(c.denominator for r in self.rows for c in r))
        return lcm, [[c.numerator * (lcm // c.denominator) for c in r]
                     for r in self.rows]

    def matvec(self, v):
        return tuple(sum(a * Fraction(x) for a, x in zip(row, v))
                     for row in self.rows)

    def transpose(self):
        return QMat(list(zip(*self.rows)))

    def det(self):
        """(-1)^n times the constant term of the characteristic polynomial."""
        if not self.is_square():
            raise ValueError("det of non-square matrix")
        return self.charpoly()[0] * (-1) ** len(self.rows)

    def inverse(self):
        """Cayley-Hamilton over Z: A = B/L, B integer with charpoly c_k =
        L^(n-k) c_k(A), gives A^-1 = -L (sum_{k>=1} c_k B^(k-1)) / c_0."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = len(self.rows)
        lcm, ints = self._scaled()
        cp = [int(c * lcm ** (n - k))
              for k, c in enumerate(self.charpoly().coeffs)]
        if cp[0] == 0:
            raise RankDeficient("matrix is singular")
        return _divided([[lcm * x for x in r]
                         for r in mat_poly_mod(cp[1:], ints)], -cp[0])

    def adjugate(self):
        """det * inverse for nonsingular input (exact)."""
        d = self.det()
        if d == 0:
            raise RankDeficient("adjugate via inverse needs a nonsingular matrix")
        return self.inverse().scalar(d)

    def power(self, e: int):
        """Integer power; negative exponents go through the exact inverse."""
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        base = self if e >= 0 else self.inverse()
        if abs(e) == 1:     # no product, so no entry to rebuild
            return base
        lcm, ints = base._scaled()
        return _divided(mat_pow_mod(ints, abs(e)), lcm ** abs(e))

    def charpoly(self) -> QPoly:
        """det(xI - A), monic: Berkowitz over Z on L*A, L the lcm of the
        denominators, then the x^k coefficient is divided by L^(n-k).
        Computed once per matrix."""
        if self._charpoly is None:
            if not self.is_square():
                raise ValueError("charpoly of non-square matrix")
            n = len(self.rows)
            lcm, ints = self._scaled()
            coeffs = berkowitz_charpoly_mod(ints, None)
            self._charpoly = QPoly([Fraction(c, lcm ** (n - k))
                                    for k, c in enumerate(coeffs)])
        return self._charpoly

    def _rref(self):
        """Reduced row echelon form (Gauss-Jordan over Fraction): (rows,
        pivot columns).  It is unique, so every caller's result is too."""
        a = [list(r) for r in self.rows]
        m, n = self.shape
        pivots = []
        for col in range(n):
            r = len(pivots)
            piv = next((i for i in range(r, m) if a[i][col] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = 1 / a[r][col]
            a[r] = [x * inv for x in a[r]]
            for i in range(m):
                if i != r and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(col)
            if len(pivots) == m:
                break
        return a, pivots

    def rank(self):
        return len(self._rref()[1])

    def solve(self, rhs: "QMat") -> "QMat":
        """Solve self @ X = rhs exactly; raises RankDeficient if inconsistent
        or underdetermined (callers here always have unique solutions)."""
        n = self.shape[1]
        a, pivots = QMat([list(r) + list(b)
                          for r, b in zip(self.rows, rhs.rows)])._rref()
        if pivots and pivots[-1] >= n:
            raise RankDeficient("inconsistent system")
        if len(pivots) < n:
            raise RankDeficient("underdetermined system")
        return QMat([r[n:] for r in a[:n]])

    def kernel(self):
        """Primitive integer basis of the rational null space (list of tuples)."""
        n = self.shape[1]
        a, pivots = self._rref()
        basis = []
        for col in range(n):
            if col in pivots:
                continue
            v = [Fraction(0)] * n
            v[col] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                v[pcol] = -a[prow][col]
            basis.append(primitive_vector(v))
        return basis


def _divided(ints, den):
    """The QMat of int rows divided by den."""
    return QMat([[Fraction(x, den) for x in r] for r in ints])


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive form")
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


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
            out[i][i] += int(c)
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
