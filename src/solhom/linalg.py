"""Exact linear algebra over Z.

Matrices are immutable tuples of row tuples of Python ints, arbitrary
precision.  A rational matrix is a pair (A, m): an IntMatrix A over one
positive denominator m, reduced when gcd(m, entries of A) = 1, so two
reduced pairs are equal exactly when their rational matrices are.
Normal forms, determinants (Bareiss), exterior powers (Laplace
expansion over the next lower power) and characteristic polynomials
(Faddeev-LeVerrier with exact division) are fraction-free, and
``inverse_pair`` gives T^(-1) as an integer matrix over +-det T.
The determinant and inverse of an exterior power come from identities
instead: ``exterior_power_det`` (Sylvester-Franke) and
``complement_transpose`` (Jacobi).  Nothing here uses floats.

Conventions fixed here and relied on elsewhere:

* ``snf(A)`` returns ``(S, U, V)`` with ``U @ A @ V == S``, U and V
  unimodular, S diagonal with nonnegative entries and d1 | d2 | ... .
* ``hnf(A)`` is the column-style Hermite normal form: the columns of H
  span the same lattice as the columns of A, zero columns are dropped,
  each column's first nonzero entry (the pivot) is positive, pivot rows
  strictly increase left to right, and in a pivot row every entry to the
  left of the pivot lies in [0, pivot).
* ``exterior_power_matrix(A, k, lower)`` takes an IntMatrix and indexes
  rows and columns by k-element subsets in lexicographic order; entries
  are k x k minors, each one Laplace expansion along its first row over
  ``lower``, the (k-1)-th power, summed over nonzero terms only, so a
  ladder of all powers costs one product per pair of nonzeros.
* ``complement_transpose(X, d, k)`` sends a matrix on k-subsets of
  range(d) to the one on (d-k)-subsets with entry (K, L) equal to
  (-1)^(sum K + sum L) X[L^c, K^c]; on Lambda^k(A) it gives
  det(A) Lambda^(d-k)(A)^-1.
* ``char_poly(A)`` returns the coefficients of det(xI - A) in descending
  degree, starting with 1.

``IntMatrix(rows)`` and ``from_columns`` check every entry.
``IntMatrix._trusted(rows)`` checks nothing: its rows must be a tuple of
tuples of exact ints, of one nonzero length, built by ``linalg``,
``nfield`` or ``engine`` arithmetic from matrices that were already
checked.  It never takes input from outside the program.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Sequence

from .errors import InternalCheckError


def square_and_multiply(base, e: int, mul: Callable, one: Callable):
    """base^e for e >= 0 by square and multiply with the product mul,
    one() for e = 0."""
    if e < 0:
        raise ValueError("powers need e >= 0")
    out = None
    while e:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one() if out is None else out


class IntMatrix:
    """Immutable matrix with integer entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(tuple, rows))
        if not rs or not rs[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rs[0])
        for row in rs:
            if len(row) != width:
                raise ValueError("ragged rows")
            if not all(type(entry) is int for entry in row):
                # slow path: int subclasses other than bool are accepted
                for entry in row:
                    if not isinstance(entry, int) or isinstance(entry, bool):
                        raise TypeError(f"IntMatrix entry {entry!r} is not an int")
        object.__setattr__(self, "rows", rs)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix on rows that need no check (see the module docstring)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError("matrix must have at least one row and column")
        return IntMatrix._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(list(zip(*cols)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def _entrywise(self, other: "IntMatrix", op) -> "IntMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, operator.sub)

    def scale(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            raise TypeError(f"IntMatrix scale {c!r} is not an int")
        return IntMatrix._trusted(tuple(tuple(c * a for a in row) for row in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix._trusted(
            tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in self.rows)
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(map(operator.mul, row, vec)) for row in self.rows)

    def pow(self, e: int) -> "IntMatrix":
        if self.nrows != self.ncols or e < 0:
            raise ValueError("pow needs a square matrix and e >= 0")
        return square_and_multiply(self, e, operator.matmul, lambda: IntMatrix.identity(self.nrows))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss_det([list(row) for row in self.rows])

    def inverse_pair(self) -> tuple["IntMatrix", int]:
        """(B, d) with self^(-1) = B / d and d = +-det, the adjugate up to
        sign, by one fraction-free (Bareiss) Gauss-Jordan elimination of
        [self | I]: every division is exact, the left half ends as d * I
        and the right half as d * self^(-1).  Column k of the left half is
        zero off the pivot once step k is done, so it is dropped."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)]
        prev = 1
        for k in range(n):
            p = next((i for i in range(k, n) if a[i][0]), None)
            if p is None:
                raise ZeroDivisionError("matrix is singular")
            a[k], a[p] = a[p], a[k]
            pivot_row = a[k]
            pivot = pivot_row[0]
            tail = pivot_row[1:]
            for i in range(n):
                if i != k:
                    row = a[i]
                    lead = row[0]
                    a[i] = [(x * pivot - lead * y) // prev for x, y in zip(row[1:], tail)]
            a[k] = tail
            prev = pivot
        return IntMatrix._trusted(tuple(map(tuple, a))), prev

    def mod(self, n: int) -> "IntMatrix":
        if not isinstance(n, int):
            raise TypeError(f"IntMatrix modulus {n!r} is not an int")
        return IntMatrix._trusted(tuple(tuple(a % n for a in row) for row in self.rows))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_diagonal(self) -> bool:
        return all(
            a == 0 for i, row in enumerate(self.rows) for j, a in enumerate(row) if i != j
        )

    def commutes_with(self, other: "IntMatrix") -> bool:
        """self @ other == other @ self for square matrices of one size;
        entrywise when either is diagonal: A D == D A exactly when
        a_ij (d_j - d_i) == 0 for all i, j."""
        A, D = (other, self) if self.is_diagonal() else (self, other)
        if A is D:
            return True
        if not D.is_diagonal():
            return A @ D == D @ A
        d = [D.rows[i][i] for i in range(D.nrows)]
        return all(
            a == 0 or d[i] == d[j] for i, row in enumerate(A.rows) for j, a in enumerate(row)
        )


# ---------------------------------------------------------------------------
# normal forms


def snf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: U @ A @ V == S.

    Pivots are chosen by minimal absolute value, ties broken by lowest
    (row, column).  The diagonal is nonnegative and satisfies the
    divisibility chain d1 | d2 | ... .
    """
    m, n = A.nrows, A.ncols
    s = [list(row) for row in A.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
        s[i] = [a - q * b for a, b in zip(s[i], s[k])]
        u[i] = [a - q * b for a, b in zip(u[i], u[k])]

    def col_op(j: int, k: int, q: int) -> None:
        # col_j -= q * col_k
        for row in s:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in s:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = s[i][j]
                if a != 0 and (best is None or abs(a) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])

        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                row_op(i, t, q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                col_op(j, t, q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if s[i][j] % s[t][t] != 0
            ),
            None,
        )
        if offender is not None:
            row_op(t, offender[0], -1)
            continue
        t += 1

    for i in range(min(m, n)):
        if s[i][i] < 0:
            s[i] = [-a for a in s[i]]
            u[i] = [-a for a in u[i]]

    S, U, V = (IntMatrix._trusted(tuple(map(tuple, x))) for x in (s, u, v))
    if U @ A @ V != S:
        raise InternalCheckError("snf transform identity violated")
    return S, U, V


def snf_diagonal(A: IntMatrix) -> list[int]:
    """The nonzero diagonal entries of the Smith form, in chain order."""
    S, _, _ = snf(A)
    return [S.rows[i][i] for i in range(min(S.nrows, S.ncols)) if S.rows[i][i] != 0]


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF on a mutable list of rows; returns the nonzero rows."""
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        # rows r..k-1 are zero in col, so only the rows past k need clearing
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r] if rows[r][col] > 0 else [-x for x in rows[r]]
        for i in range(k + 1, len(rows)):
            a, b, row = top[col], rows[i][col], rows[i]
            if b and b % a == 0:
                # the pair step's s = 1, t = 0, kept apart as it leaves the
                # pivot row be: the pair step alone is 12% slower on reports
                q = b // a
                rows[i] = [y - q * x for x, y in zip(top, row)]
            elif b:
                # [[s, t], [-v, u]] with s u + t v = 1 for (u, v) = (a, b) / g
                g = math.gcd(a, b)
                u, v = a // g, b // g
                s = pow(u, -1, abs(v))
                t = (1 - s * u) // v
                rows[i] = [u * y - v * x for x, y in zip(top, row)]
                top = [s * x + t * y for x, y in zip(top, row)]
        rows[r] = top
        for i in range(r):
            q = rows[i][col] // top[col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        r += 1
    return rows[:r]


def hnf(A: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column lattice of A.

    Each entry b below a positive pivot a is cleared in one step, by a
    multiple of the pivot when a | b, else by a unimodular pair step
    leaving gcd(a, b) in the pivot; a lattice has one basis of the shape
    the module docstring fixes, so the route does not show.  Zero columns
    are dropped; the zero lattice raises ValueError since a matrix with
    no columns cannot be represented.
    """
    reduced = _row_hnf([list(col) for col in A.columns()])
    if not reduced:
        raise ValueError("zero lattice has no HNF basis")
    return IntMatrix._trusted(tuple(zip(*reduced)))


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square list of integer rows, overwritten in place
    by fraction-free Bareiss elimination; sizes 1 and 2 in closed form."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def exterior_power_matrix(A: IntMatrix, k: int, lower: IntMatrix | None = None) -> IntMatrix:
    """k-th exterior power of an integer matrix.

    Rows are indexed by k-subsets of row indices, columns by k-subsets of
    column indices, both in lexicographic order.  The 0-th power is the
    1 x 1 identity.  Each k-minor is the Laplace expansion along its first
    row over the (k-1)-minors: ``lower`` when it is given, which must be
    the (k-1)-th power of A, else the powers below k built up from the
    0-th, so a caller that wants every power passes each one to the next.
    """
    if k < 0:
        raise ValueError("negative exterior power")
    if k == 0:
        return IntMatrix._trusted(((1,),))
    nrows, ncols = A.nrows, A.ncols
    if k > min(nrows, ncols):
        raise ValueError("exterior power exceeds matrix dimensions")
    if lower is None:
        lower = IntMatrix._trusted(((1,),))
        for j in range(1, k):
            lower = _laplace_step(A.rows, j, lower.rows)
    elif (lower.nrows, lower.ncols) != (math.comb(nrows, k - 1), math.comb(ncols, k - 1)):
        raise ValueError("lower is not the next lower exterior power")
    return _laplace_step(A.rows, k, lower.rows)


def _laplace_step(rows: tuple[tuple[int, ...], ...], k: int, lower) -> IntMatrix:
    """The k-minors of rows from its (k-1)-minors: the minor on row set R
    and column set C is the sum over t of (-1)^t a[R_0][C_t] times the
    (k-1)-minor on R minus R_0 and C minus C_t.  So each nonzero
    a[R_0][c] times each nonzero (k-1)-minor on R minus R_0 and a column
    set J without c is added at J + {c}, signed by the place of c in it,
    and the cost follows the nonzeros.  The first power is the matrix
    itself."""
    if k == 1:
        return IntMatrix._trusted(rows)
    row_terms, slots, width = _laplace_terms(len(rows), len(rows[0]), k)
    below = [[(j, v) for j, v in enumerate(row) if v] for row in lower]
    out = []
    for r, below_row in row_terms:
        minors = [0] * width
        for c, a in enumerate(rows[r]):
            if a:
                to = slots[c]
                for j, v in below[below_row]:
                    if to[j]:
                        slot, sign = to[j]
                        minors[slot] += sign * a * v
        out.append(tuple(minors))
    return IntMatrix._trusted(tuple(out))


@functools.lru_cache(maxsize=128)
def _laplace_terms(nrows: int, ncols: int, k: int):
    """Index data of one Laplace step, shared by every matrix of a shape:
    per row set R, its first row and the slot of R minus R_0 among the
    (k-1)-subsets; per column c and (k-1)-subset J, None when c is in J,
    else the slot of J + {c} among the k-subsets and (-1)^t for t the
    place of c in it; and the number of k-subsets of columns."""
    below_rows = {s: i for i, s in enumerate(itertools.combinations(range(nrows), k - 1))}
    row_terms = tuple((rs[0], below_rows[rs[1:]]) for rs in itertools.combinations(range(nrows), k))
    cols = {s: i for i, s in enumerate(itertools.combinations(range(ncols), k))}
    slots = tuple(
        tuple(
            None if c in J else (cols[tuple(sorted(J + (c,)))], (-1) ** sum(x < c for x in J))
            for J in itertools.combinations(range(ncols), k - 1)
        )
        for c in range(ncols)
    )
    return row_terms, slots, len(cols)


def exterior_power_det(det: int, d: int, k: int) -> int:
    """det Lambda^k(A) for a d x d matrix A with determinant det:
    det^C(d-1, k-1) by Sylvester-Franke, and 1 for k = 0."""
    return det ** math.comb(d - 1, k - 1) if k else 1


def complement_transpose(X: IntMatrix, d: int, k: int) -> IntMatrix:
    """The matrix on (d-k)-subsets of range(d) whose entry (K, L) is
    (-1)^(sum K + sum L) X[L^c, K^c], for X on k-subsets, subsets in
    lexicographic order.  By Jacobi's complementary-minor identity,
    complement_transpose(Lambda^k(A), d, k) = det(A) Lambda^(d-k)(A)^-1
    for an invertible d x d matrix A (docs/duality.md).  Complementing
    reverses lexicographic order, so the i-th k-subset's complement is
    the i-th (d-k)-subset from the end, and row K of the result is column
    K^c of X reversed, times signs."""
    rev = _complement_signs(d, k)[::-1]
    neg = tuple(-s for s in rev)
    cols = list(zip(*X.rows))[::-1]
    return IntMatrix._trusted(
        tuple(tuple(map(operator.mul, rev if s > 0 else neg, col[::-1])) for s, col in zip(rev, cols))
    )


@functools.lru_cache(maxsize=128)
def _complement_signs(d: int, k: int) -> tuple[int, ...]:
    """(-1)^(sum I) for the k-subsets I of range(d) in lexicographic order."""
    return tuple((-1) ** sum(I) for I in itertools.combinations(range(d), k))


def char_poly(A: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - A), descending degree, leading 1.  A
    rational matrix M / m has coefficient i equal to that of M divided
    by m^i."""
    if A.nrows != A.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    return _faddeev_leverrier(A.rows)


def _faddeev_leverrier(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Faddeev-LeVerrier over Z (Cohen, GTM 138, 2.2): B_0 = I,
    c_k = -tr(A B_(k-1)) / k and B_k = A B_(k-1) + c_k I.  Each B_k is an
    integer polynomial in A, so every division is exact, and B_n = 0 by
    Cayley-Hamilton."""
    n = len(a)
    coeffs = [1]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*b))
        b = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
        t = sum(b[i][i] for i in range(n))
        if t % k:
            raise InternalCheckError(f"Faddeev-LeVerrier trace {t} not divisible by {k}")
        coeffs.append(-t // k)
        for i in range(n):
            b[i][i] += coeffs[-1]
    if any(any(row) for row in b):
        raise InternalCheckError("Faddeev-LeVerrier did not end in the zero matrix")
    return tuple(coeffs)


def stable_rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A^n mod p for n = dim(A); the eventual rank of all powers.

    This is the dimension of the largest subspace of F_p^n on which A
    acts invertibly, an invariant of the colimit of A acting on Z^n: n
    minus the multiplicity of the root 0 of A's characteristic
    polynomial mod p.  No power of A is taken: A mod p is brought to
    Hessenberg form H by similarity, and det(xI - H) is built up over
    its leading principal blocks (Cohen, GTM 138, 2.2.9), in ascending
    coefficients.
    """
    if A.nrows != A.ncols:
        raise ValueError("stable rank needs a square matrix")
    a = [[x % p for x in row] for row in A.rows]
    n = len(a)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if a[i][m - 1]), None)
        if i is None:
            continue
        if i != m:  # swap rows i and m, then columns i and m
            a[i], a[m] = a[m], a[i]
            for row in a:
                row[i], row[m] = row[m], row[i]
        inv = pow(a[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = a[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                a[i] = [(x - u * y) % p for x, y in zip(a[i], a[m])]
                for row in a:
                    row[m] = (row[m] + u * row[i]) % p
    # chi_(m+1) = (x - h_mm) chi_m - sum over i < m of
    # h_im h_(i+1,i) ... h_(m,m-1) chi_i, with chi_0 = 1
    chis = [[1]]
    for m in range(n):
        chi = [0] + chis[m]
        for j, c in enumerate(chis[m]):
            chi[j] = (chi[j] - a[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break
            for j, c in enumerate(chis[i]):
                chi[j] = (chi[j] - a[i][m] * t * c) % p
        chis.append(chi)
    return n - next(j for j, c in enumerate(chis[n]) if c)
