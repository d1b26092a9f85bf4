"""Exact linear algebra over Z.

Matrices are immutable tuples of row tuples of Python ints, arbitrary
precision.  A rational matrix is a pair (A, m): an IntMatrix A over one
positive denominator m, reduced when gcd(m, entries of A) = 1, so two
reduced pairs are equal exactly when their rational matrices are.
Normal forms, determinants (Bareiss), exterior powers and characteristic
polynomials (Faddeev-LeVerrier with exact division) are fraction-free,
and ``inverse_pair`` gives T^(-1) as an integer matrix over +-det T.
Nothing here uses floats.

Conventions fixed here and relied on elsewhere:

* ``snf(A)`` returns ``(S, U, V)`` with ``U @ A @ V == S``, U and V
  unimodular, S diagonal with nonnegative entries and d1 | d2 | ... .
* ``hnf(A)`` is the column-style Hermite normal form: the columns of H
  span the same lattice as the columns of A, zero columns are dropped,
  each column's first nonzero entry (the pivot) is positive, pivot rows
  strictly increase left to right, and in a pivot row every entry to the
  left of the pivot lies in [0, pivot).
* ``exterior_power_matrix(A, k)`` takes an IntMatrix and indexes rows and
  columns by k-element subsets in lexicographic order; entries are k x k
  minors.
* ``char_poly(A)`` returns the coefficients of det(xI - A) in descending
  degree, starting with 1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import InternalCheckError


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
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(list(zip(*cols)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def pow(self, e: int) -> "IntMatrix":
        if self.nrows != self.ncols or e < 0:
            raise ValueError("pow needs a square matrix and e >= 0")
        result = IntMatrix.identity(self.nrows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

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
        return IntMatrix(a), prev

    def mod(self, n: int) -> "IntMatrix":
        return IntMatrix([[a % n for a in row] for row in self.rows])

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

    S, U, V = IntMatrix(s), IntMatrix(u), IntMatrix(v)
    if U @ A @ V != S:
        raise InternalCheckError("snf transform identity violated")
    return S, U, V


def snf_diagonal(A: IntMatrix) -> list[int]:
    """The nonzero diagonal entries of the Smith form, in chain order."""
    S, _, _ = snf(A)
    return [S.rows[i][i] for i in range(min(S.nrows, S.ncols)) if S.rows[i][i] != 0]


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF on a mutable list of rows; returns the nonzero rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(pivot_row, len(rows)) if rows[i][col] != 0]
            if not live:
                break
            i_min = min(live, key=lambda i: (abs(rows[i][col]), i))
            rows[pivot_row], rows[i_min] = rows[i_min], rows[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(rows)):
                if rows[i][col]:
                    q = rows[i][col] // rows[pivot_row][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    if rows[i][col]:
                        done = False
            if done:
                break
        if pivot_row < len(rows) and rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-a for a in rows[pivot_row]]
            p = rows[pivot_row][col]
            for i in range(pivot_row):
                q = rows[i][col] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
            pivot_row += 1
    return [row for row in rows if any(row)]


def hnf(A: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column lattice of A.

    Zero columns are dropped; the zero lattice raises ValueError since a
    matrix with no columns cannot be represented.
    """
    reduced = _row_hnf([list(col) for col in A.columns()])
    if not reduced:
        raise ValueError("zero lattice has no HNF basis")
    return IntMatrix.from_columns(reduced)


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square list of integer rows, overwritten in place
    by fraction-free Bareiss elimination."""
    n = len(a)
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


def exterior_power_matrix(A: IntMatrix, k: int) -> IntMatrix:
    """k-th exterior power of an integer matrix.

    Rows are indexed by k-subsets of row indices, columns by k-subsets of
    column indices, both in lexicographic order.  The 0-th power is the
    1 x 1 identity.
    """
    if k < 0:
        raise ValueError("negative exterior power")
    if k == 0:
        return IntMatrix([[1]])
    if k > min(A.nrows, A.ncols):
        raise ValueError("exterior power exceeds matrix dimensions")
    rows = A.rows
    col_sets = list(itertools.combinations(range(A.ncols), k))
    return IntMatrix(
        [
            [_bareiss_det([[rows[i][j] for j in cs] for i in rs]) for cs in col_sets]
            for rs in itertools.combinations(range(A.nrows), k)
        ]
    )


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
        b = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        t = sum(b[i][i] for i in range(n))
        if t % k:
            raise InternalCheckError(f"Faddeev-LeVerrier trace {t} not divisible by {k}")
        coeffs.append(-t // k)
        for i in range(n):
            b[i][i] += coeffs[-1]
    if any(any(row) for row in b):
        raise InternalCheckError("Faddeev-LeVerrier did not end in the zero matrix")
    return tuple(coeffs)


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements (p prime)."""
    a = [[x % p for x in row] for row in A.rows]
    rank = 0
    for col in range(A.ncols):
        pivot_row = next((i for i in range(rank, A.nrows) if a[i][col] % p != 0), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(A.nrows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def stable_rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A^n mod p for n = dim(A); the eventual rank of all powers.

    This is the dimension of the largest subspace of F_p^n on which A
    acts invertibly, an invariant of the colimit of A acting on Z^n.
    """
    if A.nrows != A.ncols:
        raise ValueError("stable rank needs a square matrix")
    n = A.nrows
    power = IntMatrix.identity(n)
    base = A.mod(p)
    e = n
    while e:
        if e & 1:
            power = (power @ base).mod(p)
        base = (base @ base).mod(p)
        e >>= 1
    return rank_mod_p(power, p)
