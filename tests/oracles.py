"""Independent oracles used to fix expected values in the test suite.

The first section is implemented from first principles with algorithms
different from the ones in the package (cofactor determinants instead of
Bareiss, determinant divisors instead of elimination, rational solves
instead of Hermite forms), so agreement is meaningful evidence.  The
sections after it hold helpers built on package types that only the
tests use, among them the Fraction routes the package replaced.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from solhom.engine import (
    _atom_moduli,
    finite_part_homology,
    hk_check,
    lefschetz_traces,
)
from solhom.errors import (
    AtomClassExceeded,
    BoundaryRoot,
    CapExceeded,
    DegenerateFix,
    InternalCheckError,
    NonCommuting,
    ParseError,
)
from solhom.fgab import FgAbGroup, GroupHom, LocalizedForm, localized_from_fgab
from solhom.intfactor import factorint, radical
from solhom.limits import MEMBERSHIP_CAP_FACTOR, ColimitGroup, InvariantSignature
from solhom.linalg import IntMatrix, _bareiss_det, hnf, snf
from solhom.nfield import (
    FractionalIdeal,
    NfElement,
    element_valuations,
    factor_rational_prime,
    fundamental_unit,
)
from solhom.places import SolenoidSystem
from solhom.qpoly import Poly, _mul, _pgcd, _trim, parse_poly
from solhom.rootcount import _unit_circle_count, real_roots_in_interval, roots_in_unit_disk, sturm_chain


def det_cofactor(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(a) * det_cofactor(minor)
    return total


def determinant_divisors(rows) -> list[int]:
    """d_k = gcd of all k x k minors, for k = 1 .. rank."""
    m, n = len(rows), len(rows[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in cs] for i in rs]
                g = math.gcd(g, int(det_cofactor(minor)))
        if g == 0:
            break
        out.append(g)
    return out


def invariant_factors_from_minors(rows) -> list[int]:
    """Nonzero Smith diagonal via the determinant-divisor quotients."""
    dd = determinant_divisors(rows)
    out = []
    prev = 1
    for d in dd:
        out.append(d // prev)
        prev = d
    return out


def solve_rational(a_cols, target):
    """One rational solution x of (columns) @ x = target, or None.

    Requires the columns to be linearly independent.
    """
    m = len(a_cols[0])
    n = len(a_cols)
    aug = [[Fraction(a_cols[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(m)]
    rank = 0
    pivots = []
    for col in range(n):
        pivot_row = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if pivot_row is None:
            raise ValueError("columns are dependent")
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        piv = aug[rank][col]
        aug[rank] = [x / piv for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(rank)
        rank += 1
    for i in range(rank, m):
        if aug[i][n] != 0:
            return None
    return [aug[i][n] for i in range(n)]


def lattice_member(a_cols, vec) -> bool:
    """Is vec an integer combination of the (independent) columns?"""
    x = solve_rational(a_cols, vec)
    return x is not None and all(c.denominator == 1 for c in x)


def lattice_equal(a_cols, b_cols) -> bool:
    """Column lattices agree; both column families must be independent."""
    return all(lattice_member(a_cols, v) for v in b_cols) and all(
        lattice_member(b_cols, v) for v in a_cols
    )


def minor_entry(rows, row_set, col_set) -> Fraction:
    return det_cofactor([[rows[i][j] for j in col_set] for i in row_set])


def rank_mod_p_by_sifting(rows, p: int) -> int:
    """Rank over F_p: each row is reduced against the kept rows, keyed by
    their leading column, and kept when it does not reduce to zero."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        v = [x % p for x in row]
        for c in range(len(v)):
            if not v[c]:
                continue
            if c not in basis:
                inv = pow(v[c], -1, p)
                basis[c] = [x * inv % p for x in v]
                break
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, basis[c])]
    return len(basis)


def stable_rank_by_powers(rows, p: int) -> int:
    """The eventual rank of A^k mod p: the ranks of A, A^2, ... until two
    in a row are equal, after which the image of A^k no longer shrinks."""
    n = len(rows)
    power = rows
    rank = rank_mod_p_by_sifting(power, p)
    while True:
        power = [
            [sum(power[i][m] * rows[m][j] for m in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
        following = rank_mod_p_by_sifting(power, p)
        if following == rank:
            return rank
        rank = following


def poly_eval(coeffs, x):
    """Evaluate a polynomial given by descending coefficients."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + Fraction(c)
    return acc


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def poly_from_roots(rational_roots, complex_pairs):
    """Integer polynomial with the given rational roots and complex pairs.

    complex_pairs is a list of (re, im) with im != 0; each contributes the
    real quadratic x^2 - 2 re x + (re^2 + im^2).  Returns descending
    integer coefficients (primitive, positive leading coefficient).
    """
    poly = [Fraction(1)]
    for r in rational_roots:
        poly = poly_mul(poly, [Fraction(1), -Fraction(r)])
    for re, im in complex_pairs:
        re, im = Fraction(re), Fraction(im)
        if im == 0:
            raise ValueError("complex pair with zero imaginary part")
        poly = poly_mul(poly, [Fraction(1), -2 * re, re * re + im * im])
    den = math.lcm(*[c.denominator for c in poly])
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[0] < 0:
        ints = [-c for c in ints]
    return ints


def det_by_elimination(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, swapping rows
    for nonzero pivots."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(len(a)):
        pivot = next((i for i in range(j, len(a)) if a[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            if a[i][j]:
                f = a[i][j] / a[j][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return det


def resultant(f, g) -> Fraction:
    """Resultant of two polynomials (descending Fractions), via the
    Sylvester determinant so that it shares no code with remainder
    sequences; the determinant by elimination, since cofactor expansion
    is exponential in the m + n rows."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while f and f[0] == 0:
        f = f[1:]
    while g and g[0] == 0:
        g = g[1:]
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of zero polynomial")
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + f + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + g + [Fraction(0)] * (size - i - n - 1))
    return det_by_elimination(rows)


def primitive_integer_coeffs(f: Poly) -> list[int]:
    """The descending coefficients of the primitive integer multiple of
    f, up to sign."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def cyclic_resultant_count(F: list[int], n: int) -> int:
    """|Res(F, x^n - 1)|, the number of points of period n of the
    solenoid of a root c of the primitive integer polynomial F: it is
    |N(c^n - 1)| * |a_d|^n (docs/lefschetz.md, "Counts from the input
    polynomial")."""
    return abs(int(resultant(F, [1] + [0] * (n - 1) + [-1])))


def toral_periodic_points(a_rows, n: int) -> int:
    """|det(A^n - I)| for an integer matrix A, by cofactor expansion."""
    dim = len(a_rows)
    power = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * a_rows[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    shifted = [[power[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    return abs(int(det_cofactor(shifted)))


def brute_colimit_member(m_rows, y, cap: int) -> bool:
    """Does M^n y become integral for some 0 <= n <= cap?  M integral."""
    vec = [Fraction(v) for v in y]
    for _ in range(cap + 1):
        if all(v.denominator == 1 for v in vec):
            return True
        vec = [sum(Fraction(m_rows[i][k]) * vec[k] for k in range(len(vec))) for i in range(len(vec))]
    return False


def tensor_invariant_factors(free_a, tors_a, free_b, tors_b):
    """(free rank, sorted prime-power list) of (Z^a + T_a) tensor (Z^b + T_b).

    Computed by the bilinearity expansion with gcds, structured unlike the
    package's atom algebra (no localized summands here, plain groups only).
    """
    free = free_a * free_b
    tors: list[int] = []
    tors += tors_b * free_a
    tors += tors_a * free_b
    for qa in tors_a:
        for qb in tors_b:
            g = math.gcd(qa, qb)
            if g > 1:
                tors.append(g)
    return free, sorted(_prime_power_split(tors))


def tor_invariant_factors(tors_a, tors_b):
    """Sorted prime-power list of Tor(T_a, T_b) for finite torsion lists."""
    tors = []
    for qa in tors_a:
        for qb in tors_b:
            g = math.gcd(qa, qb)
            if g > 1:
                tors.append(g)
    return sorted(_prime_power_split(tors))


def _prime_power_split(qs):
    out = []
    for q in qs:
        n = q
        p = 2
        while n > 1:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append(p**e)
            p += 1
    return out


# ---------------------------------------------------------------------------
# Fraction matrices: the reference route that solhom replaced by integer
# pairs (A, m), an IntMatrix over one positive denominator


class RatMatrix:
    """Immutable matrix with Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rs[0])
        if any(len(row) != width for row in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols) -> "RatMatrix":
        return RatMatrix(list(zip(*cols)))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def apply(self, vec) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * Fraction(x) for a, x in zip(row, vec)) for row in self.rows)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        a = [list(row) for row in self.rows]
        n = self.nrows
        sign = 1
        result = Fraction(1)
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != k:
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            pivot = a[k][k]
            result *= pivot
            for i in range(k + 1, n):
                factor = a[i][k] / pivot
                if factor:
                    a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
        return sign * result

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.rows)]
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot_row is None:
                raise ZeroDivisionError("matrix is singular")
            a[k], a[pivot_row] = a[pivot_row], a[k]
            pivot = a[k][k]
            a[k] = [x / pivot for x in a[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    factor = a[i][k]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
        return RatMatrix([row[n:] for row in a])

    def denominator(self) -> int:
        return math.lcm(*[a.denominator for row in self.rows for a in row])


def rat(pair) -> RatMatrix:
    """The rational matrix A / m of a pair (A, m)."""
    A, m = pair
    return RatMatrix([[Fraction(x, m) for x in row] for row in A.rows])


def int_pair(M: RatMatrix) -> tuple[IntMatrix, int]:
    """The reduced pair (A, m) of M: m is the least common denominator,
    so gcd(m, entries of A) = 1."""
    m = M.denominator()
    return IntMatrix([[int(x * m) for x in row] for row in M.rows]), m


def element(field, coords) -> NfElement:
    """The element with the given coordinates over the power basis."""
    if len(coords) != field.degree:
        raise ValueError("coordinate length mismatch")
    return field.evaluate(Poly(list(coords)[::-1]), field.gen())


def ideal_contains(I: FractionalIdeal, x: NfElement) -> bool:
    """x lies in I: den * x is an integer vector whose column adds nothing
    to the HNF of I's numerator."""
    t = [I.den * c for c in x.num]
    if any(c % x.den for c in t):
        return False
    cols = I.num.columns() + [[c // x.den for c in t]]
    return hnf(IntMatrix.from_columns(cols)) == I.num


def basis_rat(field) -> RatMatrix:
    """W / w for field.basis_matrix = (W, w): its columns are the
    power-basis coordinates of the integral basis."""
    return rat(field.basis_matrix)


# ---------------------------------------------------------------------------
# Fraction polynomials: the reference route that solhom replaced by
# integer coefficient lists (rootcount.sturm_chain, the mod-p kernels)


class QPoly(Poly):
    """A Poly with ring arithmetic, division and Euclid's gcd over Q;
    every polynomial result is a QPoly.  Equal to the Poly with the same
    coefficients."""

    __slots__ = ()

    @staticmethod
    def zero() -> "QPoly":
        return QPoly([0])

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly([c])

    def __add__(self, other: Poly) -> "QPoly":
        a, b = list(self.coeffs), list(other.coeffs)
        n = max(len(a), len(b))
        a = [Fraction(0)] * (n - len(a)) + a
        b = [Fraction(0)] * (n - len(b)) + b
        return QPoly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> "QPoly":
        return self + (-QPoly(other.coeffs))

    def __mul__(self, other: Poly) -> "QPoly":
        return QPoly(_mul(self.coeffs, other.coeffs))

    def scale(self, c) -> "QPoly":
        return QPoly([Fraction(c) * a for a in self.coeffs])

    def __divmod__(self, other: Poly) -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[0]
        for i in range(dq + 1):
            f = rem[i] / lead
            quo[i] = f
            if f:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= f * b
        return QPoly(quo), QPoly(rem)

    def __floordiv__(self, other: Poly) -> "QPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> "QPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "QPoly":
        n = self.degree
        if n <= 0:
            return QPoly.zero()
        return QPoly([c * (n - i) for i, c in enumerate(self.coeffs[:-1])])

    def monic(self) -> "QPoly":
        return QPoly(super().monic().coeffs)

    def gcd(self, other: Poly) -> "QPoly":
        a, b = self, QPoly(other.coeffs)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else QPoly.zero()

    def squarefree_part(self) -> "QPoly":
        """Product of the distinct irreducible factors, monic."""
        if self.degree <= 0:
            return QPoly.const(1)
        g = self.gcd(self.derivative())
        return (self // g).monic()


def fraction_pretty(f: Poly, var: str = "x") -> str:
    """Poly.pretty by Fraction comparisons, abs and str: the route the
    integer numerator/denominator reading replaced."""
    if f.is_zero():
        return "0"
    parts = []
    n = f.degree
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        e = n - i
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xs = var if e == 1 else f"{var}^{e}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def fraction_clear_to_monic_integer(f: Poly) -> tuple[Poly, int]:
    """qpoly.clear_to_monic_integer by Fraction division and powers: the
    route the numerator and denominator reading replaced."""
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    lead = f.coeffs[0]
    ratios = [c / lead for c in f.coeffs]
    exponents: dict[int, int] = {}
    for i, r in enumerate(ratios[1:], start=1):
        if r == 0:
            continue
        for p, e in factorint(r.denominator).items():
            need = -(-e // i)  # ceil(e / i)
            exponents[p] = max(exponents.get(p, 0), need)
    s = math.prod(p**e for p, e in exponents.items()) if exponents else 1
    h = Poly([r * Fraction(s) ** i for i, r in enumerate(ratios)])
    if not h.is_integer():
        raise InternalCheckError("clearing to a monic integer polynomial failed")
    return h, s


def power_sum_values_at(chain, x) -> list[int]:
    """den(x)^deg p(x) for each p of an integer chain at a rational x, as
    the sum of c_i a^(n-i) b^i for x = a/b: the route Horner replaced."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return [sum(c * a ** (len(p) - 1 - i) * b**i for i, c in enumerate(p)) for p in chain]


# ---------------------------------------------------------------------------
# test-only helpers on package types


def ideal_from_elements(field, gens) -> FractionalIdeal:
    """The O_K-module generated by the given nonzero elements: the HNF of
    the columns g * w_j over their common denominator, the route
    PrimeIdeal.ideal took before its Kummer-Dedekind Z-basis."""
    scaled = [(g.num, g.den) for g in gens if not g.is_zero()]
    if not scaled:
        raise ValueError("need at least one nonzero generator")
    den = math.lcm(*(m for _, m in scaled))
    cols = []
    for v, m in scaled:
        cols += field._mult_columns([x * (den // m) for x in v])
    return ideal_from_matrix(field, IntMatrix.from_columns(cols), den)


def euclid_row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF by repeated Euclid rounds, each taking the live row
    of least entry as pivot: linalg's kernel before the extended-gcd step.
    Returns the nonzero rows."""
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


def euclid_hnf(A: IntMatrix) -> IntMatrix:
    """linalg.hnf on euclid_row_hnf."""
    reduced = euclid_row_hnf([list(col) for col in A.columns()])
    if not reduced:
        raise ValueError("zero lattice has no HNF basis")
    return IntMatrix._trusted(tuple(zip(*reduced)))


def _rank_rows_mod_p(a: list[list[int]], p: int) -> int:
    """Rank over F_p of a list of rows with entries in [0, p), by
    Gauss-Jordan elimination that overwrites the list."""
    nrows = len(a)
    rank = 0
    for col in range(len(a[0])):
        pivot_row = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(nrows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements (p prime)."""
    return _rank_rows_mod_p([[x % p for x in row] for row in A.rows], p)


def _mul_rows_mod_p(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in a]


def stable_rank_by_squaring(A: IntMatrix, p: int) -> int:
    """linalg.stable_rank_mod_p as the package ran it before the
    Hessenberg route: the rank of A^n mod p for n = dim(A), A reduced mod
    p once and A^n taken by square-and-multiply on row lists, reduced mod
    p after each product."""
    if A.nrows != A.ncols:
        raise ValueError("stable rank needs a square matrix")
    base = [[x % p for x in row] for row in A.rows]
    power = None
    e = A.nrows
    while True:
        if e & 1:
            power = base if power is None else _mul_rows_mod_p(power, base, p)
        e >>= 1
        if not e:
            return _rank_rows_mod_p(power, p)
        base = _mul_rows_mod_p(base, base, p)


def colimit_contains(G: ColimitGroup, vec) -> bool:
    """vec lies in the colimit: it has a membership stage."""
    return G.membership_stage(vec) is not None


def valuation(x: NfElement, P) -> int:
    """v_P(x) for nonzero x."""
    return P.valuation_of(x.num, x.den)


def trace(x: NfElement) -> Fraction:
    """Tr(x), the trace of its multiplication matrix."""
    A, m = x.mult_pair()
    return Fraction(sum(A.rows[i][i] for i in range(A.nrows)), m)


def quotient(x: NfElement, y: NfElement) -> NfElement:
    """x / y for nonzero y."""
    return x * y.inverse()


def element_pow(x: NfElement, e: int) -> NfElement:
    """x^e for any integer e, a negative power through x.inverse()."""
    return x.pow(e) if e >= 0 else x.inverse().pow(-e)


def principal_ideal(field, x: NfElement) -> FractionalIdeal:
    """The ideal (x)."""
    return ideal_from_elements(field, [x])


def scaled_ideal(I: FractionalIdeal, q) -> FractionalIdeal:
    """q * I for a positive rational q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("scale by a positive rational")
    return ideal_from_matrix(I.field, I.num.scale(q.numerator), I.den * q.denominator)


def inverse_ideal(P) -> FractionalIdeal:
    """P^-1 = O + (gamma/p) O, since P * (p, gamma) = pO
    (docs/ideal-arithmetic.md); checked against P * P^-1 = O."""
    field = P.field
    inv = ideal_from_elements(field, [field.one(), P.gamma.scale(Fraction(1, P.p))])
    if inv * P.ideal() != FractionalIdeal.ring_of_integers(field):
        raise InternalCheckError("prime inverse failed P * P^-1 = O")
    return inv


def prime_power(P, e: int) -> FractionalIdeal:
    """P^e for any integer e, a negative power through inverse_ideal."""
    return P.power(e) if e >= 0 else inverse_ideal(P).pow(-e)


def rational_periodic_oracle(q: int, p: int, n: int) -> int:
    """Closed form |q^n - p^n| for c = q/p in lowest terms."""
    return abs(q**n - p**n)


def valuation_periodic_count(sys, n: int) -> int:
    """Points of period n by factoring: the product of N(P)^v over the
    places P where c^n - 1 has positive valuation v."""
    count = 1
    for P, v in element_valuations(sys.c.pow(n) - sys.field.one()).items():
        if v > 0:
            count *= P.norm() ** v
    return count


def ideal_from_matrix(field, num: IntMatrix, den: int) -> FractionalIdeal:
    """The ideal spanned by the columns of any integer matrix num over den,
    checked and put in HNF, as FractionalIdeal's constructor did before it
    took an HNF."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num.nrows != field.degree:
        raise ValueError("ideal columns must live in the field")
    H = hnf(num)
    if H.ncols != field.degree:
        raise ValueError("ideal lattice must have full rank")
    return FractionalIdeal(field, H, den)


def basis_elements(I: FractionalIdeal) -> list[NfElement]:
    """The lattice basis of I as field elements."""
    return [NfElement(I.field, col, I.den) for col in I.num.columns()]


def _embedding_bound(x: NfElement) -> Fraction:
    """Upper bound on |sigma(x)| over both real embeddings of a quadratic field."""
    p, q = x.power_coords()
    f = x.field.min_poly
    theta_max = 1 + max(abs(f.coeffs[1]), abs(f.coeffs[2]))
    return abs(p) + abs(q) * theta_max


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _isqrt_frac(q: Fraction) -> int:
    q = Fraction(q)
    if q < 0:
        return 0
    return math.isqrt(q.numerator // q.denominator)


def fraction_box_bound(I: FractionalIdeal) -> int:
    """The bound on the second lattice coordinate of a unit-scaled
    generator of a real quadratic ideal I, in Fractions, as the package
    read it before it read it on integers.

    Any generator can be unit-scaled so that both embeddings have
    absolute value at most sqrt(N(I) * eps); Cramer against the lattice
    basis then bounds the second coordinate, since the embedding matrix
    of the basis has |det| = sqrt(disc) * N(I).
    """
    target = I.norm()
    field = I.field
    x_bound = _isqrt_frac(target * (_embedding_bound(fundamental_unit(field)) + 1)) + 1
    covol = _isqrt_frac(Fraction(field.discriminant)) * target
    if covol == 0:
        raise InternalCheckError("degenerate lattice in real quadratic search")
    return _ceil_frac(2 * x_bound * _embedding_bound(basis_elements(I)[0]) / covol) + 1


def box_scan_generator(I: FractionalIdeal):
    """A generator of an ideal I of a real quadratic field, or None.

    Scans every value b of the second lattice coordinate over the box
    that holds a unit-scaled generator, solving the norm equation for the
    first, so its cost grows with the fundamental unit.  This is the
    search the package ran before it walked the cycle of reduced forms.
    """
    target = I.norm()
    u1, u2 = basis_elements(I)
    alpha, beta, gamma = _element_norm_form(I)
    bmax = fraction_box_bound(I)
    for b in range(-bmax, bmax + 1):
        for sign in (1, -1):
            for a in _solve_quadratic_int(alpha, beta * b, gamma * b * b - sign * target):
                x = u1.scale(a) + u2.scale(b)
                if not x.is_zero() and abs(x.norm()) == target:
                    return x
    return None


def basis_inverse_gen(field) -> NfElement:
    """theta as the package wrote it before theta's coordinates came with
    the integral basis: (W / w)^-1 e_1 in Fractions, and -f(0) in degree
    1."""
    if field.degree == 1:
        return field.from_rational(-field.min_poly.coeffs[1])
    coords = basis_rat(field).inverse().apply([int(i == 1) for i in range(field.degree)])
    q = math.lcm(*(c.denominator for c in coords))
    return NfElement(field, [int(c * q) for c in coords], q)


def poly_dedekind_index_free(fpoly: Poly, p: int, factors) -> bool:
    """The Dedekind criterion as the package ran it before it moved onto
    qpoly's integer-list kernels: the lifts' products g and h as Polys,
    F = (g h - f) / p in Fractions, then gcd(F, g) and gcd(., h) over F_p."""
    g_lift = QPoly.const(1)
    h_lift = QPoly.const(1)
    for coeffs_asc, mult in factors:
        irr = QPoly(list(reversed([c % p for c in coeffs_asc])))
        g_lift = g_lift * irr
        for _ in range(mult - 1):
            h_lift = h_lift * irr
    F = (g_lift * h_lift - fpoly).scale(Fraction(1, p))
    if not F.is_integer():
        raise InternalCheckError("Dedekind lift difference not divisible by p")
    cur = _gcd_mod_p(F.int_coeffs(), g_lift.int_coeffs(), p)
    cur = _gcd_mod_p(tuple(reversed(cur)), h_lift.int_coeffs(), p)
    return len(cur) == 1


def _gcd_mod_p(a_desc, b_desc, p):
    """gcd over F_p of two descending integer lists, ascending."""
    fa = _trim([c % p for c in reversed(list(a_desc))])
    fb = _trim([c % p for c in reversed(list(b_desc))])
    if not fa:
        return tuple(fb) if fb else (0,)
    if not fb:
        return tuple(fa)
    return tuple(_pgcd(fa, fb, p))


def contains_box_generator(I: FractionalIdeal):
    """principal_generator's box search in degree >= 3 as the package ran
    it before candidates were integer columns: each candidate a
    Fraction-scaled sum of I's basis elements from zero, kept when its
    norm is N(I) and ideal_contains admits it."""
    field = I.field
    target = I.norm()
    basis = basis_elements(I)
    for radius in (1, 2, 3):
        for combo in itertools.product(range(-radius, radius + 1), repeat=field.degree):
            x = field.zero()
            for c, b in zip(combo, basis):
                x = x + b.scale(c)
            if not x.is_zero() and abs(x.norm()) == target and ideal_contains(I, x):
                return x
    return None


def omega(field) -> NfElement:
    """omega, whose powers 1, omega, ..., omega^(d-1) are the integral
    basis; theta in degree 1."""
    if field.degree == 1:
        return field.gen()
    return NfElement(field, [int(i == 1) for i in range(field.degree)])


def norm_test_fundamental_unit(field):
    """The fundamental unit of a real quadratic field by the loop the
    package ran before it read the norm off Q: every convergent h/k has
    N(h - k * conj(omega)) computed in full, and the first of absolute
    value 1 gives the unit."""
    D0 = field.discriminant
    if D0 % 4 == 0:
        Dcf, P, Q = D0 // 4, 0, 1
    else:
        Dcf, P, Q = D0, 1, 2
    w = omega(field)
    tr, nm = int(trace(w)), int(w.norm())
    s = math.isqrt(Dcf)
    hm1, hm2 = 1, 0
    km1, km2 = 0, 1
    for _ in range(100000):
        a = (P + s) // Q
        h = a * hm1 + hm2
        k = a * km1 + km2
        if abs(h * h - tr * h * k + nm * k * k) == 1:
            return NfElement(field, (h - tr * k, k))
        hm2, hm1 = hm1, h
        km2, km1 = km1, k
        P = a * Q - P
        Q = (Dcf - P * P) // Q
    raise InternalCheckError("continued fraction did not produce a unit")


def definite_scan_generator(I: FractionalIdeal):
    """A generator of an ideal I of an imaginary quadratic field, or None.

    Scans every value b of the second lattice coordinate over the box
    that holds every generator, solving the norm equation for the first,
    so it returns the generator with least (b, a) and its cost grows with
    N(I).  This is the search the package ran before Gauss reduction.
    """
    target = I.norm()
    alpha, beta, gamma = _element_norm_form(I)
    u1, u2 = basis_elements(I)
    # 4 alpha N = (2 alpha a + beta b)^2 + (4 alpha gamma - beta^2) b^2
    det4 = 4 * alpha * gamma - beta * beta
    if det4 <= 0:
        raise InternalCheckError("norm form not definite on an imaginary field")
    bmax = _isqrt_frac(4 * alpha * target / det4) + 1
    for b in range(-bmax, bmax + 1):
        for a in _solve_quadratic_int(alpha, beta * b, gamma * b * b - target):
            x = u1.scale(a) + u2.scale(b)
            if not x.is_zero() and abs(x.norm()) == target:
                return x
    return None


def _element_norm_form(I: FractionalIdeal) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) with N(a*u1 + b*u2) = alpha a^2 + beta ab +
    gamma b^2 for the lattice basis u1, u2 of a quadratic ideal I."""
    u1, u2 = basis_elements(I)
    alpha = u1.norm()
    gamma = u2.norm()
    beta = (u1 + u2).norm() - alpha - gamma
    return alpha, beta, gamma


def element_norm_form(I: FractionalIdeal) -> tuple[int, int, int]:
    """The norm form (A, B, C) of a quadratic ideal from element norms,
    the route the package took before it read the form off the HNF
    columns: (N(u1), N(u1 + u2) - N(u1) - N(u2), N(u2)) / N(I), checked
    integral of discriminant disc(K)."""
    target = I.norm()
    A, B, C = (c / target for c in _element_norm_form(I))
    if any(c.denominator != 1 for c in (A, B, C)) or B * B - 4 * A * C != I.field.discriminant:
        raise InternalCheckError("norm form of an ideal is not integral of discriminant disc(K)")
    return int(A), int(B), int(C)


def ideal_index(I: FractionalIdeal, J: FractionalIdeal) -> Fraction:
    """Generalized index [I : J] = N(J) / N(I), a positive rational.

    When J is contained in I this is the honest subgroup index.
    """
    if I.field != J.field:
        raise ValueError("ideals over different fields")
    return J.norm() / I.norm()


def _solve_quadratic_int(A: Fraction, B: Fraction, C: Fraction) -> list[int]:
    """Integer solutions a of A a^2 + B a + C = 0 (A != 0)."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    num = disc.numerator * disc.denominator
    root = math.isqrt(num)
    if root * root != num:
        return []
    sqrt_disc = Fraction(root, disc.denominator)
    out = []
    for sgn in (1, -1):
        cand = (-B + sgn * sqrt_disc) / (2 * A)
        if cand.denominator == 1:
            out.append(int(cand))
    return sorted(set(out))


def reduced_form_count(D: int) -> int:
    """The number of reduced primitive positive definite forms (a, b, c)
    of discriminant D < 0: |b| <= a <= c, b >= 0 when |b| = a or a = c.
    Each proper equivalence class holds exactly one, so this is the class
    number h(D) (Cohen, GTM 138, 5.3.4)."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                if c >= a and not (b < 0 and a == c) and math.gcd(a, b, c) == 1:
                    count += 1
        a += 1
    return count


def system_with(sys, **changes) -> SolenoidSystem:
    """A new system with the constructor fields of sys, some replaced by
    changes; every cache (a private attribute) starts empty."""
    fields = {k: v for k, v in vars(sys).items() if not k.startswith("_")}
    return SolenoidSystem(**{**fields, **changes})


def lefschetz_trace(sys, n: int) -> int:
    """The period-n row of lefschetz_traces."""
    if n < 1:
        raise ValueError("period must be positive")
    return lefschetz_traces(sys, n)[-1]


def real_root_count(f: Poly) -> int:
    """Distinct real roots of f."""
    return real_roots_in_interval(f, None, None)


def unit_circle_root_count(f: Poly) -> int:
    """Distinct roots of f with |z| = 1, exactly."""
    return _unit_circle_count(sturm_chain(f.coeffs)[0])


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """f after g."""
    if g.codomain != f.domain:
        raise ValueError("composition mismatch")
    return GroupHom(g.domain, f.codomain, f.matrix @ g.matrix)


def from_presentation(ngens: int, relations) -> FgAbGroup:
    """Quotient of Z^ngens by the subgroup generated by the relations.

    >>> from_presentation(2, [[2, 0]])
    FgAbGroup(free_rank=1, torsion=(2,))
    >>> from_presentation(1, [])
    FgAbGroup(free_rank=1, torsion=())
    """
    if ngens == 0:
        return FgAbGroup(0)
    if not relations:
        return FgAbGroup(ngens)
    cols = [list(r) for r in relations]
    if any(len(c) != ngens for c in cols):
        raise ValueError("relation length does not match generator count")
    mat = IntMatrix.from_columns(cols)
    S, _, _ = snf(mat)
    diag = [S.rows[i][i] for i in range(min(S.nrows, S.ncols))]
    rank_drop = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return FgAbGroup(ngens - rank_drop, torsion)


def tensor(a: FgAbGroup | LocalizedForm, b: FgAbGroup | LocalizedForm) -> LocalizedForm:
    return _coerce(a).tensor(_coerce(b))


def tor(a: FgAbGroup | LocalizedForm, b: FgAbGroup | LocalizedForm) -> LocalizedForm:
    return _coerce(a).tor(_coerce(b))


def _coerce(g) -> LocalizedForm:
    if isinstance(g, LocalizedForm):
        return g
    if isinstance(g, FgAbGroup):
        return localized_from_fgab(g)
    raise AtomClassExceeded(f"cannot interpret {g!r} as a sum of atoms")


def signatures_match(a: InvariantSignature, b: InvariantSignature) -> bool:
    """Equal rank and equal mod-p ranks, a prime missing from one side
    counting as full rank there."""
    if a.rank != b.rank:
        return False
    ra, rb = dict(a.mod_p_ranks), dict(b.mod_p_ranks)
    return all(ra.get(p, a.rank) == rb.get(p, b.rank) for p in set(ra) | set(rb))


def reversed_poly(f: Poly) -> Poly:
    """x^n f(1/x); the min poly of 1/alpha up to scaling when f(0) != 0."""
    if f.coeffs[-1] == 0:
        raise ValueError("reversal needs a nonzero constant term")
    return Poly(list(reversed(f.coeffs)))


def parse_rational(text: str) -> Fraction:
    """Parse a constant expression such as "3/2" or "-(1/4 + 1)"."""
    p = parse_poly(text)
    if p.degree > 0:
        raise ParseError("expected a constant, found the variable")
    return p.coeffs[0]


def _ideal_from_power_coords(field, products) -> FractionalIdeal:
    """The lattice spanned by elements given over the power basis,
    converted to the integral basis by W^-1 in Fractions."""
    W_inv = basis_rat(field).inverse()
    coord_sets = [W_inv.apply(a) for a in products]
    den = math.lcm(*(c.denominator for coords in coord_sets for c in coords))
    cols = [[int(c * den) for c in coords] for coords in coord_sets]
    return ideal_from_matrix(field, IntMatrix.from_columns(cols), den)


def fraction_ideal_from_elements(field, gens) -> FractionalIdeal:
    """The O_K-module generated by nonzero elements, from Poly products
    g * w_j over the power basis."""
    W = basis_rat(field)
    return _ideal_from_power_coords(field, [
        poly_mod_product(field, power_coords(g), W.column(j))
        for g in gens for j in range(field.degree)
    ])


def fraction_ideal_product(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """I * J from Poly products of the two lattice bases over the power
    basis."""
    field = I.field

    def basis(L):
        W = basis_rat(field)
        return [W.apply([Fraction(c, L.den) for c in col]) for col in L.num.columns()]

    return _ideal_from_power_coords(
        field, [poly_mod_product(field, a, b) for a in basis(I) for b in basis(J)]
    )


def fraction_ideal_power(I: FractionalIdeal, e: int) -> FractionalIdeal:
    """I^e for e >= 0 by repeated fraction_ideal_product."""
    out = FractionalIdeal.ring_of_integers(I.field)
    for _ in range(e):
        out = fraction_ideal_product(out, I)
    return out


def product_inverse_ideal(P) -> FractionalIdeal:
    """P^-1 = p^-1 * P^(e-1) * prod of the other primes Q over p to
    their e_Q, as a product of ideals."""
    acc = fraction_ideal_power(P.ideal(), P.e - 1)
    for Q in factor_rational_prime(P.field, P.p):
        if Q != P:
            acc = fraction_ideal_product(acc, fraction_ideal_power(Q.ideal(), Q.e))
    inv = FractionalIdeal(acc.field, acc.num, acc.den * P.p)
    if fraction_ideal_product(inv, P.ideal()) != FractionalIdeal.ring_of_integers(P.field):
        raise InternalCheckError("prime inverse failed P * P^-1 = O")
    return inv


def anti_uniformizer(inverse: FractionalIdeal):
    """u with v_P(u) = -1 and v_Q(u) >= 0 for the other primes Q over p,
    given inverse = P^-1: a basis vector of P^-1 outside O_K."""
    for u in basis_elements(inverse):
        if u.den != 1:
            return u
    raise InternalCheckError("P^-1 has no non-integral basis vector")


def absorption_valuation(x, P, u) -> int:
    """v_P(x): with x = y/m, y integral, the number of times y can absorb
    the anti-uniformizer u of P and stay integral, minus e * v_p(m)."""
    m = x.den
    vp_m = 0
    mm = m
    while mm % P.p == 0:
        mm //= P.p
        vp_m += 1
    count = 0
    z = x.scale(m) * u
    while z.den == 1:
        count += 1
        z = z * u
    return count - P.e * vp_m


def hk_report(sys) -> dict:
    """hk_check of a system against its own finite part."""
    return hk_check(sys, finite_part_homology(sys))


def gamma_lattice(sys, n: int, k: int) -> FractionalIdeal:
    """The (n, k) stage of the adapted lattice tower of a solenoid system
    inside K.

    Stage (0, 0) is the ring of integers; raising n deepens the
    contracting finite part, raising k the expanding one.
    """
    out = FractionalIdeal.ring_of_integers(sys.field)
    for fp in sys.finite_stable:
        out = out * prime_power(fp.prime, n * fp.valuation)
    for fp in sys.finite_unstable:
        out = out * prime_power(fp.prime, k * fp.valuation)
    return out


def is_checked_matrix(M: IntMatrix) -> bool:
    """M's rows are a tuple of tuples of exact ints, and the checking
    constructor accepts them and builds an equal matrix."""
    return (
        type(M.rows) is tuple
        and all(type(row) is tuple and all(type(x) is int for x in row) for row in M.rows)
        and IntMatrix(M.rows) == M
    )


def lattice_contains(H: IntMatrix, vec) -> bool:
    """Membership of an integer vector in the column lattice given by H.

    H must be a column HNF (staircase) matrix.  Solves by forward
    substitution down the pivot rows.
    """
    residual = [int(x) for x in vec]
    if len(residual) != H.nrows:
        raise ValueError("dimension mismatch")
    for j in range(H.ncols):
        pivot_row = next(i for i in range(H.nrows) if H.rows[i][j] != 0)
        r = residual[pivot_row]
        p = H.rows[pivot_row][j]
        if r % p != 0:
            return False
        q = r // p
        if q:
            col = H.column(j)
            residual = [a - q * b for a, b in zip(residual, col)]
    return all(a == 0 for a in residual)


def integer_kernel(A: IntMatrix) -> list[tuple[int, ...]]:
    """A basis (possibly empty) for the integer kernel {x : A x = 0}."""
    S, _, V = snf(A)
    rank = len([i for i in range(min(S.nrows, S.ncols)) if S.rows[i][i] != 0])
    return [V.column(j) for j in range(rank, A.ncols)]


def roots_outside_unit_disk(f: Poly) -> int:
    """Distinct roots with |z| > 1; raises BoundaryRoot like the inside count."""
    F = QPoly(f.coeffs).squarefree_part()
    if F.degree < 1:
        return 0
    return F.degree - roots_in_unit_disk(F)


def power_coords(x) -> tuple[Fraction, ...]:
    """x over the power basis 1, theta, ...: W times its integral
    coordinates."""
    v, m = x.num, x.den
    return basis_rat(x.field).apply([Fraction(c, m) for c in v])


def _ascending(p: Poly, d: int) -> tuple[Fraction, ...]:
    cs = list(reversed(p.coeffs))
    return tuple(cs + [Fraction(0)] * (d - len(cs)))


def poly_mod_product(field, a, b) -> tuple[Fraction, ...]:
    """a * b for power-basis coordinates a and b: the Poly product
    reduced mod the defining polynomial f."""
    prod = QPoly(reversed(a)) * QPoly(reversed(b))
    return _ascending(prod % field.min_poly, field.degree)


def poly_mod_inverse(field, a) -> tuple[Fraction, ...]:
    """1/a for nonzero power-basis coordinates a: the extended Euclid of
    the coordinate polynomial against f, in Fractions."""
    r0, r1 = QPoly(field.min_poly.coeffs), QPoly(reversed(a))
    s0, s1 = QPoly.zero(), QPoly.const(1)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise InternalCheckError("element shares a factor with the minimal polynomial")
    return _ascending(s0.scale(1 / r0.coeffs[0]) % field.min_poly, field.degree)


def _power_mult_matrix(field, a) -> RatMatrix:
    d = field.degree
    return RatMatrix.from_columns(
        [poly_mod_product(field, a, [int(i == j) for i in range(d)]) for j in range(d)]
    )


def power_basis_mult_matrix(x) -> RatMatrix:
    """Multiplication by x over the power basis 1, theta, ..., as
    Fractions from Poly products mod f."""
    return _power_mult_matrix(x.field, power_coords(x))


def fraction_mult_matrix(x) -> RatMatrix:
    """W^-1 M W: multiplication by x over the integral basis, conjugated
    from the power basis in Fractions."""
    field = x.field
    W = basis_rat(field)
    return W.inverse() @ power_basis_mult_matrix(x) @ W


def trace_form_discriminant(field) -> Fraction:
    """disc(Z[theta]) = det(Tr(theta^(i+j))), traces of Fraction
    power-basis multiplication matrices."""
    d = field.degree
    theta = [int(i == 1) for i in range(d)]
    powers = [[int(i == 0) for i in range(d)]]
    for _ in range(2 * d - 2):
        powers.append(poly_mod_product(field, powers[-1], theta))
    traces = [sum(_power_mult_matrix(field, a).rows[i][i] for i in range(d)) for a in powers]
    return RatMatrix([[traces[i + j] for j in range(d)] for i in range(d)]).det()


def fraction_char_poly(rows) -> tuple[Fraction, ...]:
    """Coefficients of det(xI - A), by Faddeev-LeVerrier in Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        ab = [[sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
        c = -sum((ab[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(c)
        b = [[ab[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


def fraction_lefschetz_traces(sys, n: int) -> list[int]:
    """Rows N^k * det(I - m_{1/c}^k) for k = 1..n, from RatMatrix powers
    of W^-1 M W and the Fraction char_poly at 1."""
    one = sys.field.one()
    m_theta = fraction_mult_matrix(sys.c.inverse())
    c_pow, m_pow, scale = one, RatMatrix.identity(sys.field.degree), Fraction(1)
    out = []
    for k in range(1, n + 1):
        c_pow = c_pow * sys.c
        if c_pow == one:
            raise DegenerateFix(f"c^{k} = 1, the fixed set is not finite")
        m_pow = m_pow @ m_theta
        scale *= sys.transfer_index
        value = scale * sum(fraction_char_poly(m_pow.rows))
        if value.denominator != 1:
            raise InternalCheckError("trace sum is not an integer")
        out.append(int(value))
    return out


# ---------------------------------------------------------------------------
# root location in Fractions: the Sturm and Cauchy chains over Q that
# solhom.rootcount replaced by sign-preserving pseudo-remainders over Z


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def fraction_sturm_chain(f: QPoly) -> list[QPoly]:
    """Negative-remainder chain starting from (f, f')."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations([_sign(poly_eval(p.coeffs, x)) for p in chain])


def _sign_at_infinity(p: Poly, positive: bool) -> int:
    if p.is_zero():
        return 0
    s = _sign(p.coeffs[0])
    return s if positive or p.degree % 2 == 0 else -s


def _variations_at_infinity(chain: list[Poly], positive: bool) -> int:
    return _variations([_sign_at_infinity(p, positive) for p in chain])


def fraction_real_roots_in_interval(f: Poly, a, b) -> int:
    """Distinct real roots of f in the open interval (a, b); None for an
    infinite end."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    F = QPoly(f.coeffs).squarefree_part()
    if F.degree < 1:
        return 0
    if a is not None and b is not None and Fraction(a) >= Fraction(b):
        return 0
    chain = fraction_sturm_chain(F)
    va = _variations_at_infinity(chain, False) if a is None else _variations_at(chain, Fraction(a))
    vb = _variations_at_infinity(chain, True) if b is None else _variations_at(chain, Fraction(b))
    count = va - vb  # roots in (a, b]
    if b is not None and poly_eval(F.coeffs, b) == 0:
        count -= 1
    if count < 0:
        raise InternalCheckError("negative Sturm count")
    return count


def fraction_real_root_count(f: Poly) -> int:
    return fraction_real_roots_in_interval(f, None, None)


def _circle_pair_polys(F: QPoly) -> tuple[QPoly, QPoly]:
    """A, B with F(z) = q(z) (z^2 - x z + 1) + A(x) z + B(x)."""
    # z^k = u_k(x) z + v_k(x) modulo z^2 - x z + 1:
    # u_{k+1} = x u_k + v_k, v_{k+1} = -u_k
    u, v = QPoly.zero(), QPoly.const(1)
    A, B = QPoly.zero(), QPoly.zero()
    x = QPoly([1, 0])
    for c in reversed(F.coeffs):  # ascending order
        cp = QPoly.const(c)
        A = A + cp * u
        B = B + cp * v
        u, v = x * u + v, -u
    return A, B


def fraction_unit_circle_root_count(f: Poly) -> int:
    """Distinct roots with |z| = 1: z = +-1 by evaluation, conjugate
    pairs from gcd(A, B) on (-2, 2)."""
    F = QPoly(f.coeffs).squarefree_part()
    if F.degree < 1:
        return 0
    count = int(poly_eval(F.coeffs, 1) == 0) + int(poly_eval(F.coeffs, -1) == 0)
    A, B = _circle_pair_polys(F)
    if A.is_zero() and B.is_zero():
        raise InternalCheckError("nonzero polynomial reduced to zero remainder")
    if A.is_zero():
        G = B
    elif B.is_zero():
        G = A
    else:
        G = A.gcd(B)
    if G.degree >= 1:
        count += 2 * fraction_real_roots_in_interval(G, -2, 2)
    return count


def fraction_cauchy_index(P: QPoly, Q: QPoly) -> int:
    """Cauchy index of Q/P over the whole real line."""
    if P.is_zero():
        raise ValueError("index of a fraction with zero denominator")
    if Q.is_zero():
        return 0
    chain = [P, Q]
    while True:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append(-r)
    return _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True)


def fraction_roots_in_unit_disk(f: Poly) -> int:
    """Distinct roots with |z| < 1 from the Cayley transform and a Cauchy
    index in Fractions; BoundaryRoot with the on-circle count."""
    F = QPoly(f.coeffs).squarefree_part()
    if F.degree < 1:
        return 0
    on_circle = fraction_unit_circle_root_count(F)
    if on_circle:
        raise BoundaryRoot(f"{on_circle} root(s) of modulus one", on_circle=on_circle)
    n = F.degree
    # g(w) = (w+1)^n F((w-1)/(w+1)), degree preserved since F(1) != 0
    wp = QPoly([1, 1])
    wm = QPoly([1, -1])
    g = QPoly.zero()
    up = QPoly.const(1)  # (w-1)^i, built up
    downs = [QPoly.const(1)]
    for _ in range(n):
        downs.append(downs[-1] * wp)
    for i, c in enumerate(reversed(F.coeffs)):  # F = sum c_i z^i
        if c != 0:
            g = g + (up * downs[n - i]).scale(c)
        up = up * wm
    if g.degree != n:
        raise InternalCheckError("Cayley transform dropped degree")
    # g(i w) = P(w) + i Q(w)
    p_coeffs = {}
    q_coeffs = {}
    for k, c in enumerate(reversed(g.coeffs)):
        if c == 0:
            continue
        if k % 2 == 0:
            p_coeffs[k] = c * (-1) ** (k // 2)
        else:
            q_coeffs[k] = c * (-1) ** ((k - 1) // 2)
    P = QPoly([p_coeffs.get(k, Fraction(0)) for k in range(max(p_coeffs), -1, -1)])
    Q = (
        QPoly([q_coeffs.get(k, Fraction(0)) for k in range(max(q_coeffs), -1, -1)])
        if q_coeffs
        else QPoly.zero()
    )
    index = fraction_cauchy_index(P, Q)
    # boundary correction for the atan(Q/P) limits at +-infinity
    r = (Q.degree if not Q.is_zero() else -1) - P.degree
    if r > 0 and r % 2 == 1:
        s = -_sign(Q.coeffs[0] * P.coeffs[0])
    else:
        s = 0
    total = n + s + index
    if total % 2 != 0:
        raise InternalCheckError("half-plane count is not an integer")
    inside = total // 2
    if not 0 <= inside <= n:
        raise InternalCheckError("half-plane count out of range")
    return inside


# ---------------------------------------------------------------------------
# colimit comparison in Fractions: the RatMatrix.inverse route and the
# block-sum H/K check that solhom.limits and solhom.engine replaced by the
# integer adjugate and the per-degree comparison


def fraction_membership_stage(G: ColimitGroup, vec) -> int | None:
    """ColimitGroup.membership_stage on Fraction vectors, applying T
    through IntMatrix.apply, with the same bound and overscan cap."""
    v = [Fraction(c) for c in vec]
    if len(v) != G.rank:
        raise ValueError("vector length does not match the rank")
    den = math.lcm(*(c.denominator for c in v)) if v else 1
    if den == 1:
        return 0
    omega = 0
    rest = den
    for p in G.det_primes:
        while rest % p == 0:
            rest //= p
            omega += 1
    if rest != 1:
        return None
    bound = G.rank * omega
    cap = MEMBERSHIP_CAP_FACTOR * bound
    current = v
    for n in range(cap + 1):
        if all(c.denominator == 1 for c in current):
            if n > bound:
                raise CapExceeded(f"membership witness at stage {n} beyond proven bound {bound}")
            return n
        current = list(G.matrix.apply(current))
    return None


def fraction_equal_commuting(G: ColimitGroup, H: ColimitGroup) -> tuple[bool, tuple | None]:
    """equal_commuting with the columns of T^(-1) from RatMatrix.inverse."""
    if G.rank != H.rank:
        return False, None
    if G.rank == 0:
        return True, None
    A, B = G.matrix, H.matrix
    if A @ B != B @ A:
        raise NonCommuting("tower matrices do not commute; membership cannot decide equality")
    for M, target in ((A, H), (B, G)):
        inv = rat((M, 1)).inverse()
        for j in range(M.ncols):
            col = inv.column(j)
            if fraction_membership_stage(target, col) is None:
                return False, col
    return True, None


def diagonal_colimit(diag) -> ColimitGroup:
    """The tower diag(d_1, ..., d_r): its determinant is the product of
    the d_i, its adjugate diagonal with entries det / d_i, and its primes
    those of the d_i."""
    n, det = len(diag), math.prod(diag)

    def rows(entries):
        return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))

    return ColimitGroup(
        IntMatrix._trusted(rows(diag)),
        det,
        lambda: IntMatrix._trusted(rows([det // x for x in diag])),
        {p for x in set(diag) for p in factorint(x)},
    )


def atom_colimit(e) -> ColimitGroup:
    """The canonical atom tower of a degree with a closed form, its atoms
    aligned to a diagonal tower as engine._certified aligns them."""
    return diagonal_colimit(_atom_moduli(e))


def _atoms_in_tower_order(e) -> list:
    """The closed form's atoms, sorted by LocalizedForm; for a diagonal
    tower, the i-th of them goes where the tower's i-th smallest
    diagonal radical sits (a radical of 1 is Z and sorts first)."""
    atoms = list(e.closed.atoms)
    T = e.colimit.matrix
    if T is None or not T.is_diagonal() or T.nrows != len(atoms):
        return atoms
    diagonal = [radical(abs(T.rows[i][i])) for i in range(T.nrows)]
    placed = [None] * len(atoms)
    for atom, i in zip(atoms, sorted(range(T.nrows), key=diagonal.__getitem__)):
        placed[i] = atom
    return placed


def block_diagonal(blocks) -> IntMatrix:
    """The block-diagonal matrix of square integer matrices, in order."""
    size = sum(b.nrows for b in blocks)
    rows = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[off + i][off + j] = b.rows[i][j]
        off += b.nrows
    return IntMatrix(rows)


def block_sums(sys, finite, i: int) -> tuple[ColimitGroup, ColimitGroup]:
    """K-group i as one colimit, of the block sum of the towers of parity
    i, and the homology side, the block sum of their atom towers (the
    tower itself for a degree without a closed form)."""
    towers, atoms = [], []
    for k in sorted(finite.entries):
        if (k - sys.degree_shift) % 2 != i:
            continue
        e = finite.entries[k]
        towers.append(e.colimit.matrix)
        if e.closed is None:
            atoms.append(e.colimit.matrix)
        else:
            for kind, m in _atoms_in_tower_order(e):
                atoms.append(IntMatrix([[m if kind == "inv" else 1]]))
    return ColimitGroup(block_diagonal(towers)), ColimitGroup(block_diagonal(atoms))


def block_sum_hk_check(sys, finite) -> dict:
    """hk_check on block sums: each K-group, as the colimit of one block
    sum, against the block sum of its parity's atom towers, by
    fraction_equal_commuting.  A parity whose two block sums do not
    commute reads "non-commuting"."""
    report: dict = {"verdicts": {}, "witnesses": {}}
    for i in (0, 1):
        k_group, hom_side = block_sums(sys, finite, i)
        try:
            equal, witness = fraction_equal_commuting(k_group, hom_side)
        except NonCommuting:
            report["verdicts"][i] = "non-commuting"
            continue
        report["verdicts"][i] = "equal" if equal else "differ"
        if witness is not None:
            report["witnesses"][i] = [str(x) for x in witness]
    total = sum(e.rank for e in finite.entries.values())
    rank_identity = total == 2 ** sys.field.degree
    report["rank_identity"] = rank_identity
    if not rank_identity:
        raise InternalCheckError("degree ranks do not add up to 2^[K:Q]")
    return report


# ---------------------------------------------------------------------------
# tower data without the exterior-power identities: the per-minor route
# that the Laplace ladder replaced, and each tower's determinant and
# adjugate by elimination instead of Sylvester-Franke and Jacobi


def minor_exterior_power(A: IntMatrix, k: int) -> IntMatrix:
    """Lambda^k(A) with each k-minor taken on its own by Bareiss, rows
    and columns on k-subsets in lexicographic order."""
    if k == 0:
        return IntMatrix([[1]])
    rows = A.rows
    col_sets = list(itertools.combinations(range(A.ncols), k))
    return IntMatrix(
        [
            [_bareiss_det([[rows[i][j] for j in cs] for i in rs]) for cs in col_sets]
            for rs in itertools.combinations(range(A.nrows), k)
        ]
    )


def eliminated_adjugate(T: IntMatrix) -> IntMatrix:
    """adj T by fraction-free Gauss-Jordan: IntMatrix.inverse_pair gives
    T^-1 as B / d with d = +-det T."""
    B, d = T.inverse_pair()
    return B if d == T.det() else B.scale(-1)


# ---------------------------------------------------------------------------
# Lefschetz rows by matrix powers: the loop that Newton's identities on
# one characteristic polynomial replaced


def lefschetz_rows_by_matrix_powers(A: IntMatrix, m: int, N: int, n: int) -> list[int]:
    """Rows N^k det(m^k I - A^k) / m^(kd), k = 1..n, with the powers of A
    carried from one row to the next and each determinant by Bareiss."""
    d = A.nrows
    power = IntMatrix.identity(d)
    out = []
    for k in range(1, n + 1):
        power = power @ A
        det = (IntMatrix.identity(d).scale(m**k) - power).det()
        # the conjugates of c^-k are the eigenvalues of m_{1/c}^k, and one
        # of them is 1 exactly when c^k = 1
        if det == 0:
            raise DegenerateFix(f"c^{k} = 1, the fixed set is not finite")
        value, den = N**k * det, m ** (k * d)
        if value % den:
            raise InternalCheckError("trace sum is not an integer")
        out.append(value // den)
    return out
