"""Independent oracles used to fix expected values in the test suite.

Everything up to the last section is implemented from first principles
with algorithms different from the ones in the package (cofactor
determinants instead of Bareiss, determinant divisors instead of
elimination, rational solves instead of Hermite forms), so agreement is
meaningful evidence.  The last section holds helpers built on package
types that only the tests use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from solhom.engine import finite_part_homology, hk_check, k_theory
from solhom.linalg import IntMatrix, snf
from solhom.nfield import FractionalIdeal, element_valuations
from solhom.qpoly import Poly
from solhom.rootcount import roots_in_unit_disk


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


def resultant(f, g) -> Fraction:
    """Resultant of two polynomials (descending Fractions), via the
    Sylvester determinant so that it shares no code with remainder
    sequences."""
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
    return det_cofactor(rows)


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
# test-only helpers on package types


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


def hk_report(sys) -> dict:
    """hk_check of a system against its own finite part and K-groups."""
    finite = finite_part_homology(sys)
    return hk_check(sys, finite, k_theory(sys, finite))


def gamma_lattice(sys, n: int, k: int) -> FractionalIdeal:
    """The (n, k) stage of the adapted lattice tower of a solenoid system
    inside K.

    Stage (0, 0) is the ring of integers; raising n deepens the
    contracting finite part, raising k the expanding one.
    """
    out = FractionalIdeal.ring_of_integers(sys.field)
    for fp in sys.finite_stable:
        out = out * fp.prime.power(n * fp.valuation)
    for fp in sys.finite_unstable:
        out = out * fp.prime.power(k * fp.valuation)
    return out


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
    F = f.squarefree_part()
    if F.degree < 1:
        return 0
    return F.degree - roots_in_unit_disk(F)
