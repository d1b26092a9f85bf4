"""Number fields, their elements, and fractional ideal arithmetic.

A field is Q[x]/(f) for a monic integer irreducible f with root theta.
Its integral basis is the power basis 1, omega, ..., omega^(d-1) of an
integral omega with monic integer minimal polynomial omega_poly: for
degree 2, omega generates the maximal order, computed in closed form;
otherwise omega = theta and the working order is Z[theta], and any prime
whose factorization would be distorted by the index (detected with the
Dedekind criterion, qpoly.dedekind_index_free) raises IndexObstruction
rather than returning wrong data.  theta's integer coordinates over the
integral basis are written down with it: e_1 from degree 3 on, -f(0) in
degree 1, and in degree 2 solved from omega's closed form.  Power-basis
coordinates enter by Horner at theta.

An element is num / den with num its integer coordinates over the
integral basis and den a positive integer, reduced, so element equality
is literal equality of the pair.  Fractional ideals are full-rank
lattices stored the same way: an integer matrix in column Hermite form
over the integral basis together with a positive denominator.
Coordinates over the power basis of theta are only a derived view.

Element and ideal products multiply integer coordinates through the
structure constants omega^(i+j) reduced by omega_poly.  A prime's
generator g_P(omega) is read off as coordinates: the coefficients of the
lift of g_P mod p, less omega_poly's when both have degree d, and P is
the Z-span of p w^i for i < f and w^j g_P(w) for j < d - f.  A prime
P over p with Kummer-Dedekind data has an element gamma with
(p, gamma) = P^(e-1) * prod of the other primes over p to their e, so
P^-1 = O + (gamma/p) O (built only in the tests), and v_P(y) for
integral y is the number of times the integer coordinates of gamma * y
are all divisible by p, dividing each time (docs/ideal-arithmetic.md).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .errors import IndexObstruction, InternalCheckError
from .intfactor import factorint, is_prime
from .linalg import IntMatrix, _bareiss_det, char_poly, hnf, square_and_multiply
from .qpoly import Poly, dedekind_index_free, factor_mod_p, is_irreducible_over_q
from .rootcount import sturm_chain

# how an element's repr writes the field generator theta
GEN_SYMBOL = "a"

# The largest box radius the degree >= 3 generator search scans: a search
# limit, not a bound on generators.
BOX_RADIUS = 3


def _squarefree_decompose_int(n: int) -> tuple[int, int]:
    """n = u^2 * m with m squarefree (sign goes to m); returns (u, m)."""
    if n == 0:
        raise ValueError("zero has no squarefree decomposition")
    u = 1
    m = n
    for p, e in factorint(abs(n)).items():
        if e >= 2:
            u *= p ** (e // 2)
            m //= p ** (2 * (e // 2))
    return u, m


class NumberField:
    """Q[x]/(min_poly) with a fixed integral (or working) basis."""

    def __init__(self, min_poly: Poly, check: bool = True):
        if not min_poly.is_integer() or min_poly.coeffs[0] != 1:
            raise ValueError("defining polynomial must be monic with integer coefficients")
        if min_poly.degree < 1:
            raise ValueError("defining polynomial must be nonconstant")
        if check and not is_irreducible_over_q(min_poly):
            raise ValueError(f"{min_poly.pretty()} is reducible over Q")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        # basis_matrix (W, w): the columns of W / w are the power-basis
        # coordinates of the integral basis; omega_poly: the integer
        # minimal polynomial of omega; theta: theta's integer coordinates
        # over the integral basis; omega_coeffs: omega_poly's integer
        # coefficients, descending, converted once
        self.basis_matrix, self.omega_poly, self.theta = self._build_integral_basis()
        self.omega_coeffs = self.omega_poly.int_coeffs()
        self._structure = self._build_structure_constants()
        # row j of the structure constants transposed, for _mult_columns
        self._structure_columns = [tuple(zip(*row)) for row in self._structure]
        self.discriminant = self._compute_discriminant()
        self._hash = hash(min_poly)  # once: it hashes Fractions

    # representation helpers -------------------------------------------------
    def _build_integral_basis(self) -> tuple[tuple[IntMatrix, int], Poly, tuple[int, ...]]:
        d = self.degree
        if d != 2:
            theta = (-int(self.min_poly.coeffs[1]),) if d == 1 else (0, 1) + (0,) * (d - 2)
            return (IntMatrix.identity(d), 1), self.min_poly, theta
        b = int(self.min_poly.coeffs[1])
        disc_f = b * b - 4 * int(self.min_poly.coeffs[2])
        u, m = _squarefree_decompose_int(disc_f)
        # theta = (-b +- u sqrt(m)) / 2, so omega = (1 +- sqrt(m)) / 2 or +-sqrt(m);
        # over w = 2u, omega is (u + b, 2) or (2b, 4) in the power basis, so
        # theta = u omega - (u + b)/2 or (u omega - b)/2
        if m % 4 == 1:
            omega = (u + b, 2)
            omega_poly = Poly([1, -1, (1 - m) // 4])
            theta = (-(u + b) // 2, u)
        else:
            omega = (2 * b, 4)
            omega_poly = Poly([1, 0, -m])
            theta = (-b // 2, u // 2)
        W, w = IntMatrix.from_columns([(2 * u, 0), omega]), 2 * u
        # the index of Z[theta] in Z[omega] is w^2 / det W
        if w * w % W.det():
            raise InternalCheckError("quadratic integral basis has non-integer index")
        return (W, w), omega_poly, theta

    def _build_structure_constants(self) -> list[list[list[int]]]:
        """[i][j]: the integer coordinates of w_i * w_j = omega^(i+j),
        reduced by the monic integer omega_poly."""
        d = self.degree
        # omega^d = sum of red[k] * omega^k
        red = [-c for c in reversed(self.omega_coeffs[1:])]
        powers = [[int(k == 0) for k in range(d)]]
        for _ in range(2 * d - 2):
            prev = powers[-1]
            powers.append([prev[-1] * r + c for r, c in zip(red, [0] + prev[:-1])])
        return [powers[i : i + d] for i in range(d)]

    def _mul_int(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Product of two integer coordinate vectors over the integral basis."""
        out = [0] * self.degree
        for ai, row in zip(a, self._structure):
            if ai:
                for bj, prod in zip(b, row):
                    if bj:
                        c = ai * bj
                        for k, t in enumerate(prod):
                            out[k] += c * t
        return out

    def _mult_columns(self, a: Sequence[int]) -> list[list[int]]:
        """Columns a * w_j: multiplication by a over the integral basis.
        Coordinate k of a * w_j is the sum over i of a_i times coordinate
        k of w_i * w_j = w_j * w_i, so column j is a applied to the
        transpose of the structure constants' row j."""
        return [[sum(map(operator.mul, a, t)) for t in cols] for cols in self._structure_columns]

    def integer_norm(self, a: Sequence[int]) -> int:
        """N(a) for integer coordinates a: Bareiss on the fresh columns a * w_j."""
        return _bareiss_det(self._mult_columns(a))

    def _compute_discriminant(self) -> int:
        # discriminant of the order Z[omega], the maximal one up to degree 2:
        # that of the monic g = omega_poly, (-1)^(d(d-1)/2) N(g'(omega)).
        # g' has degree d - 1, so its ascending coefficients are the
        # coordinates of g'(omega) over the powers of omega
        d = self.degree
        g = self.omega_coeffs
        g_prime = [(k + 1) * g[d - k - 1] for k in range(d)]
        return (-1) ** (d * (d - 1) // 2) * self.integer_norm(g_prime)

    # constructors -----------------------------------------------------------
    def from_rational(self, q) -> "NfElement":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return NfElement(self, [q.numerator] + [0] * (self.degree - 1), q.denominator)

    def evaluate(self, p: Poly, x: "NfElement") -> "NfElement":
        """p(x) for a rational polynomial p, by Horner."""
        acc = self.zero()
        for c in p.coeffs:
            acc = acc * x + self.from_rational(c)
        return acc

    def zero(self) -> "NfElement":
        return self.from_rational(0)

    def one(self) -> "NfElement":
        return self.from_rational(1)

    def gen(self) -> "NfElement":
        return NfElement(self, self.theta)

    @functools.cached_property
    def unit_walk(self) -> tuple:
        """(eps, eta, t, s, theta, bound) of a real quadratic field, once:
        eps = fundamental_unit(self) and eta = eps^2 as integer coordinates,
        t = Tr(eta), s = 1 if N(eps) = -1 else 0, theta = 1 + max |f_i|, and
        bound = w (E(eps) + 1) for the embedding bound E(x) = |p| + |q| theta
        of x = (p + q theta) / w.  Integers only: an element would refer
        back to the field in a cycle."""
        eps = fundamental_unit(self).num
        eta, (W, w) = self._mul_int(eps, eps), self.basis_matrix
        theta = 1 + max(abs(int(c)) for c in self.min_poly.coeffs[1:])
        t, (p, q) = 2 * eta[0] - self.omega_coeffs[1] * eta[1], W.apply(eps)
        return eps, eta, t, int(self.integer_norm(eps) < 0), theta, abs(p) + abs(q) * theta + w

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly.pretty()})"


class NfElement:
    """num / den over the integral basis: num a tuple of integers, den a
    positive integer, with gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: Sequence[int], den: int = 1):
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", tuple(x // g for x in num))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("NfElement is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NfElement)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def __repr__(self) -> str:
        return f"<{Poly(self.power_coords()[::-1]).pretty(GEN_SYMBOL)}>"

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "NfElement") -> "NfElement":
        m, n = self.den, other.den
        return NfElement(self.field, [a * n + b * m for a, b in zip(self.num, other.num)], m * n)

    def __sub__(self, other: "NfElement") -> "NfElement":
        m, n = self.den, other.den
        return NfElement(self.field, [a * n - b * m for a, b in zip(self.num, other.num)], m * n)

    def __neg__(self) -> "NfElement":
        return NfElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other: "NfElement") -> "NfElement":
        return NfElement(self.field, self.field._mul_int(self.num, other.num), self.den * other.den)

    def scale(self, q) -> "NfElement":
        q = Fraction(q)
        return NfElement(self.field, [q.numerator * a for a in self.num], q.denominator * self.den)

    def inverse(self) -> "NfElement":
        """Cayley-Hamilton: self = y / m with y integral, and y's integer
        multiplication matrix A has char poly t^d + c_1 t^(d-1) + ... + c_d
        with c_d = (-1)^d N(y) != 0, so 1/y = -(y^(d-1) + c_1 y^(d-2) +
        ... + c_(d-1)) / c_d, evaluated by Horner on integer coordinates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        A, m = self.mult_pair()
        coeffs = char_poly(A)
        z = [1] + [0] * (self.field.degree - 1)
        for c in coeffs[1:-1]:
            z = list(A.apply(z))
            z[0] += c
        return NfElement(self.field, [m * x for x in z], -coeffs[-1])

    def pow(self, e: int) -> "NfElement":
        return square_and_multiply(self, e, operator.mul, self.field.one)

    # linear data ------------------------------------------------------------
    def mult_pair(self) -> tuple[IntMatrix, int]:
        """(A, m) with A / m the matrix of multiplication by self over the
        integral basis: column j of A is m * self * w_j, read off the
        structure constants, and m is least, so the pair is reduced."""
        return IntMatrix._trusted(tuple(zip(*self.field._mult_columns(self.num)))), self.den

    def mult_matrix_integral(self) -> tuple[IntMatrix, int]:
        # the benchmark's tracer wraps this name, so it stays until the
        # tracer is re-pinned (ROADMAP item 1); nothing in solhom calls it
        return self.mult_pair()

    def norm(self) -> Fraction:
        return Fraction(self.field.integer_norm(self.num), self.den**self.field.degree)

    def char_poly_over_q(self) -> Poly:
        A, m = self.mult_pair()
        return Poly([Fraction(c, m**i) for i, c in enumerate(char_poly(A))])

    def min_poly_over_q(self) -> Poly:
        """The characteristic polynomial is the minimal polynomial to the
        power [K : Q(self)], so the minimal polynomial is its squarefree
        part: the first member of its Sturm chain over Z, made monic."""
        return Poly(sturm_chain(self.char_poly_over_q().coeffs)[0]).monic()

    def power_coords(self) -> tuple[Fraction, ...]:
        """Coordinates over the power basis 1, theta, ..., theta^(d-1)."""
        W, w = self.field.basis_matrix
        return tuple(Fraction(x, w * self.den) for x in W.apply(self.num))


class FractionalIdeal:
    """Full lattice num/den over the integral basis: num a column HNF of
    full rank (linalg.hnf) and den positive, stored divided by their
    common factor."""

    def __init__(self, field: NumberField, num: IntMatrix, den: int):
        g = 1 if den == 1 else math.gcd(den, *(x for row in num.rows for x in row))
        if g != 1:
            num = IntMatrix._trusted(tuple(tuple(x // g for x in row) for row in num.rows))
        self.field, self.num, self.den = field, num, den // g

    @staticmethod
    def ring_of_integers(field: NumberField) -> "FractionalIdeal":
        return FractionalIdeal(field, IntMatrix.identity(field.degree), 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FractionalIdeal)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def __repr__(self) -> str:
        return f"FractionalIdeal(num={self.num!r}, den={self.den})"

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        if self.field != other.field:
            raise ValueError("ideals over different fields")
        mul = self.field._mul_int
        cols = [mul(a, b) for a in self.num.columns() for b in other.num.columns()]
        return FractionalIdeal(self.field, hnf(IntMatrix._trusted(tuple(zip(*cols)))), self.den * other.den)

    def pow(self, e: int) -> "FractionalIdeal":
        return square_and_multiply(
            self, e, operator.mul, lambda: FractionalIdeal.ring_of_integers(self.field)
        )

    def norm(self) -> Fraction:
        """|det num| / den^d, with det num the product of the HNF's diagonal."""
        rows = self.num.rows
        return Fraction(math.prod(row[i] for i, row in enumerate(rows)), self.den ** len(rows))


class PrimeIdeal:
    """Prime over p with two-element form (p, g(w)), w the basis generator."""

    def __init__(
        self,
        field: NumberField,
        p: int,
        second_gen: NfElement,
        e: int,
        f: int,
        gen_poly_mod_p: tuple[int, ...],
        gamma: NfElement,
    ):
        self.field = field
        self.p = p
        self.second_gen = second_gen
        self.e = e
        self.f = f
        self.gen_poly_mod_p = gen_poly_mod_p
        self.gamma = gamma  # (p, gamma) = P^(e-1) * prod of the others over p to their e

    def norm(self) -> int:
        return self.p**self.f

    def ideal(self) -> FractionalIdeal:
        """P from its Z-basis p w^i (i < f), w^j g_P(w) (j < d - f), of
        index p^f = N(P) (docs/ideal-arithmetic.md, Claim 2)."""
        d, f, g = self.field.degree, self.f, list(self.gen_poly_mod_p)
        cols = [[self.p * (k == i) for k in range(d)] for i in range(f)]
        cols += [[0] * j + g + [0] * (d - f - 1 - j) for j in range(d - f)]
        return FractionalIdeal(self.field, hnf(IntMatrix._trusted(tuple(zip(*cols)))), 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeIdeal)
            and self.field == other.field
            and self.p == other.p
            and self.gen_poly_mod_p == other.gen_poly_mod_p
        )

    def __hash__(self) -> int:
        return hash((self.field, self.p, self.gen_poly_mod_p))

    def __repr__(self) -> str:
        return f"PrimeIdeal(p={self.p}, g={self.second_gen!r}, e={self.e}, f={self.f})"

    def valuation_of(self, y: Sequence[int], m: int) -> int:
        """v_P(y / m) for nonzero y in O_K given by integer coordinates:
        y * (gamma/p)^j is integral exactly for j <= v_P(y), since gamma/p
        has v_P = -1 and no other pole."""
        if not any(y):
            raise ValueError("valuation of zero is infinite")
        gamma, den = self.gamma.mult_pair()
        if den != 1:
            raise InternalCheckError("gamma is not integral")
        p = self.p
        count = 0
        while m % p == 0:
            m //= p
            count -= self.e
        while True:
            z = [sum(a * b for a, b in zip(row, y)) for row in gamma.rows]
            if any(c % p for c in z):
                return count
            y = [c // p for c in z]
            count += 1

    def power(self, e: int) -> FractionalIdeal:
        """P^e for e >= 0, uncached: a system builds its place ideals once."""
        return self.ideal().pow(e)


def factor_rational_prime(field: NumberField, p: int) -> list[PrimeIdeal]:
    """The primes of the field above p, with ramification and residue data.

    Sorted deterministically by the reduced generator polynomial.  For
    degree >= 3 a prime dividing the index of Z[theta] raises
    IndexObstruction since Kummer-Dedekind does not apply there.
    Each prime P = (p, g_P(w)) carries gamma = g_P(w)^(e-1) times the
    other g_Q(w)^(e_Q), so that (p, gamma) = P^(e-1) * prod Q^(e_Q)
    (docs/ideal-arithmetic.md).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    d = field.degree
    if d == 1:
        data = [(field.from_rational(p), 1, (0, 1))]
    else:
        # factor the minimal polynomial of the basis generator omega; in
        # degree 2, Z[omega] is the full ring of integers, so no index
        # issues, and above it omega_poly is f
        factors = factor_mod_p(field.omega_coeffs, p)
        if d > 2 and not dedekind_index_free(field.omega_coeffs, p, factors):
            raise IndexObstruction(
                f"p = {p} divides the index of the working order Z[theta]"
            )
        data = [(_lift_at_omega(field, irr), mult, irr) for irr, mult in factors]
    out = []
    for second, e, coeffs_asc in data:
        gamma = second.pow(e - 1)
        for other, e_other, other_coeffs in data:
            if other_coeffs != coeffs_asc:
                gamma = gamma * other.pow(e_other)
        out.append(PrimeIdeal(field, p, second, e, len(coeffs_asc) - 1, coeffs_asc, gamma))
    if sum(q.e * q.f for q in out) != d:
        raise InternalCheckError("sum of e*f over p does not equal the degree")
    return out


def _lift_at_omega(field: NumberField, coeffs_asc: Sequence[int]) -> NfElement:
    """g(omega) for the lift g of a monic factor of omega_poly mod p,
    coefficients in [0, p): below degree d its coefficients are the
    coordinates of g(omega) over the powers of omega; of degree d, both g
    and omega_poly are monic, so g(omega) = (g - omega_poly)(omega)
    (docs/ideal-arithmetic.md, "Reading g_P(omega)")."""
    d = field.degree
    if len(coeffs_asc) > d:
        coeffs_asc = [a - b for a, b in zip(coeffs_asc, reversed(field.omega_coeffs))]
    return NfElement(field, (list(coeffs_asc) + [0] * d)[:d])


def element_valuations(x: NfElement) -> dict[PrimeIdeal, int]:
    """All primes where x has nonzero valuation (x nonzero)."""
    if x.is_zero():
        raise ValueError("zero has no valuation data")
    y, m = x.num, x.den
    candidates = set(factorint(m)) | set(factorint(x.field.integer_norm(y)))
    out: dict[PrimeIdeal, int] = {}
    for p in sorted(candidates):
        for P in factor_rational_prime(x.field, p):
            v = P.valuation_of(y, m)
            if v != 0:
                out[P] = v
    return out


# ---------------------------------------------------------------------------
# principal generators


def principal_generator(I: FractionalIdeal) -> NfElement | None:
    """A generator when I is principal and the search is conclusive.

    Rational: always conclusive.  Quadratic: conclusive from the norm
    form N(a*u1 + b*u2)/N(I), which takes the value +-1 exactly at the
    generators: for D < 0 the reduced form has A = 1 and v1 is one, for
    D > 0 the cycle of reduced forms holds a form with A = +-1; either
    goes through canonical_generator.  Degree >= 3: None unless the small
    box holds a generator, and then its first hit.
    """
    field = I.field
    if field.degree >= 3:
        return _box_generator(I)
    if field.degree == 1:
        found = (1,)
    elif field.discriminant < 0:
        (A, _, _), (found, _) = _reduce_definite(*_norm_form(I))
        found = found if A == 1 else None
    else:
        found = _cycle_representing_unit(*_norm_form(I))
    return None if found is None else canonical_generator(_lattice_element(I, *found), lambda: I)


def canonical_generator(x: NfElement, ideal: Callable[[], FractionalIdeal]) -> NfElement:
    """x, or -x, made to have its first nonzero integral coordinate
    positive (the sign rule), for a generator x of I.  In a real quadratic
    field the walk's pick (_walk_real_quadratic) on ideal(), which builds
    I, comes first; no other field calls ideal() (docs/principalization.md,
    "The dual's generator")."""
    if x.field.degree == 2 and x.field.discriminant > 0:
        x = _walk_real_quadratic(ideal(), x)
    return -x if next(c for c in x.num if c) < 0 else x


def _box_generator(I: FractionalIdeal) -> NfElement | None:
    """The first x = I.num * combo / I.den over the boxes of radius 1, 2,
    ..., BOX_RADIUS with |N(x)| = N(I), which proves (x) = I since x lies
    in I.  A combo inside the box of the radius below was tried there, or
    is zero."""
    target = math.prod(row[i] for i, row in enumerate(I.num.rows))  # |det| of the HNF
    for radius in range(1, BOX_RADIUS + 1):
        for combo in itertools.product(range(-radius, radius + 1), repeat=I.field.degree):
            if max(map(abs, combo)) < radius:
                continue
            num = I.num.apply(combo)
            if abs(I.field.integer_norm(num)) == target:
                return NfElement(I.field, num, I.den)
    return None


def _norm_form(I: FractionalIdeal) -> tuple[int, int, int]:
    """(A, B, C) with N(a*u1 + b*u2) = N(I) (A a^2 + B ab + C b^2) for the
    basis u1, u2 of I, checked integral of discriminant disc(K).

    N(a + b omega) = a^2 + t ab + n b^2 for omega^2 = t omega - n, and the
    columns (p1, q1), (p2, q2) of I.num over I.den are u1, u2, so each
    coefficient is a value of that form or its polarization over |det|
    (docs/principalization.md)."""
    _, minus_t, n = I.field.omega_coeffs
    (p1, p2), (q1, q2) = I.num.rows
    det = abs(p1 * q2 - q1 * p2)
    A, ra = divmod(p1 * p1 - minus_t * p1 * q1 + n * q1 * q1, det)
    B, rb = divmod(2 * p1 * p2 - minus_t * (p1 * q2 + p2 * q1) + 2 * n * q1 * q2, det)
    C, rc = divmod(p2 * p2 - minus_t * p2 * q2 + n * q2 * q2, det)
    if ra or rb or rc or B * B - 4 * A * C != I.field.discriminant:
        raise InternalCheckError("norm form of an ideal is not integral of discriminant disc(K)")
    return A, B, C


def _reduce_definite(A: int, B: int, C: int) -> tuple[tuple[int, int, int], tuple]:
    """Gauss reduction of a positive definite form to |B| <= A <= C by
    rho-steps (Cohen, GTM 138, 5.4), with its basis (v1, v2) in the
    starting coordinates.  The first step leaves |B| <= A; each later
    one lowers A.

    >>> _reduce_definite(4, 5, 3)   # D = -23: not the principal form
    ((2, -1, 3), ((-1, 1), (0, -1)))
    """
    for (A, B, C), v1, v2 in _rho_walk(A, B, C):
        if abs(B) <= A <= C:
            return (A, B, C), (v1, v2)


def _walk_real_quadratic(I: FractionalIdeal, x: NfElement) -> NfElement:
    """From any generator x of I, the generator with |b| <= bmax
    (_box_bound) and least key (b, 0 if N > 0 else 1, a) in lattice
    coordinates (a, b)."""
    field = I.field
    eps, eta, t, eps_sign, _, _ = field.unit_walk
    bmax = _box_bound(I)
    # Every generator is +-h*eta^j with h in {x, x*eps} and eta = eps^2,
    # which has norm 1 and trace t >= 3.  From eta^2 = t*eta - 1 the
    # coordinates obey x_{j+1} = t*x_j - x_{j-1}, read in either
    # direction.  Once |b_j| >= |b_{j-1}| and b_j != 0,
    # |b_{j+1}| >= t|b_j| - |b_{j-1}| >= (t - 1)|b_j| >= 2|b_j|, so by
    # induction every later |b| at least doubles: once also |b_j| > bmax
    # no later term lies in the box, and the walk stops.
    best = None
    mul, sign = field._mul_int, int(field.integer_norm(x.num) < 0)
    for h, h_sign in ((x.num, sign), (mul(x.num, eps), sign ^ eps_sign)):
        here, up = _lattice_coords(I, h, x.den), _lattice_coords(I, mul(h, eta), x.den)
        down = (t * here[0] - up[0], t * here[1] - up[1])
        for prev, cur in ((down, here), (up, here)):
            while True:
                a, b = cur
                if abs(b) <= bmax:
                    key = min((b, h_sign, a), (-b, h_sign, -a))
                    best = key if best is None else min(best, key)
                elif b != 0 and abs(b) >= abs(prev[1]):
                    break
                prev, cur = cur, (t * a - prev[0], t * b - prev[1])
    if best is None:
        raise InternalCheckError("no generator inside the proven box")
    b, _, a = best
    found = _lattice_element(I, a, b)
    if abs(found.norm()) != I.norm():
        raise InternalCheckError("chosen generator has the wrong norm")
    return found


def _box_bound(I: FractionalIdeal) -> int:
    """bmax for a real quadratic ideal I.  Any generator can be unit-scaled
    so that both embeddings have absolute value at most sqrt(N(I) eps);
    Cramer against the lattice basis u1, u2 then bounds |b| by bmax,
    since the embedding matrix of the basis has |det| = sqrt(D) N(I).
    Read on integers with the Fraction bound's floors and ceilings
    (docs/principalization.md, "The dual's generator")."""
    field, (W, w) = I.field, I.field.basis_matrix
    _, _, _, _, theta, bound = field.unit_walk
    (p1, p2), (q1, q2) = I.num.rows
    det, (r0, r1) = abs(p1 * q2 - q1 * p2), W.apply((p1, q1))
    # x_bound = isqrt(N(I) (E(eps) + 1)) + 1, and bmax = ceil(2 x_bound
    # E(u1) / (isqrt(D) N(I))) + 1 with E(u1) = (|r0| + |r1| theta) / (w den)
    x_bound = math.isqrt(det * bound // (I.den * I.den * w)) + 1
    covol = w * math.isqrt(field.discriminant) * det
    return -(-2 * x_bound * (abs(r0) + abs(r1) * theta) * I.den // covol) + 1


def _lattice_element(I: FractionalIdeal, *coords: int) -> NfElement:
    """The element with lattice coordinates coords over the basis of I."""
    return NfElement(I.field, I.num.apply(coords), I.den)


def _lattice_coords(I: FractionalIdeal, num: Sequence[int], den: int) -> tuple[int, int]:
    """(a, b) with x = num / den equal to a*u1 + b*u2 for the basis u1, u2
    of a quadratic ideal I, the columns (p1, q1), (p2, q2) of I.num over
    I.den, by Cramer; x off the lattice raises."""
    (p1, p2), (q1, q2) = I.num.rows
    (p, q), scale = num, den * (p1 * q2 - q1 * p2)
    a, ra = divmod(I.den * (p * q2 - q * p2), scale)
    b, rb = divmod(I.den * (p1 * q - q1 * p), scale)
    if ra or rb:
        raise InternalCheckError("generator candidate left the ideal lattice")
    return a, b


def _cycle_representing_unit(A: int, B: int, C: int) -> tuple[int, int] | None:
    """(a, b) with A a^2 + B ab + C b^2 = +-1, or None when the indefinite
    form of non-square discriminant D represents neither.

    rho-steps (Cohen, GTM 138, 5.6) reach a reduced form,
    |sqrt(D) - 2|A|| < B < sqrt(D), and walk its cycle, which holds every
    reduced form properly equivalent to it.  A form representing +-1 is
    equivalent to (+-1, B', C') with B' in (sqrt(D) - 2, sqrt(D)), which
    is reduced, so once round the cycle settles the question.
    """
    s = math.isqrt(B * B - 4 * A * C)
    start = None
    for form, v1, _ in _rho_walk(A, B, C):
        A, B, _ = form
        if abs(A) == 1:
            return v1
        if form == start:
            return None
        if start is None and B <= s and 2 * abs(A) - B <= s < 2 * abs(A) + B:
            start = form


def _walk_cap(D: int, C: int) -> int:
    """Forms in which a rho walk from a form (A, B, C) of discriminant D is
    reduced and once round its cycle, for either sign of D
    (docs/principalization.md, "How long a walk is")."""
    return 2 * abs(D) + abs(C) + 1


def _rho_walk(A: int, B: int, C: int):
    """Each form of the rho walk from (A, B, C), with its basis (v1, v2) in
    the starting coordinates, up to _walk_cap forms: a longer walk is a
    bug.  rho (Cohen, GTM 138, 5.4 and 5.6) goes to (C, r, A - Bk + Ck^2)
    and the basis to (v2, k v2 - v1), where r = 2Ck - B is -B mod 2|C|
    taken in (-|C|, |C|] when |C| > s = isqrt(D), as always for a definite
    form (s = 0), and in (s - 2|C|, s] otherwise.
    """
    D = B * B - 4 * A * C
    s = math.isqrt(max(D, 0))
    cap = _walk_cap(D, C)
    v1, v2 = (1, 0), (0, 1)
    for _ in range(cap):
        yield (A, B, C), v1, v2
        m = 2 * abs(C)
        if m > 2 * s:
            r = -B % m
            if r > m // 2:
                r -= m
        else:
            r = s - (s + B) % m
        k = (r + B) // (2 * C)
        A, B, C = C, r, A - B * k + C * k * k
        v1, v2 = v2, (k * v2[0] - v1[0], k * v2[1] - v1[1])
    raise InternalCheckError(f"reduced-form cycle not closed within the proven {cap} forms")


def fundamental_unit(field: NumberField) -> NfElement:
    """Fundamental unit eps of a real quadratic field, the one > 1 where
    omega = (t + sqrt(D)) / 2.

    Walks the rho cycle of the principal form a^2 + t ab + n b^2 of the
    integral basis 1, omega, for omega^2 - t omega + n = 0.  The walk
    reaches a reduced form at +-1 and then meets the units in increasing
    size, so the first form with |A| = 1 whose basis vector v1 = (a, b)
    has b != 0 gives a + b omega = +-eps, and eps has b > 0
    (docs/principalization.md, "The fundamental unit").
    """
    if field.degree != 2 or field.discriminant < 0:
        raise ValueError("fundamental units computed only for real quadratic fields")
    _, minus_t, n = field.omega_coeffs
    for (A, _, _), (a, b), _ in _rho_walk(1, -minus_t, n):
        if abs(A) == 1 and b:
            break
    unit = NfElement(field, (a, b) if b > 0 else (-a, -b))
    if abs(unit.norm()) != 1:
        raise InternalCheckError("unit candidate has wrong norm")
    return unit
