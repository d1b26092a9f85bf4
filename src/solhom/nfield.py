"""Number fields, their elements, and fractional ideal arithmetic.

A field is Q[x]/(f) for a monic integer irreducible f with root theta.
Its integral basis is the power basis 1, omega, ..., omega^(d-1) of an
integral omega with monic integer minimal polynomial omega_poly: for
degree 2, omega generates the maximal order, computed in closed form;
otherwise omega = theta and the working order is Z[theta], and any prime
whose factorization would be distorted by the index (detected with the
Dedekind criterion) raises IndexObstruction rather than returning wrong
data.

An element is num / den with num its integer coordinates over the
integral basis and den a positive integer, reduced, so element equality
is literal equality of the pair.  Fractional ideals are full-rank
lattices stored the same way: an integer matrix in column Hermite form
over the integral basis together with a positive denominator.
Coordinates over the power basis of theta are only a derived view.

Element and ideal products multiply integer coordinates through the
structure constants omega^(i+j) reduced by omega_poly.  A prime P over p
with Kummer-Dedekind data has an element gamma with (p, gamma) =
P^(e-1) * prod of the other primes over p to their e, so P^-1 =
O + (gamma/p) O, and v_P(y) for integral y is the number of times the
integer coordinates of gamma * y are all divisible by p, dividing each
time (docs/ideal-arithmetic.md).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .errors import IndexObstruction, InternalCheckError
from .intfactor import factorint
from .linalg import IntMatrix, char_poly, hnf
from .qpoly import Poly, factor_mod_p, is_irreducible_over_q

# how an element's repr writes the field generator theta
GEN_SYMBOL = "a"


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
        # minimal polynomial of omega
        self.basis_matrix, self.omega_poly = self._build_integral_basis()
        self._structure = self._build_structure_constants()
        self.discriminant = self._compute_discriminant()

    # representation helpers -------------------------------------------------
    def _build_integral_basis(self) -> tuple[tuple[IntMatrix, int], Poly]:
        d = self.degree
        if d != 2:
            return (IntMatrix.identity(d), 1), self.min_poly
        b = int(self.min_poly.coeffs[1])
        disc_f = b * b - 4 * int(self.min_poly.coeffs[2])
        u, m = _squarefree_decompose_int(disc_f)
        # theta = (-b +- u sqrt(m)) / 2, so omega = (1 +- sqrt(m)) / 2 or +-sqrt(m);
        # over w = 2u, omega is (u + b, 2) or (2b, 4) in the power basis
        if m % 4 == 1:
            omega = (u + b, 2)
            omega_poly = Poly([1, -1, (1 - m) // 4])
        else:
            omega = (2 * b, 4)
            omega_poly = Poly([1, 0, -m])
        W, w = IntMatrix.from_columns([(2 * u, 0), omega]), 2 * u
        # the index of Z[theta] in Z[omega] is w^2 / det W
        if w * w % W.det():
            raise InternalCheckError("quadratic integral basis has non-integer index")
        return (W, w), omega_poly

    def _build_structure_constants(self) -> list[list[list[int]]]:
        """[i][j]: the integer coordinates of w_i * w_j = omega^(i+j),
        reduced by the monic integer omega_poly."""
        d = self.degree
        # omega^d = sum of red[k] * omega^k
        red = [-c for c in reversed(self.omega_poly.int_coeffs()[1:])]
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
        """Columns a * w_j: multiplication by a over the integral basis."""
        d = self.degree
        return [self._mul_int(a, [int(i == j) for i in range(d)]) for j in range(d)]

    def _compute_discriminant(self) -> int:
        # discriminant of the order Z[omega], the maximal one up to degree 2:
        # that of the monic g = omega_poly, (-1)^(d(d-1)/2) N(g'(omega))
        d = self.degree
        g_prime = self.evaluate(self.omega_poly.derivative(), self.omega())
        disc = (-1) ** (d * (d - 1) // 2) * g_prime.norm()
        if disc.denominator != 1:
            raise InternalCheckError("discriminant of Z[omega] is not an integer")
        return int(disc)

    # constructors -----------------------------------------------------------
    def element(self, coords: Sequence) -> "NfElement":
        """The element with the given coordinates over the power basis."""
        cs = [Fraction(c) for c in coords]
        if len(cs) != self.degree:
            raise ValueError("coordinate length mismatch")
        q = math.lcm(*(c.denominator for c in cs))
        B, e = self._basis_inverse
        return NfElement(self, B.apply([c.numerator * (q // c.denominator) for c in cs]), e * q)

    @functools.cached_property
    def _basis_inverse(self) -> tuple[IntMatrix, int]:
        """(W / w)^-1 as the pair (w B, e), for (B, e) = W.inverse_pair()."""
        W, w = self.basis_matrix
        B, e = W.inverse_pair()
        return B.scale(w), e

    def from_rational(self, q) -> "NfElement":
        q = Fraction(q)
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
        if self.degree == 1:
            return self.from_rational(-self.min_poly.coeffs[1])
        return self.element([0, 1] + [0] * (self.degree - 2))

    def omega(self) -> "NfElement":
        """omega, whose powers 1, omega, ..., omega^(d-1) are the integral basis."""
        if self.degree == 1:
            return self.gen()
        return NfElement(self, [int(i == 1) for i in range(self.degree)])

    @functools.cached_property
    def unit_coords(self) -> tuple[tuple[int, ...], int]:
        """(num, den) of fundamental_unit(self), computed once.  The field
        keeps coordinates: the element would refer back to it in a cycle."""
        unit = fundamental_unit(self)
        return unit.num, unit.den

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self) -> int:
        return hash(self.min_poly)

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

    def __truediv__(self, other: "NfElement") -> "NfElement":
        return self * other.inverse()

    def pow(self, e: int) -> "NfElement":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = self.field.one()
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # linear data ------------------------------------------------------------
    def mult_pair(self) -> tuple[IntMatrix, int]:
        """(A, m) with A / m the matrix of multiplication by self over the
        integral basis: column j of A is m * self * w_j, read off the
        structure constants, and m is least, so the pair is reduced."""
        return IntMatrix.from_columns(self.field._mult_columns(self.num)), self.den

    def mult_matrix_integral(self) -> tuple[IntMatrix, int]:
        # the benchmark's tracer wraps this name, so it stays until the
        # tracer is re-pinned (ROADMAP item 1); nothing in solhom calls it
        return self.mult_pair()

    def norm(self) -> Fraction:
        A, m = self.mult_pair()
        return Fraction(A.det(), m**self.field.degree)

    def trace(self) -> Fraction:
        A, m = self.mult_pair()
        return Fraction(sum(A.rows[i][i] for i in range(A.nrows)), m)

    def char_poly_over_q(self) -> Poly:
        A, m = self.mult_pair()
        return Poly([Fraction(c, m**i) for i, c in enumerate(char_poly(A))])

    def min_poly_over_q(self) -> Poly:
        cp = self.char_poly_over_q()
        return cp.squarefree_part() if cp.gcd(cp.derivative()).degree > 0 else cp

    def integer_coords(self) -> tuple[tuple[int, ...], int]:
        """(v, m): m is the least positive integer with m * self in the
        working order, v the integral coordinates of m * self."""
        return self.num, self.den

    def power_coords(self) -> tuple[Fraction, ...]:
        """Coordinates over the power basis 1, theta, ..., theta^(d-1)."""
        W, w = self.field.basis_matrix
        return tuple(Fraction(x, w * self.den) for x in W.apply(self.num))


class FractionalIdeal:
    """Full lattice num/den over the integral basis, num in column HNF."""

    def __init__(self, field: NumberField, num: IntMatrix, den: int):
        if den <= 0:
            raise ValueError("denominator must be positive")
        if num.nrows != field.degree:
            raise ValueError("ideal columns must live in the field")
        H = hnf(num)
        if H.ncols != field.degree:
            raise ValueError("ideal lattice must have full rank")
        g = math.gcd(den, *(x for row in H.rows for x in row))
        self.field = field
        self.num = IntMatrix([[x // g for x in row] for row in H.rows])
        self.den = den // g

    @staticmethod
    def ring_of_integers(field: NumberField) -> "FractionalIdeal":
        return FractionalIdeal(field, IntMatrix.identity(field.degree), 1)

    @staticmethod
    def from_elements(field: NumberField, gens: Sequence[NfElement]) -> "FractionalIdeal":
        """The O_K-module generated by the given nonzero elements."""
        scaled = [g.integer_coords() for g in gens if not g.is_zero()]
        if not scaled:
            raise ValueError("need at least one nonzero generator")
        den = math.lcm(*(m for _, m in scaled))
        cols = []
        for v, m in scaled:
            cols += field._mult_columns([x * (den // m) for x in v])
        return FractionalIdeal(field, IntMatrix.from_columns(cols), den)

    @staticmethod
    def principal(field: NumberField, gen: NfElement) -> "FractionalIdeal":
        return FractionalIdeal.from_elements(field, [gen])

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

    def basis_elements(self) -> list[NfElement]:
        """Lattice basis as field elements."""
        return [NfElement(self.field, col, self.den) for col in self.num.columns()]

    def contains(self, x: NfElement) -> bool:
        """den * x is an integer vector whose column adds nothing to the HNF."""
        t = [self.den * c for c in x.num]
        if any(c % x.den for c in t):
            return False
        cols = self.num.columns() + [[c // x.den for c in t]]
        return hnf(IntMatrix.from_columns(cols)) == self.num

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        if self.field != other.field:
            raise ValueError("ideals over different fields")
        mul = self.field._mul_int
        cols = [mul(a, b) for a in self.num.columns() for b in other.num.columns()]
        return FractionalIdeal(self.field, IntMatrix.from_columns(cols), self.den * other.den)

    def pow(self, e: int) -> "FractionalIdeal":
        if e < 0:
            raise ValueError("negative ideal powers only exist for prime ideals here")
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return FractionalIdeal.ring_of_integers(self.field) if out is None else out

    def scale(self, q) -> "FractionalIdeal":
        q = Fraction(q)
        if q <= 0:
            raise ValueError("scale by a positive rational")
        num = self.num.scale(q.numerator)
        return FractionalIdeal(self.field, num, self.den * q.denominator)

    def norm(self) -> Fraction:
        d = self.field.degree
        return abs(Fraction(self.num.det(), self.den**d))


def ideal_index(I: FractionalIdeal, J: FractionalIdeal) -> Fraction:
    """Generalized index [I : J] = N(J) / N(I), a positive rational.

    When J is contained in I this is the honest subgroup index.
    """
    if I.field != J.field:
        raise ValueError("ideals over different fields")
    return J.norm() / I.norm()


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
        self._ideal: FractionalIdeal | None = None
        self._inverse: FractionalIdeal | None = None
        self._gamma_rows: list[list[int]] | None = None
        self._power_cache: dict[int, FractionalIdeal] = {}

    def norm(self) -> int:
        return self.p**self.f

    def ideal(self) -> FractionalIdeal:
        if self._ideal is None:
            self._ideal = FractionalIdeal.from_elements(
                self.field, [self.field.from_rational(self.p), self.second_gen]
            )
        return self._ideal

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

    def inverse_ideal(self) -> FractionalIdeal:
        """P^-1 = O + (gamma/p) O, since P * (p, gamma) = pO; checked
        against P * P^-1 = O."""
        if self._inverse is None:
            field = self.field
            inv = FractionalIdeal.from_elements(
                field, [field.one(), self.gamma.scale(Fraction(1, self.p))]
            )
            if inv * self.ideal() != FractionalIdeal.ring_of_integers(field):
                raise InternalCheckError("prime inverse failed P * P^-1 = O")
            self._inverse = inv
        return self._inverse

    def valuation_of(self, y: Sequence[int], m: int) -> int:
        """v_P(y / m) for nonzero y in O_K given by integer coordinates:
        y * (gamma/p)^j is integral exactly for j <= v_P(y), since gamma/p
        has v_P = -1 and no other pole."""
        if not any(y):
            raise ValueError("valuation of zero is infinite")
        if self._gamma_rows is None:
            gamma, den = self.gamma.integer_coords()
            if den != 1:
                raise InternalCheckError("gamma is not integral")
            self._gamma_rows = [list(r) for r in zip(*self.field._mult_columns(gamma))]
        p = self.p
        count = 0
        while m % p == 0:
            m //= p
            count -= self.e
        while True:
            z = [sum(a * b for a, b in zip(row, y)) for row in self._gamma_rows]
            if any(c % p for c in z):
                return count
            y = [c // p for c in z]
            count += 1

    def power(self, e: int) -> FractionalIdeal:
        """P^e for any integer e, negative powers via the inverse."""
        if e not in self._power_cache:
            if e >= 0:
                self._power_cache[e] = self.ideal().pow(e)
            else:
                self._power_cache[e] = self.inverse_ideal().pow(-e)
        return self._power_cache[e]


def _dedekind_index_free(field: NumberField, p: int, factors) -> bool:
    """Dedekind criterion: True when p does not divide [O_K : Z[theta]],
    given the factorization of f mod p."""
    fpoly = field.min_poly
    g_lift = Poly.const(1)
    h_lift = Poly.const(1)
    for coeffs_asc, mult in factors:
        irr = Poly(list(reversed([c % p for c in coeffs_asc])))
        g_lift = g_lift * irr
        for _ in range(mult - 1):
            h_lift = h_lift * irr
    diff = g_lift * h_lift - fpoly
    F = diff.scale(Fraction(1, p))
    if not F.is_integer():
        raise InternalCheckError("Dedekind lift difference not divisible by p")
    cur = _gcd_mod_p(F.int_coeffs(), g_lift.int_coeffs(), p)
    cur = _gcd_mod_p(tuple(reversed(cur)), h_lift.int_coeffs(), p)
    return len(cur) == 1


def _gcd_mod_p(a_desc, b_desc, p):
    """gcd over F_p, returns ascending coefficients."""
    from .qpoly import _pgcd, _trim

    fa = _trim([c % p for c in reversed(list(a_desc))])
    fb = _trim([c % p for c in reversed(list(b_desc))])
    if not fa:
        return tuple(fb) if fb else (0,)
    if not fb:
        return tuple(fa)
    return tuple(_pgcd(fa, fb, p))


def factor_rational_prime(field: NumberField, p: int) -> list[PrimeIdeal]:
    """The primes of the field above p, with ramification and residue data.

    Sorted deterministically by the reduced generator polynomial.  For
    degree >= 3 a prime dividing the index of Z[theta] raises
    IndexObstruction since Kummer-Dedekind does not apply there.
    Each prime P = (p, g_P(w)) carries gamma = g_P(w)^(e-1) times the
    other g_Q(w)^(e_Q), so that (p, gamma) = P^(e-1) * prod Q^(e_Q)
    (docs/ideal-arithmetic.md).
    """
    from .intfactor import is_prime

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    d = field.degree
    if d == 1:
        data = [(field.from_rational(p), 1, (0, 1))]
    else:
        # factor the minimal polynomial of the basis generator omega; in
        # degree 2, Z[omega] is the full ring of integers, so no index
        # issues, and above it omega_poly is f
        factors = factor_mod_p(field.omega_poly.int_coeffs(), p)
        if d > 2 and not _dedekind_index_free(field, p, factors):
            raise IndexObstruction(
                f"p = {p} divides the index of the working order Z[theta]"
            )
        omega = field.omega()
        data = []
        for coeffs_asc, mult in factors:
            lift = Poly(list(reversed([c % p for c in coeffs_asc])))
            data.append((field.evaluate(lift, omega), mult, coeffs_asc))
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


def valuation(x: NfElement, P: PrimeIdeal) -> int:
    """v_P(x) for nonzero x."""
    return P.valuation_of(*x.integer_coords())


def element_valuations(x: NfElement) -> dict[PrimeIdeal, int]:
    """All primes where x has nonzero valuation (x nonzero)."""
    if x.is_zero():
        raise ValueError("zero has no valuation data")
    y, m = x.integer_coords()
    # the norm of y is the determinant of its integer multiplication matrix
    n_int = IntMatrix.from_columns(x.field._mult_columns(y)).det()
    candidates: set[int] = set(factorint(m))
    if abs(n_int) != 1:
        candidates |= set(factorint(n_int))
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

    Rational field: always conclusive.  Quadratic: conclusive from the
    norm form N(a*u1 + b*u2)/N(I).  Imaginary: by Gauss reduction, the
    generator with least (b, a).  Real: the cycle of reduced forms holds
    a form with leading coefficient +-1 exactly when I is principal; of
    the generators +-g*eps^k, the one returned comes first by increasing
    b, then positive before negative norm, then increasing a, over the
    box |b| <= bmax that holds a unit-normalized generator.  Degree >= 3:
    None unless a small-box search happens to succeed.  A quadratic
    generator is negated if needed so its first integral coordinate is
    positive.
    """
    field = I.field
    d = field.degree
    if d == 1:
        return field.from_rational(Fraction(I.num.rows[0][0], I.den))
    target = I.norm()
    if d == 2:
        if field.discriminant < 0:
            found = _search_imaginary_quadratic(I)
        else:
            found = _search_real_quadratic(I, target)
        if found is not None:
            lead = next(c for c in found.num if c != 0)
            if lead < 0:
                found = -found
        return found
    # bounded heuristic box for higher degree
    basis = I.basis_elements()
    for radius in (1, 2, 3):
        for combo in _box(d, radius):
            x = field.zero()
            for c, b in zip(combo, basis):
                x = x + b.scale(c)
            if not x.is_zero() and abs(x.norm()) == target and I.contains(x):
                return x
    return None


def _box(dim: int, radius: int):
    import itertools

    return itertools.product(range(-radius, radius + 1), repeat=dim)


def _norm_form(I: FractionalIdeal) -> tuple[int, int, int]:
    """(A, B, C) with N(a*u1 + b*u2) = N(I) (A a^2 + B ab + C b^2) for the
    basis u1, u2 of I, checked integral of discriminant disc(K)."""
    u1, u2 = I.basis_elements()
    target = I.norm()
    alpha, gamma = u1.norm(), u2.norm()
    A, B, C = (c / target for c in (alpha, (u1 + u2).norm() - alpha - gamma, gamma))
    if any(c.denominator != 1 for c in (A, B, C)) or B * B - 4 * A * C != I.field.discriminant:
        raise InternalCheckError("norm form of an ideal is not integral of discriminant disc(K)")
    return int(A), int(B), int(C)


def _search_imaginary_quadratic(I: FractionalIdeal) -> NfElement | None:
    # The norm form takes the values N(x)/N(I) >= 1 on I, and a reduced
    # definite form has minimum A, so I is principal exactly when A = 1.
    # A value 1 is then 4 = (2x + By)^2 + |D|y^2, so |x|, |y| <= 1.
    (A, B, C), (v1, v2) = _reduce_definite(*_norm_form(I))
    if A != 1:
        return None
    ones = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x * x + B * x * y + C * y * y == 1]
    b, a = min((x * v1[1] + y * v2[1], x * v1[0] + y * v2[0]) for x, y in ones)
    u1, u2 = I.basis_elements()
    return u1.scale(a) + u2.scale(b)


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


def _embedding_bound(x: NfElement) -> Fraction:
    """Upper bound on |sigma(x)| over both real embeddings of a quadratic field."""
    p, q = x.power_coords()
    f = x.field.min_poly
    theta_max = 1 + max(abs(f.coeffs[1]), abs(f.coeffs[2]))
    return abs(p) + abs(q) * theta_max


def _search_real_quadratic(I: FractionalIdeal, target: Fraction) -> NfElement | None:
    # The generators of I are the x = a*u1 + b*u2 with |N(x)| = N(I).  Any
    # of them can be unit-scaled so that both embeddings have absolute
    # value at most sqrt(N(I) * eps); Cramer against the lattice basis then
    # bounds |b| by bmax, since the embedding matrix of the basis has
    # |det| = sqrt(disc) * N(I).  The answer is the generator with
    # |b| <= bmax and least key (b, 0 if N(x) > 0 else 1, a).
    field = I.field
    eps = NfElement(field, *field.unit_coords)
    u1, u2 = I.basis_elements()
    x_bound = _isqrt_frac(target * (_embedding_bound(eps) + 1)) + 1
    covol = _isqrt_frac(Fraction(field.discriminant)) * target
    if covol == 0:
        raise InternalCheckError("degenerate lattice in real quadratic search")
    bmax = _ceil_frac(2 * x_bound * _embedding_bound(u1) / covol) + 1
    eta = eps * eps
    t = int(eta.trace())
    found = _cycle_representing_unit(*_norm_form(I))
    if found is None:
        return None
    g = u1.scale(found[0]) + u2.scale(found[1])

    # u1, u2 are the columns (p1, q1), (p2, q2) of I.num over I.den
    (p1, p2), (q1, q2) = I.num.rows
    det = p1 * q2 - q1 * p2

    def coords(x: NfElement) -> tuple[int, int]:
        p, q = (Fraction(I.den * c, x.den) for c in x.num)
        a, b = (p * q2 - q * p2) / det, (p1 * q - q1 * p) / det
        if a.denominator != 1 or b.denominator != 1:
            raise InternalCheckError("generator candidate left the ideal lattice")
        return int(a), int(b)

    # Every generator is +-h*eta^j with h in {g, g*eps} and eta = eps^2,
    # which has norm 1 and trace t >= 3.  From eta^2 = t*eta - 1 the
    # coordinates obey x_{j+1} = t*x_j - x_{j-1}, read in either
    # direction.  Once |b_j| >= |b_{j-1}| and b_j != 0,
    # |b_{j+1}| >= t|b_j| - |b_{j-1}| >= (t - 1)|b_j| >= 2|b_j|, so by
    # induction every later |b| at least doubles: once also |b_j| > bmax
    # no later term lies in the box, and the walk stops.
    best = None
    for h in (g, g * eps):
        sign = 0 if h.norm() > 0 else 1
        here, up = coords(h), coords(h * eta)
        down = (t * here[0] - up[0], t * here[1] - up[1])
        for prev, cur in ((down, here), (up, here)):
            while True:
                a, b = cur
                if abs(b) <= bmax:
                    key = min((b, sign, a), (-b, sign, -a))
                    best = key if best is None else min(best, key)
                elif b != 0 and abs(b) >= abs(prev[1]):
                    break
                prev, cur = cur, (t * a - prev[0], t * b - prev[1])
    if best is None:
        raise InternalCheckError("no generator inside the proven box")
    b, _, a = best
    x = u1.scale(a) + u2.scale(b)
    if abs(x.norm()) != target:
        raise InternalCheckError("chosen generator has the wrong norm")
    return x


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


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _isqrt_frac(q: Fraction) -> int:
    q = Fraction(q)
    if q < 0:
        return 0
    return math.isqrt(q.numerator // q.denominator)


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
    _, minus_t, n = field.omega_poly.int_coeffs()
    for (A, _, _), (a, b), _ in _rho_walk(1, -minus_t, n):
        if abs(A) == 1 and b:
            break
    unit = NfElement(field, (a, b) if b > 0 else (-a, -b))
    if abs(unit.norm()) != 1:
        raise InternalCheckError("unit candidate has wrong norm")
    return unit
