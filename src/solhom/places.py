"""Place analysis for the solenoid attached to an algebraic number c.

The defining data is the monic minimal polynomial of c over Q.  The
relevant places are every archimedean place together with the finite
places where c is not a unit; a finite place with v_P(c) > 0 is
contracting and one with v_P(c) < 0 is expanding.  An archimedean place
is contracting when the matching conjugate of c lies inside the open
unit disk.  A conjugate on the unit circle makes the dynamics
non-hyperbolic, so that raises BoundaryRoot up front.

Everything downstream keys off this module: the degree shift equals the
number of unit-disk conjugates counted with their real dimension, the
transfer index is the norm inflation of the contracting finite part, and
the orientation sign counts negative real contracting conjugates.

The stable side is the same solenoid run backwards.  Its system lives in
the same field and integral basis with c' = 1/c: v_P(1/c) = -v_P(c)
trades the finite stable and unstable places, and |1/c| < 1 exactly when
|c| > 1 trades the archimedean ones, so nothing is factored or counted
twice, and only build_system decides the field and the working order.
The place-list ideals, prod P^v over the contracting places and
prod P^(-v) over the expanding ones, trade too: each is multiplied out once.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateFix, InternalCheckError, ParseError, ZeroInput
from .nfield import FractionalIdeal, NfElement, NumberField, PrimeIdeal, element_valuations
from .qpoly import Poly, clear_to_monic_integer, is_irreducible_over_q, parse_poly
from .rootcount import real_root_counts, roots_in_unit_disk, sturm_chain

RATIONAL_FIELD_POLY = Poly([1, -1])  # x - 1; fixed defining polynomial for K = Q


class FinitePlace(NamedTuple):
    """A finite place in the support of c, with its valuation of c."""

    prime: PrimeIdeal
    valuation: int


class ArchimedeanSummary(NamedTuple):
    """Counts of archimedean places split by type and contraction."""

    contracting_real: int
    contracting_real_negative: int
    contracting_complex_pairs: int
    expanding_real: int
    expanding_real_negative: int  # real conjugates below -1
    expanding_complex_pairs: int

    @property
    def contracting_dimension(self) -> int:
        return self.contracting_real + 2 * self.contracting_complex_pairs


class SolenoidSystem:
    """Analyzed solenoid data for a fixed algebraic number c."""

    def __init__(
        self,
        field: NumberField,
        c: NfElement,
        min_poly: Poly,  # monic rational minimal polynomial of c itself
        finite_stable: list[FinitePlace],
        finite_unstable: list[FinitePlace],
        archimedean: ArchimedeanSummary,
        degree_shift: int,
        transfer_index: int,
        orientation_sign: int,
    ):
        self.field = field
        self.c = c
        self.min_poly = min_poly
        self.finite_stable = finite_stable
        self.finite_unstable = finite_unstable
        self.archimedean = archimedean
        self.degree_shift = degree_shift
        self.transfer_index = transfer_index
        self.orientation_sign = orientation_sign
        # caches, filled on first use; their names start with "_"
        self._dual: SolenoidSystem | None = None
        self._c_inverse: NfElement | None = None
        self._contracting_ideal: FractionalIdeal | None = None
        self._expanding_ideal: FractionalIdeal | None = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"SolenoidSystem({fields})"

    @property
    def c_inverse(self) -> NfElement:
        """1/c, computed once per system: the transfer action, the
        Lefschetz traces and the dual system all start from it."""
        if self._c_inverse is None:
            self._c_inverse = self.c.inverse()
        return self._c_inverse

    @property
    def contracting_ideal(self) -> FractionalIdeal:
        """prod P^v over the contracting places, of norm N; the dual's expanding ideal."""
        if self._contracting_ideal is None:
            self._contracting_ideal = _place_ideal(self.field, self.finite_stable)
        return self._contracting_ideal

    @property
    def expanding_ideal(self) -> FractionalIdeal:
        """prod P^(-v) over the expanding places; the dual's contracting ideal."""
        if self._expanding_ideal is None:
            self._expanding_ideal = _place_ideal(self.field, self.finite_unstable)
        return self._expanding_ideal

    def periodic_counts(self, n: int) -> list[int]:
        """Numbers of points fixed by the powers 1..n of the map, with c^k
        carried from one row to the next.

        Row k is the product of N(P)^v over the places P where
        w = c^k - 1 has positive valuation v.  At an expanding place
        v_P(w) = k * v_P(c) < 0 and at every other place v_P(w) >= 0, so
        by the product formula the count is |N(w)| * D^k with
        D = prod over expanding P of N(P)^(-v_P(c)); nothing is factored.
        c^k is carried as integer coordinates over den^k, not reduced.
        """
        field, d = self.field, self.field.degree
        expanding = _place_norm(self.finite_unstable)
        power, scale = [1] + [0] * (d - 1), 1
        out = []
        for k in range(1, n + 1):
            power, scale = field._mul_int(power, self.c.num), scale * self.c.den
            w = [power[0] - scale] + power[1:]
            if not any(w):
                raise DegenerateFix(f"c^{k} = 1, so the fixed set is not finite")
            count, rest = divmod(abs(field.integer_norm(w)) * expanding**k, scale**d)
            if rest:
                raise InternalCheckError(
                    f"norm of c^{k} - 1 times the expanding part is not integral"
                )
            out.append(count)
        return out

    def dual_system(self) -> "SolenoidSystem":
        """The same solenoid run backwards: c' = 1/c over the same field
        and integral basis, with the stable and unstable places traded
        and each finite valuation negated.  It is handed both place-list
        ideals, swapped, and c as its 1/c."""
        if self._dual is None:
            arch = self.archimedean
            swapped = ArchimedeanSummary(
                contracting_real=arch.expanding_real,
                contracting_real_negative=arch.expanding_real_negative,
                contracting_complex_pairs=arch.expanding_complex_pairs,
                expanding_real=arch.contracting_real,
                expanding_real_negative=arch.contracting_real_negative,
                expanding_complex_pairs=arch.contracting_complex_pairs,
            )
            # x^d f(1/x) / f(0), the minimal polynomial of 1/c, each
            # coefficient divided by f(0) = n / m as integers
            n, m = self.min_poly.coeffs[-1].as_integer_ratio()
            inv_poly = Poly(
                Fraction(a.numerator * m, a.denominator * n) for a in reversed(self.min_poly.coeffs)
            )
            self._dual = _assemble(
                self.field,
                self.c_inverse,
                inv_poly,
                [FinitePlace(fp.prime, -fp.valuation) for fp in self.finite_unstable],
                [FinitePlace(fp.prime, -fp.valuation) for fp in self.finite_stable],
                swapped,
                (self.expanding_ideal, self.contracting_ideal),
            )
            self._dual._c_inverse = self.c
        return self._dual

    def describe(self) -> dict:
        """JSON-ready summary of the place data."""
        arch = self.archimedean
        return {
            "min_poly": self.min_poly.pretty(),
            "field_poly": self.field.min_poly.pretty(),
            "field_degree": self.field.degree,
            "field_discriminant": self.field.discriminant,
            "finite_stable": [
                {"p": fp.prime.p, "e": fp.prime.e, "f": fp.prime.f, "valuation": fp.valuation}
                for fp in self.finite_stable
            ],
            "finite_unstable": [
                {"p": fp.prime.p, "e": fp.prime.e, "f": fp.prime.f, "valuation": fp.valuation}
                for fp in self.finite_unstable
            ],
            "archimedean": {
                "contracting_real": arch.contracting_real,
                "contracting_real_negative": arch.contracting_real_negative,
                "contracting_complex_pairs": arch.contracting_complex_pairs,
                "expanding_real": arch.expanding_real,
                "expanding_complex_pairs": arch.expanding_complex_pairs,
            },
            "degree_shift": self.degree_shift,
            "transfer_index": self.transfer_index,
            "orientation_sign": self.orientation_sign,
        }


def monic_min_poly(c) -> Poly:
    """The monic minimal polynomial of c, from a Poly, a parseable string,
    or c itself when it is rational (x - c).

    This is the system's min_poly and the text of the report cache key,
    so both come from here.  Raises ParseError for a constant polynomial
    and ZeroInput for c = 0; irreducibility is left to build_system.
    """
    if isinstance(c, (int, Fraction)):
        c = Poly([1, -c])
    elif isinstance(c, str):
        c = parse_poly(c)
    if c.degree < 1:
        raise ParseError("c needs a nonconstant minimal polynomial")
    f = c.monic()
    if f.coeffs[-1] == 0:
        raise ZeroInput("c must be nonzero")
    return f


def build_system(min_poly) -> SolenoidSystem:
    """Analyze the solenoid for the algebraic number c with the given
    minimal polynomial (anything monic_min_poly reads).

    Raises ParseError for reducible or degenerate input, ZeroInput for
    c = 0, and BoundaryRoot when a conjugate of c lies on the unit
    circle.
    """
    f = monic_min_poly(min_poly)
    h, s = clear_to_monic_integer(f)
    if not is_irreducible_over_q(h):
        raise ParseError(f"{f.pretty()} is reducible over Q")

    # archimedean analysis happens on f itself; scaling would move the circle.
    # One Sturm chain, for the disk count and cut at -1, 0 and 1, none of
    # them a root: the disk count raises BoundaryRoot on a root at +-1,
    # and c != 0
    chain = sturm_chain(f.coeffs)
    inside = roots_in_unit_disk(f, chain)
    below, real_inside_negative, positive, above = real_root_counts(
        f, [None, -1, 0, 1, None], chain
    )
    real_inside = real_inside_negative + positive
    real_total = below + real_inside + above
    if (inside - real_inside) % 2 != 0 or (f.degree - inside - (real_total - real_inside)) % 2 != 0:
        raise InternalCheckError("real and complex root counts are inconsistent")
    arch = ArchimedeanSummary(
        contracting_real=real_inside,
        contracting_real_negative=real_inside_negative,
        contracting_complex_pairs=(inside - real_inside) // 2,
        expanding_real=real_total - real_inside,
        expanding_real_negative=below,
        expanding_complex_pairs=(f.degree - inside - (real_total - real_inside)) // 2,
    )

    if f.degree == 1:
        K = NumberField(RATIONAL_FIELD_POLY, check=False)
        c = K.from_rational(-f.coeffs[1])
    else:
        K = NumberField(h, check=False)
        c = K.gen().scale(Fraction(1, s))

    stable: list[FinitePlace] = []
    unstable: list[FinitePlace] = []
    for P, v in element_valuations(c).items():
        if v > 0:
            stable.append(FinitePlace(P, v))
        elif v < 0:
            unstable.append(FinitePlace(P, v))
    stable.sort(key=lambda fp: (fp.prime.p, fp.prime.gen_poly_mod_p))
    unstable.sort(key=lambda fp: (fp.prime.p, fp.prime.gen_poly_mod_p))

    return _assemble(K, c, f, stable, unstable, arch)


def _assemble(
    field: NumberField,
    c: NfElement,
    min_poly: Poly,
    stable: list[FinitePlace],
    unstable: list[FinitePlace],
    arch: ArchimedeanSummary,
    ideals: tuple[FractionalIdeal | None, FractionalIdeal | None] = (None, None),
) -> SolenoidSystem:
    """The system for c from its places, with the transfer index
    N = prod N(P)^v over the stable places checked as a lattice index."""
    system = SolenoidSystem(
        field=field,
        c=c,
        min_poly=min_poly,
        finite_stable=stable,
        finite_unstable=unstable,
        archimedean=arch,
        degree_shift=arch.contracting_dimension,
        transfer_index=_place_norm(stable),
        orientation_sign=(-1) ** arch.contracting_real_negative,
    )
    system._contracting_ideal, system._expanding_ideal = ideals
    _check_transfer_index(system)
    return system


def _place_norm(places: list[FinitePlace]) -> int:
    """prod N(P)^|v| over the places: their place-list ideal's norm."""
    return functools.reduce(operator.mul, (fp.prime.norm() ** abs(fp.valuation) for fp in places), 1)


def _place_ideal(field: NumberField, places: list[FinitePlace]) -> FractionalIdeal:
    """prod P^|v| over the places, the ring of integers for none."""
    powers = [fp.prime.power(abs(fp.valuation)) for fp in places]
    return functools.reduce(operator.mul, powers) if powers else FractionalIdeal.ring_of_integers(field)


def _check_transfer_index(system: SolenoidSystem) -> None:
    """The transfer index must equal the lattice index of one contracting
    step of the tower inside the ring of integers, the norm of the
    contracting ideal."""
    idx = system.contracting_ideal.norm()
    if idx != system.transfer_index:
        raise InternalCheckError(
            f"norm product {system.transfer_index} != lattice index {idx}"
        )
