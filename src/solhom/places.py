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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DegenerateFix, InternalCheckError, ParseError, ZeroInput
from .nfield import (
    FractionalIdeal,
    NfElement,
    NumberField,
    PrimeIdeal,
    element_valuations,
    ideal_index,
)
from .qpoly import Poly, clear_to_monic_integer, is_irreducible_over_q, parse_poly
from .rootcount import real_root_count, real_roots_in_interval, roots_in_unit_disk

RATIONAL_FIELD_POLY = Poly([1, -1])  # x - 1; fixed defining polynomial for K = Q


@dataclass(frozen=True)
class FinitePlace:
    """A finite place in the support of c, with its valuation of c."""

    prime: PrimeIdeal
    valuation: int

    @property
    def residue_norm(self) -> int:
        return self.prime.norm()


@dataclass(frozen=True)
class ArchimedeanSummary:
    """Counts of archimedean places split by type and contraction."""

    contracting_real: int
    contracting_real_negative: int
    contracting_complex_pairs: int
    expanding_real: int
    expanding_complex_pairs: int

    @property
    def contracting_dimension(self) -> int:
        return self.contracting_real + 2 * self.contracting_complex_pairs


@dataclass
class SolenoidSystem:
    """Analyzed solenoid data for a fixed algebraic number c."""

    field: NumberField
    c: NfElement
    min_poly: Poly  # monic rational minimal polynomial of c itself
    finite_stable: list[FinitePlace]
    finite_unstable: list[FinitePlace]
    archimedean: ArchimedeanSummary
    degree_shift: int
    transfer_index: int
    orientation_sign: int
    _dual: "SolenoidSystem | None" = dc_field(default=None, repr=False)

    def periodic_points(self, n: int) -> int:
        """Number of points fixed by the n-th power of the map.

        That is the product of N(P)^v over the places P where
        w = c^n - 1 has positive valuation v.  At an expanding place
        v_P(w) = n * v_P(c) < 0 and at every other place v_P(w) >= 0, so
        by the product formula the count is |N(w)| * D^n with
        D = prod over expanding P of N(P)^(-v_P(c)); nothing is factored.
        """
        if n < 1:
            raise ValueError("period must be positive")
        w = self.c.pow(n) - self.field.one()
        if w.is_zero():
            raise DegenerateFix(f"c^{n} = 1, so the fixed set is not finite")
        expanding = 1
        for fp in self.finite_unstable:
            expanding *= fp.residue_norm ** (-fp.valuation)
        count = abs(w.norm()) * expanding**n
        if count.denominator != 1:
            raise InternalCheckError(
                f"norm of c^{n} - 1 times the expanding part is {count}, not an integer"
            )
        return int(count)

    def dual_system(self) -> "SolenoidSystem":
        """The same solenoid run backwards, built fresh from 1/c."""
        if self._dual is None:
            inv_poly = self.c.inverse().min_poly_over_q()
            if inv_poly.degree != self.field.degree:
                raise InternalCheckError("1/c does not generate the field")
            self._dual = build_system(inv_poly)
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


def build_system(min_poly) -> SolenoidSystem:
    """Analyze the solenoid for the algebraic number c with the given
    minimal polynomial (a Poly or a parseable string, monic after
    normalization by the leading coefficient).

    Raises ParseError for reducible or degenerate input, ZeroInput for
    c = 0, and BoundaryRoot when a conjugate of c lies on the unit
    circle.
    """
    if isinstance(min_poly, str):
        min_poly = parse_poly(min_poly)
    if min_poly.degree < 1:
        raise ParseError("c needs a nonconstant minimal polynomial")
    f = min_poly.monic()
    if f.coeffs[-1] == 0:
        raise ZeroInput("c must be nonzero")
    h, s = clear_to_monic_integer(f)
    if not is_irreducible_over_q(h):
        raise ParseError(f"{f.pretty()} is reducible over Q")

    # archimedean analysis happens on f itself; scaling would move the circle
    inside = roots_in_unit_disk(f)
    real_total = real_root_count(f)
    real_inside = real_roots_in_interval(f, -1, 1)
    real_inside_negative = real_roots_in_interval(f, -1, 0)
    if (inside - real_inside) % 2 != 0 or (f.degree - inside - (real_total - real_inside)) % 2 != 0:
        raise InternalCheckError("real and complex root counts are inconsistent")
    arch = ArchimedeanSummary(
        contracting_real=real_inside,
        contracting_real_negative=real_inside_negative,
        contracting_complex_pairs=(inside - real_inside) // 2,
        expanding_real=real_total - real_inside,
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

    N = 1
    for fp in stable:
        N *= fp.residue_norm**fp.valuation

    system = SolenoidSystem(
        field=K,
        c=c,
        min_poly=f,
        finite_stable=stable,
        finite_unstable=unstable,
        archimedean=arch,
        degree_shift=arch.contracting_dimension,
        transfer_index=N,
        orientation_sign=(-1) ** arch.contracting_real_negative,
    )
    _check_transfer_index(system)
    return system


def _check_transfer_index(system: SolenoidSystem) -> None:
    """The transfer index must equal the lattice index of one contracting
    step of the tower inside the ring of integers."""
    O = FractionalIdeal.ring_of_integers(system.field)
    step = O
    for fp in system.finite_stable:
        step = step * fp.prime.power(fp.valuation)
    idx = ideal_index(O, step)
    if idx != system.transfer_index:
        raise InternalCheckError(
            f"norm product {system.transfer_index} != lattice index {idx}"
        )
