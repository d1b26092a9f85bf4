"""Reports of c against those of -c and 1/c, on drawn c: relations the
mathematics fixes in advance, so they need no recorded answer
(docs/symmetries.md).

c -> -c keeps the refusal class, the degrees of both sides and every
degree's invariant signature, and the closed form wherever both inputs
have one.  c -> 1/c keeps the periodic-point counts where both certify.
Refusals under 1/c are not symmetric today (an index obstruction on one
side only), so they are not compared here; nor is the degree >= 3
generator search's limit under -c, since that search runs in the
coordinates of the working order's basis, which the sign changes.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from oracles import reversed_poly
from solhom.cli import build_report
from solhom.engine import dual_principalization, finite_part_homology, shifted_homology
from solhom.errors import PrincipalizationUndecided, SolhomError
from solhom.places import build_system
from solhom.qpoly import Poly, clear_to_monic_integer, is_irreducible_over_q

LEFSCHETZ = 6


@st.composite
def minimal_polys(draw):
    """The monic minimal polynomial of an irreducible c of degree 1-3,
    each coefficient a/b with a in [-7, 7] and b in 1..6."""
    d = draw(st.integers(1, 3), label="degree")
    coeffs = [Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 6))) for _ in range(d)]
    assume(coeffs[-1] != 0)
    f = Poly([1, *coeffs])
    assume(is_irreducible_over_q(clear_to_monic_integer(f)[0]))
    return f


def negated(f: Poly) -> Poly:
    """The minimal polynomial of -c: (-1)^d f(-x)."""
    return Poly([(-1) ** i * a for i, a in enumerate(f.coeffs)])


def inverted(f: Poly) -> Poly:
    """The minimal polynomial of 1/c: x^d f(1/x), made monic."""
    return reversed_poly(f).monic()


def outcome(f: Poly):
    """(None, system, report) when c certifies, else (refusal class, None, None)."""
    try:
        sys_ = build_system(f)
        return None, sys_, build_report(sys_, LEFSCHETZ)
    except SolhomError as exc:
        return type(exc), None, None


def homology_sides(sys_):
    """The unstable and stable homology a report prints, as graded groups."""
    finite = finite_part_homology(sys_)
    dual = sys_.dual_system()
    found = dual_principalization(sys_, finite.principalization)
    stable = shifted_homology(dual, finite_part_homology(dual, found, finite.dual_ladders))
    return shifted_homology(sys_, finite), stable


@settings(max_examples=80, deadline=None)
@given(minimal_polys())
def test_negating_c_keeps_refusals_signatures_and_closed_forms(f):
    refusal, sys_, _ = outcome(f)
    mirror_refusal, mirror, _ = outcome(negated(f))
    assume(PrincipalizationUndecided not in (refusal, mirror_refusal))  # a search limit
    assert refusal is mirror_refusal
    if refusal is not None:
        return
    for side, mirror_side in zip(homology_sides(sys_), homology_sides(mirror)):
        assert side.degrees() == mirror_side.degrees()
        for k in side.degrees():
            a, b = side.entry(k), mirror_side.entry(k)
            assert a.colimit.signature == b.colimit.signature, k
            if a.closed is not None and b.closed is not None:
                assert a.closed == b.closed, k


@settings(max_examples=80, deadline=None)
@given(minimal_polys())
def test_inverting_c_keeps_the_periodic_point_counts(f):
    _, _, report = outcome(f)
    _, _, mirror = outcome(inverted(f))
    assume(report is not None and mirror is not None)
    counts = [row["periodic_points"] for row in report["lefschetz"]]
    assert counts == [row["periodic_points"] for row in mirror["lefschetz"]]
