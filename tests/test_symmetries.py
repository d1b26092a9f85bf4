"""Reports of c against those of -c, 1/c, c^2 and an element e(c) given
by --element: relations the mathematics fixes in advance, so they need
no recorded answer (docs/symmetries.md).

c -> -c keeps the refusal class, the degrees of both sides and every
degree's invariant signature, and the closed form wherever both inputs
have one.  c -> 1/c keeps the periodic-point counts where both certify.
c -> c^2 takes the counts of period 2k to those of period k, raised to
the degree of Q(c) over Q(c^2), and when that degree is 1 keeps the
groups as -c does.  --min-poly F --element e prints the report of e's
own minimal polynomial, computed here from a resultant.
Refusals under 1/c are not symmetric today (an index obstruction on one
side only), so they are not compared here; nor is the degree >= 3
generator search's limit under -c, since that search runs in the
coordinates of the working order's basis, which the sign changes.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from oracles import QPoly, resultant, reversed_poly
from solhom.cli import build_report, main
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


def element_min_poly(f: Poly, e: Poly) -> QPoly:
    """The monic minimal polynomial of e(a) for a root a of the
    irreducible f and a nonconstant e: the squarefree part of
    R(x) = Res_y(f(y), x - e(y)) = lc(f)^deg(e) * prod (x - e(a_i)), a
    power of it up to a scalar.  R has degree deg f in x, so it is interpolated from its
    values at x = 0, ..., deg f, each a Sylvester determinant."""
    xs = range(f.degree + 1)
    R = QPoly.zero()
    for x in xs:
        value = resultant(f.coeffs, [-a for a in e.coeffs[:-1]] + [x - e.coeffs[-1]])
        lagrange = QPoly.const(value)
        for other in xs:
            if other != x:
                lagrange = lagrange * QPoly([1, -other]).scale(Fraction(1, x - other))
        R = R + lagrange
    return R.squarefree_part()


def assert_same_groups(sys_, mirror):
    """Each side of both systems has the same nonzero degrees, every
    degree the same invariant signature, and the same closed form where
    both have one."""
    for side, mirror_side in zip(homology_sides(sys_), homology_sides(mirror)):
        assert side.degrees() == mirror_side.degrees()
        for k in side.degrees():
            a, b = side.entry(k), mirror_side.entry(k)
            assert a.colimit.signature == b.colimit.signature, k
            if a.closed is not None and b.closed is not None:
                assert a.closed == b.closed, k


@settings(max_examples=80, deadline=None)
@given(minimal_polys())
def test_negating_c_keeps_refusals_signatures_and_closed_forms(f):
    refusal, sys_, _ = outcome(f)
    mirror_refusal, mirror, _ = outcome(negated(f))
    assume(PrincipalizationUndecided not in (refusal, mirror_refusal))  # a search limit
    assert refusal is mirror_refusal
    if refusal is not None:
        return
    assert_same_groups(sys_, mirror)


@settings(max_examples=80, deadline=None)
@given(minimal_polys())
def test_inverting_c_keeps_the_periodic_point_counts(f):
    _, _, report = outcome(f)
    _, _, mirror = outcome(inverted(f))
    assume(report is not None and mirror is not None)
    counts = [row["periodic_points"] for row in report["lefschetz"]]
    assert counts == [row["periodic_points"] for row in mirror["lefschetz"]]


@settings(max_examples=60, deadline=None)
@given(minimal_polys())
@example(Poly([1, 0, Fraction(-3, 2)]))  # Q(c) over Q(c^2) of degree 2
@example(Poly([1, -1, -1]))
def test_squaring_c_takes_period_2k_to_period_k(f):
    square = element_min_poly(f, Poly([1, 0, 0]))
    _, sys_, report = outcome(f)
    _, mirror, mirror_report = outcome(square)
    assume(report is not None and mirror_report is not None)
    counts = [row["periodic_points"] for row in report["lefschetz"]]
    square_counts = [row["periodic_points"] for row in mirror_report["lefschetz"]]
    index = f.degree // square.degree  # [Q(c) : Q(c^2)], 1 or 2
    for k in range(1, LEFSCHETZ // 2 + 1):
        assert square_counts[k - 1] ** index == counts[2 * k - 1], k
    if index == 1:
        assert_same_groups(sys_, mirror)


def analyze(*argv) -> tuple[int, str, str]:
    """main's exit code, its --json line with the timing value blanked,
    and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--no-cache", "--json", *argv])
    return code, re.sub(r'"timing_seconds": [-+.e0-9]+', '"timing_seconds": 0', out.getvalue()), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(
    minimal_polys().filter(lambda f: f.degree >= 2),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=2, max_size=3),
)
@example(Poly([1, 0, -2]), [1, 0, 0])  # x^2 at sqrt 2: the rational 2
@example(Poly([1, 0, 5]), [Fraction(1, 2), Fraction(1, 2)])
def test_an_element_reports_as_its_own_minimal_polynomial(f, coeffs):
    e = Poly(coeffs)
    assume(e.degree >= 1)
    mu = element_min_poly(f, e)
    assume(mu != Poly([1, 0]))  # e(c) = 0 is bad input on both routes
    # a separate value such as "-x" reads as a value, as "--element=-x" does
    assert analyze("--min-poly", f.pretty(), "--element", e.pretty()) == analyze("--min-poly", mu.pretty())
