"""Sturm interval counts and unit-disk root location.

Expected values come from polynomials with constructed roots (the
poly_from_roots oracle), so every count is known before the code runs.
The integer chains are also compared with the Fraction chains they
replaced (tests/oracles.py, on QPoly), and run on every benchmark
answer input as a Poly, which has no Fraction arithmetic to fall back on.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from solhom.errors import BoundaryRoot, SolhomError
from solhom.qpoly import Poly, parse_poly
from solhom import places, rootcount
from solhom.rootcount import real_root_counts, real_roots_in_interval, roots_in_unit_disk, sturm_chain
from oracles import (
    QPoly,
    fraction_real_root_count,
    fraction_real_roots_in_interval,
    fraction_roots_in_unit_disk,
    fraction_unit_circle_root_count,
    poly_from_roots,
    power_sum_values_at,
    real_root_count,
    reversed_poly,
    roots_outside_unit_disk,
    unit_circle_root_count,
)
from record_answer_reports import answer_inputs


def test_sturm_frozen_cubic():
    f = Poly([1, 0, -7, 6])  # roots 1, 2, -3
    assert real_roots_in_interval(f, 0, 3) == 2
    assert real_roots_in_interval(f, -4, 0) == 1
    assert real_roots_in_interval(f, 1, 2) == 0  # open interval
    assert real_roots_in_interval(f, 1, 3) == 1
    assert real_roots_in_interval(f, 0, 2) == 1
    assert real_root_count(f) == 3


def test_sturm_ignores_multiplicity():
    f = QPoly([1, -1]) * QPoly([1, -1]) * QPoly([1, 0])
    assert real_roots_in_interval(f, Fraction(1, 2), 2) == 1
    assert real_root_count(f) == 2


def test_sturm_no_real_roots():
    assert real_root_count(Poly([1, 0, 1])) == 0
    assert real_roots_in_interval(Poly([1, 0, 1]), -10, 10) == 0


def test_sturm_half_infinite():
    f = Poly([1, 0, -2])
    assert real_roots_in_interval(f, 0, None) == 1
    assert real_roots_in_interval(f, None, 0) == 1


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x - 1", 1),
        ("x + 1", 1),
        ("x^2 + 1", 2),
        ("x^2 + x + 1", 2),
        ("x^2 - x - 1", 0),
        ("x^2 - 3*x + 1", 0),  # real reciprocal pair, off circle
        ("x^4 + x^3 + x^2 + x + 1", 4),
        ("x^3 - x^2 + x - 1", 3),  # (x-1)(x^2+1)
        ("x^3 - 2", 0),
    ],
)
def test_unit_circle_count(text, expected):
    assert unit_circle_root_count(parse_poly(text)) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x^2 - x - 1", 1),
        ("2*x^2 - 5*x + 2", 1),  # roots 2 and 1/2
        ("x^3 - 2", 0),
        ("4*x^2 - 1", 2),
        ("x^2 + 4", 0),
        ("x", 1),
        ("x^2 - 2*x + 5", 0),  # 1 +- 2i
        ("x^2 + x/2 + 1/16", 1),  # double root -1/4, counted once
        ("5*x^2 - 26*x + 5", 1),  # roots 5 and 1/5
    ],
)
def test_unit_disk_frozen(text, expected):
    assert roots_in_unit_disk(parse_poly(text)) == expected


@pytest.mark.parametrize("text,on_circle", [("x^2 - 1", 2), ("x^5 - 1", 5), ("x^2 + 1", 2)])
def test_unit_disk_boundary(text, on_circle):
    with pytest.raises(BoundaryRoot) as err:
        roots_in_unit_disk(parse_poly(text))
    assert err.value.on_circle == on_circle


def test_unit_disk_constructed_roots():
    rng = random.Random(41)
    inside_rational = [0, Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(-1, 5)]
    outside_rational = [3, Fraction(-5, 2), Fraction(7, 3), -2]
    inside_pairs = [(Fraction(1, 2), Fraction(1, 2)), (0, Fraction(1, 2)), (Fraction(-1, 3), Fraction(1, 3))]
    outside_pairs = [(1, 1), (Fraction(-3, 2), Fraction(1, 2)), (0, 2)]
    for _ in range(40):
        ins = rng.sample(inside_rational, rng.randint(0, 2))
        outs = rng.sample(outside_rational, rng.randint(0, 2))
        insp = rng.sample(inside_pairs, rng.randint(0, 2))
        outsp = rng.sample(outside_pairs, rng.randint(0, 2))
        if not (ins or outs or insp or outsp):
            continue
        coeffs = poly_from_roots(ins + outs, insp + outsp)
        f = Poly(coeffs)
        expected_inside = len(ins) + 2 * len(insp)
        expected_total = len(ins) + len(outs) + 2 * len(insp) + 2 * len(outsp)
        assert roots_in_unit_disk(f) == expected_inside
        assert roots_outside_unit_disk(f) == expected_total - expected_inside


def test_unit_disk_boundary_pair_detected():
    # (3/5, 4/5) has modulus exactly 1
    coeffs = poly_from_roots([Fraction(1, 2)], [(Fraction(3, 5), Fraction(4, 5))])
    with pytest.raises(BoundaryRoot) as err:
        roots_in_unit_disk(Poly(coeffs))
    assert err.value.on_circle == 2


def test_inside_plus_outside_plus_circle_is_squarefree_degree():
    rng = random.Random(43)
    for _ in range(30):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-7, 7) for _ in range(deg + 1)]
        if coeffs[0] == 0:
            coeffs[0] = 1
        f = Poly(coeffs)
        sf_deg = QPoly(coeffs).squarefree_part().degree
        circle = unit_circle_root_count(f)
        if circle:
            with pytest.raises(BoundaryRoot):
                roots_in_unit_disk(f)
            continue
        assert roots_in_unit_disk(f) + roots_outside_unit_disk(f) == sf_deg


def _outcome(count, f):
    """count(f), or the on-circle count of the BoundaryRoot it raises."""
    try:
        return count(f)
    except BoundaryRoot as err:
        return ("BoundaryRoot", err.on_circle)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
# -1, 0 and 1 are the cuts build_system reads; 2/3 and -5/2 have b > 1
ROOTS = st.one_of(st.sampled_from([-1, 0, 1, Fraction(2, 3), Fraction(-5, 2)]), RATIONALS)
# a +- b i; 3/5 +- 4/5 i lies on the unit circle
PAIRS = st.one_of(
    st.sampled_from([(Fraction(3, 5), Fraction(4, 5)), (Fraction(1, 2), Fraction(1, 2)), (0, 2)]),
    st.tuples(RATIONALS, st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7)),
)
FACTORS = st.one_of(
    ROOTS.map(lambda r: (QPoly([1, -r]), r)),
    PAIRS.map(lambda ab: (QPoly([1, -2 * ab[0], ab[0] ** 2 + ab[1] ** 2]), None)),
    st.lists(RATIONALS, min_size=2, max_size=4)
    .filter(lambda cs: cs[0] != 0)
    .map(lambda cs: (QPoly(cs), None)),
)


@st.composite
def polys_and_ends(draw):
    """A nonzero polynomial of degree <= 8 with rational coefficients, a
    product of factors taken once or twice (repeated roots), and two
    interval ends, often roots of its linear factors."""
    f, roots = QPoly([draw(RATIONALS.filter(lambda c: c != 0))]), []
    for (factor, root), times in draw(st.lists(st.tuples(FACTORS, st.integers(1, 2)), max_size=5)):
        if f.degree + times * factor.degree <= 8:
            for _ in range(times):
                f = f * factor
            roots += [] if root is None else [root]
    ends = st.one_of(st.sampled_from(roots), RATIONALS) if roots else RATIONALS
    return Poly(f.coeffs), [draw(ends), draw(ends)]


CIRCLE_PAIR = Poly(poly_from_roots([Fraction(2, 3)], [(Fraction(3, 5), Fraction(4, 5))]))
REPEATED = Poly(poly_from_roots([-1, 0, 1, 1, Fraction(2, 3)], []))


@settings(max_examples=200, deadline=None)
@given(polys_and_ends())
@example((REPEATED, [-1, 0, 1, Fraction(2, 3)]))
@example((CIRCLE_PAIR, [Fraction(2, 3), 1]))
def test_real_counts_match_fraction_oracle(f_ends):
    f, ends = f_ends
    assert real_root_count(f) == fraction_real_root_count(f)
    for a in [None] + ends:
        for b in ends + [None]:
            assert real_roots_in_interval(f, a, b) == fraction_real_roots_in_interval(f, a, b)
    cuts = [None] + sorted(set(Fraction(x) for x in ends)) + [None]
    expected = [fraction_real_roots_in_interval(f, a, b) for a, b in zip(cuts, cuts[1:])]
    assert real_root_counts(f, cuts) == expected


@settings(max_examples=200, deadline=None)
@given(polys_and_ends())
@example((CIRCLE_PAIR, []))
@example((REPEATED, []))
def test_circle_and_disk_counts_match_fraction_oracle(f_ends):
    f, _ = f_ends
    assert unit_circle_root_count(f) == fraction_unit_circle_root_count(f)
    assert _outcome(roots_in_unit_disk, f) == _outcome(fraction_roots_in_unit_disk, f)


def test_circle_pair_with_rational_parts_is_a_boundary_root():
    assert unit_circle_root_count(CIRCLE_PAIR) == fraction_unit_circle_root_count(CIRCLE_PAIR) == 2
    assert _outcome(roots_in_unit_disk, CIRCLE_PAIR) == ("BoundaryRoot", 2)
    assert _outcome(fraction_roots_in_unit_disk, CIRCLE_PAIR) == ("BoundaryRoot", 2)


def test_answer_inputs_need_no_fraction_poly_routes():
    """Each answer input's system polynomial and its dual (the reversed
    polynomial, the minimal polynomial of 1/c) are counted on a Poly,
    which has no division, squarefree part or evaluation, and agree with
    the Fraction chains on QPoly."""
    polys = []
    for _, text, _ in answer_inputs():
        f = parse_poly(text).monic()
        polys += [f, reversed_poly(f).monic()]
    cuts = [None, -1, 0, 1, None]
    counts = (
        (roots_in_unit_disk, fraction_roots_in_unit_disk),
        (real_root_count, fraction_real_root_count),
        (
            lambda f: [real_roots_in_interval(f, -1, 1), real_roots_in_interval(f, -1, 0)],
            lambda f: [fraction_real_roots_in_interval(f, -1, 1), fraction_real_roots_in_interval(f, -1, 0)],
        ),
        (
            lambda f: real_root_counts(f, cuts),
            lambda f: [fraction_real_roots_in_interval(f, a, b) for a, b in zip(cuts, cuts[1:])],
        ),
    )
    expected = [[_outcome(oracle, f) for _, oracle in counts] for f in polys]
    assert not any(hasattr(Poly, name) for name in ("__divmod__", "squarefree_part"))
    assert all(type(f) is Poly for f in polys)
    assert [[_outcome(count, f) for count, _ in counts] for f in polys] == expected


def test_a_system_builds_one_sturm_chain_for_its_polynomial(monkeypatch):
    """build_system builds the Sturm chain of c's minimal polynomial
    once and both counts read it; a given chain gives the counts that
    one built inside would."""
    built = []
    original = rootcount.sturm_chain

    def counted(coeffs):
        built.append(list(coeffs))
        return original(coeffs)

    monkeypatch.setattr(rootcount, "sturm_chain", counted)
    monkeypatch.setattr(places, "sturm_chain", counted)
    cuts = [None, -1, 0, 1, None]
    for _, text, _ in answer_inputs():
        f = parse_poly(text).monic()
        built.clear()
        try:
            places.build_system(f)
        except SolhomError:
            continue  # refused inputs may stop before or between the counts
        assert built.count(list(f.coeffs)) == 1, text
        chain = sturm_chain(f.coeffs)
        assert roots_in_unit_disk(f, chain) == roots_in_unit_disk(f)
        assert real_root_counts(f, cuts, chain) == real_root_counts(f, cuts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), min_size=1, max_size=5),
    st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=30),
)
def test_horner_values_match_the_power_sum_route(chain, x):
    # integer cuts are evaluated as they are, without becoming Fractions
    assert rootcount._values_at(chain, x, True) == power_sum_values_at(chain, x)
    assert rootcount._values_at(chain, Fraction(x), True) == power_sum_values_at(chain, x)


@pytest.mark.parametrize(
    "cuts,counts",
    [
        ([None, -1, 0, 1, None], [1, 0, 1, 2]),
        ([None, "-1/2", Fraction(1, 3), 2.5, None], [1, 1, 2, 0]),
        ([-3, 3], [4]),
    ],
)
def test_cut_types_give_the_fraction_route_counts(cuts, counts):
    # roots -3/2, 1/4, 8/7 and 2
    f = Poly(poly_from_roots([Fraction(-3, 2), Fraction(1, 4), Fraction(8, 7), 2], []))
    exact = [x if x is None else Fraction(x) for x in cuts]
    assert real_root_counts(f, cuts) == real_root_counts(f, exact) == counts
