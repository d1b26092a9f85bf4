"""Sturm interval counts and unit-disk root location.

Expected values come from polynomials with constructed roots (the
poly_from_roots oracle), so every count is known before the code runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from solhom.errors import BoundaryRoot
from solhom.qpoly import Poly, parse_poly
from solhom.rootcount import (
    real_root_count,
    real_roots_in_interval,
    roots_in_unit_disk,
    unit_circle_root_count,
)
from oracles import poly_from_roots, roots_outside_unit_disk


def test_sturm_frozen_cubic():
    f = Poly([1, 0, -7, 6])  # roots 1, 2, -3
    assert real_roots_in_interval(f, 0, 3) == 2
    assert real_roots_in_interval(f, -4, 0) == 1
    assert real_roots_in_interval(f, 1, 2) == 0  # open interval
    assert real_roots_in_interval(f, 1, 3) == 1
    assert real_roots_in_interval(f, 0, 2) == 1
    assert real_root_count(f) == 3


def test_sturm_ignores_multiplicity():
    f = Poly([1, -1]) * Poly([1, -1]) * Poly([1, 0])
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
        sf_deg = f.squarefree_part().degree
        circle = unit_circle_root_count(f)
        if circle:
            with pytest.raises(BoundaryRoot):
                roots_in_unit_disk(f)
            continue
        assert roots_in_unit_disk(f) + roots_outside_unit_disk(f) == sf_deg
