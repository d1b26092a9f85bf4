"""The integer tower path against the Fraction routes it replaced.

The package takes multiplication matrices as integer pairs (A, m) from
integer coordinates and the structure constants, characteristic
polynomials from Faddeev-LeVerrier over Z, towers and actions from
integer minors divided by m^k, and Lefschetz rows from integer
determinants.  Elements are reduced pairs (integer coordinates over the
integral basis, positive denominator), multiplied on the structure
constants and inverted by Cayley-Hamilton.  tests/oracles.py keeps the
Fraction routes: QPoly products and the extended Euclid mod f over the
power basis, W^-1 M W from it, the Fraction recursion, cofactor minors
of the Fraction matrix and RatMatrix powers.
"""

import importlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    RatMatrix,
    basis_rat,
    element,
    element_pow,
    fraction_char_poly,
    fraction_lefschetz_traces,
    fraction_mult_matrix,
    minor_entry,
    omega,
    poly_mod_inverse,
    poly_mod_product,
    power_basis_mult_matrix,
    power_coords,
    rat,
    system_with,
    trace,
    trace_form_discriminant,
)
from solhom import linalg, nfield
from solhom.cli import build_report
from solhom.engine import finite_part_homology, lefschetz_traces, principalization
from solhom.errors import DegenerateFix, InternalCheckError
from solhom.linalg import IntMatrix, char_poly
from solhom.nfield import NumberField
from solhom.places import RATIONAL_FIELD_POLY, build_system
from solhom.qpoly import Poly, parse_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench/corpus.py REPORT_CORPUS; test_report_corpus_matches keeps it so
REPORT_CORPUS = (
    "x-3/2", "x^2-x+3/2", "x^2-x-1", "x^2+x+7/2",
    "x^2-x+5/6", "x^2-79/4", "x^3-x-1", "x^4-x-1",
)
SYSTEMS = REPORT_CORPUS + ("x^5-x-1",)

# defining polynomials of degree 1 to 5; the quadratic ones up to x^2-12
# have an integral basis other than the power basis (W != I)
FIELDS = (
    "x-1", "x^2-2*x+6", "x^2-5", "x^2+3", "x^2-12", "x^2-x-1", "x^2-79",
    "x^3-x-1", "x^3-2", "x^4-x-1", "x^4-2", "x^5-x-1", "x^5-2",
)


def test_report_corpus_matches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert importlib.import_module("corpus").REPORT_CORPUS == REPORT_CORPUS


def _field(text):
    return NumberField(RATIONAL_FIELD_POLY if text == "x-1" else parse_poly(text))


def _elements(field, count, seed):
    """Random elements with denominators, plus theta and its inverse."""
    rng = random.Random(seed)
    out = [field.gen(), field.gen().inverse()]
    while len(out) < count:
        den = rng.randint(1, 12)
        x = element(field, [Fraction(rng.randint(-9, 9), den) for _ in range(field.degree)])
        if not x.is_zero():
            out.append(x)
    return out


@pytest.mark.parametrize("poly", FIELDS)
def test_mult_pair_matches_fraction_route(poly):
    field = _field(poly)
    for x in _elements(field, 12, seed=len(poly)):
        A, m = x.mult_pair()
        assert element(field, power_coords(x)) == x and x.power_coords() == power_coords(x)
        M = fraction_mult_matrix(x)
        assert rat(x.mult_matrix_integral()) == M, x
        assert A.rows == tuple(tuple(int(e * m) for e in row) for row in M.rows)
        assert m == M.denominator() and math.gcd(m, *(e for row in A.rows for e in row)) == 1
        P = power_basis_mult_matrix(x)
        assert x.norm() == P.det()
        assert trace(x) == sum(P.rows[i][i] for i in range(field.degree))
        assert x.char_poly_over_q() == Poly(fraction_char_poly(P.rows))


def _reference_pow(field, a, e):
    out = [Fraction(int(i == 0)) for i in range(field.degree)]
    base = a if e >= 0 else poly_mod_inverse(field, a)
    for _ in range(abs(e)):
        out = poly_mod_product(field, out, base)
    return out


def _assert_reduced(x):
    assert type(x.num) is tuple and all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("poly", FIELDS)
def test_element_arithmetic_matches_poly_reference(poly):
    field = _field(poly)
    d = field.degree
    rng = random.Random(poly)
    theta = [-field.min_poly.coeffs[1]] if d == 1 else [int(i == 1) for i in range(d)]
    omega_coords = theta if d == 1 else basis_rat(field).column(1)
    samples = [theta, poly_mod_inverse(field, theta), omega_coords]
    while len(samples) < 9:
        den = rng.choice([1, 2, 3, 4, 6, 9, 12])
        samples.append([Fraction(rng.randint(-9, 9), den) for _ in range(d)])
    assert field.gen() == element(field, theta)
    assert omega(field) == element(field, omega_coords)

    def check(x, want):
        _assert_reduced(x)
        assert x.power_coords() == tuple(Fraction(c) for c in want)
        assert x == element(field, want) and hash(x) == hash(element(field, want))

    for a in samples:
        x = element(field, a)
        check(x, a)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        check(x.scale(q), [q * c for c in a])
        check(-x, [-c for c in a])
        if x.is_zero():
            continue
        check(x.inverse(), poly_mod_inverse(field, a))
        for e in (-3, -2, -1, 0, 1, 2, 3):
            check(element_pow(x, e), _reference_pow(field, a, e))
        for b in samples:
            y = element(field, b)
            check(x + y, [s + t for s, t in zip(a, b)])
            check(x - y, [s - t for s, t in zip(a, b)])
            check(x * y, poly_mod_product(field, a, b))
            assert (x == y) == (tuple(map(Fraction, a)) == tuple(map(Fraction, b)))


@pytest.mark.parametrize("poly", [p for p in FIELDS if not p.startswith(("x-", "x^2"))])
def test_discriminant_matches_the_trace_form(poly):
    field = _field(poly)
    assert field.discriminant == trace_form_discriminant(field)


def test_fields_cover_nontrivial_quadratic_bases():
    identity = RatMatrix.identity(2)
    others = [p for p in FIELDS if p.startswith("x^2") and basis_rat(_field(p)) != identity]
    assert others == ["x^2-2*x+6", "x^2-5", "x^2+3", "x^2-12"]
    # the field of c = (1+sqrt(-5))/2 is one of them
    assert build_system("x^2-x+3/2").field == _field("x^2-2*x+6")


def test_omega_poly_is_the_char_poly_of_omega():
    for b in range(-4, 5):
        for c in range(-30, 31):
            f = Poly([1, b, c])
            if any(r * r + b * r + c == 0 for r in range(-40, 41)):
                continue  # reducible
            field = NumberField(f)
            omega = element(field, basis_rat(field).column(1))
            assert field.omega_poly == Poly(fraction_char_poly(power_basis_mult_matrix(omega).rows)), f
    assert _field("x^3-x-1").omega_poly == parse_poly("x^3-x-1")


def _rows(draw_entry, n):
    return st.lists(st.lists(draw_entry, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _rows(st.integers(-9, 9), n)))
def test_char_poly_matches_fraction_recursion_on_integers(rows):
    got = char_poly(IntMatrix(rows))
    assert got == fraction_char_poly(rows)
    assert all(type(c) is int for c in got)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: _rows(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)), n)
    )
)
def test_char_poly_matches_fraction_recursion_on_rationals(rows):
    # M / m: coefficient i of its characteristic polynomial is that of M over m^i
    M = RatMatrix(rows)
    m = M.denominator()
    coeffs = char_poly(IntMatrix([[int(x * m) for x in row] for row in M.rows]))
    assert tuple(Fraction(c, m**i) for i, c in enumerate(coeffs)) == fraction_char_poly(rows)


def test_inexact_faddeev_leverrier_division_raises():
    with pytest.raises(InternalCheckError):
        linalg._faddeev_leverrier([[Fraction(1, 2)]])


def _fraction_power(M: RatMatrix, k: int, scale) -> tuple:
    """scale * Lambda^k(M) from cofactor minors of the Fraction matrix."""
    if k == 0:
        return ((Fraction(scale),),)
    sets = list(itertools.combinations(range(M.nrows), k))
    return tuple(
        tuple(scale * minor_entry(M.rows, rs, cs) for cs in sets) for rs in sets
    )


@pytest.mark.parametrize("poly", SYSTEMS)
def test_towers_and_actions_match_fraction_route(poly):
    sys_ = build_system(poly)
    for side in (sys_, sys_.dual_system()):
        finite = finite_part_homology(side)
        g, _ = principalization(side)
        c_inv = side.c.inverse()
        m_flat, m_theta = fraction_mult_matrix(g * c_inv), fraction_mult_matrix(c_inv)
        for k, entry in finite.entries.items():
            N = side.transfer_index
            assert entry.colimit.matrix.rows == _fraction_power(m_flat, k, N), (poly, k)
            assert rat(entry.action).rows == _fraction_power(m_theta, k, N), (poly, k)


@pytest.mark.parametrize("poly", SYSTEMS)
def test_lefschetz_rows_match_ratmatrix_powers(poly):
    sys_ = build_system(poly)
    assert lefschetz_traces(sys_, 12) == fraction_lefschetz_traces(sys_, 12)


def test_lefschetz_stops_at_the_first_root_of_unity_power():
    sys_ = build_system("x^2+3/4")  # the field Q(sqrt(-3))
    field = sys_.field
    zeta = (field.gen() - field.one()).scale(Fraction(1, 2))  # (-1 + sqrt(-3)) / 2
    for c, k in ((zeta, 3), (-zeta, 6), (field.from_rational(-1), 2)):
        # lefschetz_traces reads the characteristic polynomial of 1/c off
        # the dual's min_poly, so the fake carries that of c
        fake = system_with(sys_, c=c, min_poly=c.char_poly_over_q())
        for route in (lefschetz_traces, fraction_lefschetz_traces):
            with pytest.raises(DegenerateFix, match=rf"c\^{k} = 1"):
                route(fake, 12)
        assert lefschetz_traces(fake, k - 1) == fraction_lefschetz_traces(fake, k - 1)


def test_tower_path_needs_no_ratmatrix_products(monkeypatch):
    systems = [build_system(p) for p in SYSTEMS]
    systems += [s.dual_system() for s in systems]

    def refuse(*_args):
        raise AssertionError("RatMatrix product on the integer tower path")

    assert not hasattr(linalg, "RatMatrix")
    monkeypatch.setattr(RatMatrix, "__matmul__", refuse)
    for sys_ in systems:
        finite_part_homology(sys_)
        lefschetz_traces(sys_, 12)


def test_prime_factoring_computes_no_char_poly(monkeypatch):
    counts = {"depth": 0, "factorings": 0, "calls": 0, "inside": 0}
    factor = nfield.factor_rational_prime

    def counted_factor(*args):
        counts["factorings"] += 1
        counts["depth"] += 1
        try:
            return factor(*args)
        finally:
            counts["depth"] -= 1

    def counted_char_poly(A):
        counts["calls"] += 1
        counts["inside"] += counts["depth"] > 0
        return char_poly(A)

    monkeypatch.setattr(nfield, "factor_rational_prime", counted_factor)
    monkeypatch.setattr(nfield, "char_poly", counted_char_poly)
    monkeypatch.setattr(linalg, "char_poly", counted_char_poly)
    for poly in REPORT_CORPUS:
        build_report(build_system(poly), 6)
    assert counts["factorings"] > 0 and counts["calls"] > 0
    assert counts["inside"] == 0


def test_tower_path_needs_no_poly_division():
    # Poly is a value with no division, so the path below cannot divide one
    assert not hasattr(Poly, "__divmod__")
    systems = [build_system(p) for p in REPORT_CORPUS]
    systems += [s.dual_system() for s in systems]
    for sys_ in systems:
        finite_part_homology(sys_)
        lefschetz_traces(sys_, 12)
