"""Number field arithmetic against independent oracles and frozen data.

Element norms are checked against Sylvester resultants, valuations
against the product formula |N(x)| = prod N(P)^v_P(x), and the prime
splitting of small quadratic fields against hand-checked tables.
"""

import math
import random
from fractions import Fraction

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    anti_uniformizer,
    basis_rat,
    box_scan_generator,
    definite_scan_generator,
    norm_test_fundamental_unit,
    product_inverse_ideal,
    resultant,
)
from solhom import nfield
from solhom.errors import IndexObstruction
from solhom.nfield import (
    FractionalIdeal,
    NumberField,
    element_valuations,
    factor_rational_prime,
    fundamental_unit,
    ideal_index,
    principal_generator,
    valuation,
)
from solhom.qpoly import Poly, parse_poly


def field(text: str) -> NumberField:
    return NumberField(parse_poly(text))


K5 = field("x^2+5")


def test_quadratic_integral_basis_frozen():
    assert K5.discriminant == -20
    assert basis_rat(K5).rows == ((1, 0), (0, 1))

    Kg = field("x^2-5")
    assert Kg.discriminant == 5
    assert basis_rat(Kg).column(1) == (Fraction(1, 2), Fraction(1, 2))

    # the same field through a shifted generator: theta = 1 + sqrt(-5)
    Ks = field("x^2-2*x+6")
    assert Ks.discriminant == -20
    assert basis_rat(Ks).column(1) == (Fraction(-1), Fraction(1))
    omega = Ks.element(basis_rat(Ks).column(1))
    assert omega.min_poly_over_q() == parse_poly("x^2+5")


def test_degree_one_field():
    K = field("x-1")
    assert K.discriminant == 1
    c = K.from_rational(Fraction(3, 2))
    assert c.norm() == Fraction(3, 2)
    v2 = factor_rational_prime(K, 2)[0]
    v3 = factor_rational_prime(K, 3)[0]
    assert valuation(c, v2) == -1
    assert valuation(c, v3) == 1
    gen = principal_generator(FractionalIdeal.principal(K, c))
    assert gen == c


def test_norm_against_resultant_oracle():
    rng = random.Random(7)
    for text in ("x^2+5", "x^2-x-1", "x^3-2", "x^3+x+1"):
        K = field(text)
        for _ in range(8):
            coords = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(K.degree)]
            x = K.element(coords)
            if x.is_zero():
                continue
            gpoly = list(reversed(coords))
            want = resultant(K.min_poly.coeffs, gpoly)
            assert x.norm() == want


def test_inverse_and_division():
    rng = random.Random(19)
    K = field("x^3-2")
    for _ in range(10):
        x = K.element([rng.randint(-5, 5) for _ in range(3)])
        if x.is_zero():
            continue
        assert x * x.inverse() == K.one()
        y = K.element([rng.randint(-5, 5) for _ in range(3)])
        if not y.is_zero():
            assert (x * y) / y == x


def test_char_poly_and_generation():
    Ks = field("x^2-2*x+6")
    c = Ks.gen().scale(Fraction(1, 2))  # (1 + sqrt(-5)) / 2
    assert c.min_poly_over_q() == parse_poly("x^2-x+3/2")
    assert c.min_poly_over_q().degree == Ks.degree
    assert Ks.from_rational(7).min_poly_over_q().degree < Ks.degree
    assert Ks.from_rational(7).min_poly_over_q() == parse_poly("x-7")


SPLITTING_SQRT_MINUS_5 = {
    # p: sorted (e, f) pairs, hand-checked against quadratic residues mod p
    2: [(2, 1)],
    3: [(1, 1), (1, 1)],
    5: [(2, 1)],
    7: [(1, 1), (1, 1)],
    11: [(1, 2)],
    13: [(1, 2)],
    23: [(1, 1), (1, 1)],
}


def test_prime_splitting_frozen():
    for p, want in SPLITTING_SQRT_MINUS_5.items():
        got = sorted((P.e, P.f) for P in factor_rational_prime(K5, p))
        assert got == want, f"p={p}"
        assert sum(e * f for e, f in got) == 2


def test_valuations_frozen_sqrt_minus_5():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    p2, p3 = factor_rational_prime(K5, 3)
    # p2 is (3, 1 + t): t = -1 in its residue field
    assert valuation(K5.one() + t, p2) == 1
    assert valuation(K5.one() + t, p3) == 0
    assert valuation(K5.one() + t, p1) == 1
    c = (K5.one() + t).scale(Fraction(1, 2))
    assert valuation(c, p1) == -1
    assert valuation(c, p2) == 1
    assert valuation(c, p3) == 0
    assert valuation(K5.from_rational(2) - t, p2) == 2
    assert valuation(K5.from_rational(2) + t, p3) == 2
    assert valuation(K5.from_rational(7) + t, p2) == 3
    assert valuation(K5.from_rational(7) + t, p1) == 1


def test_product_formula():
    rng = random.Random(23)
    for text in ("x^2+5", "x^2-x-1", "x^2+1"):
        K = field(text)
        for _ in range(10):
            x = K.element(
                [Fraction(rng.randint(-9, 9), rng.choice([1, 2])) for _ in range(2)]
            )
            if x.is_zero():
                continue
            prod = Fraction(1)
            for P, v in element_valuations(x).items():
                prod *= Fraction(P.norm()) ** v
            assert prod == abs(x.norm())


def test_valuation_additive():
    rng = random.Random(31)
    p1 = factor_rational_prime(K5, 2)[0]
    p2 = factor_rational_prime(K5, 3)[0]
    for _ in range(20):
        x = K5.element([rng.randint(-8, 8), rng.randint(-8, 8)])
        y = K5.element([rng.randint(-8, 8), rng.randint(-8, 8)])
        if x.is_zero() or y.is_zero():
            continue
        for P in (p1, p2):
            assert valuation(x * y, P) == valuation(x, P) + valuation(y, P)


def test_anti_uniformizer_contract():
    for p in (2, 3, 7):
        for P in factor_rational_prime(K5, p):
            u = anti_uniformizer(product_inverse_ideal(P))
            assert valuation(u, P) == -1
            for Q in factor_rational_prime(K5, p):
                if Q != P:
                    assert valuation(u, Q) >= 0


def test_ideal_arithmetic():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    p2, p3 = factor_rational_prime(K5, 3)
    O = FractionalIdeal.ring_of_integers(K5)
    two = FractionalIdeal.principal(K5, K5.from_rational(2))
    three = FractionalIdeal.principal(K5, K5.from_rational(3))
    assert p1.ideal() * p1.ideal() == two
    assert p2.ideal() * p3.ideal() == three
    assert p1.ideal() * p2.ideal() == FractionalIdeal.principal(K5, K5.one() + t)
    assert p2.ideal() * p2.ideal() == FractionalIdeal.principal(K5, K5.from_rational(2) - t)
    assert ideal_index(O, p1.ideal()) == 2
    assert ideal_index(O, p2.ideal()) == 3
    assert ideal_index(p1.ideal(), two) == 2
    assert p1.power(-2) == FractionalIdeal.principal(K5, K5.from_rational(Fraction(1, 2)))
    assert p1.power(-1) * p1.power(3) == p1.power(2)
    assert (p2.ideal() * p1.ideal()).norm() == 6
    assert p1.power(-1).norm() == Fraction(1, 2)


def test_ideal_membership():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    I = p1.ideal()
    assert I.contains(K5.from_rational(2))
    assert I.contains(K5.one() + t)
    assert not I.contains(K5.one())
    assert not I.contains(t.scale(Fraction(1, 2)))
    O = FractionalIdeal.ring_of_integers(K5)
    assert O.contains(t)
    assert not O.contains(t.scale(Fraction(1, 2)))


def test_principal_generator_quadratic():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    assert principal_generator(p1.ideal()) is None
    I = FractionalIdeal.principal(K5, K5.one() + t)
    g = principal_generator(I)
    assert g is not None and FractionalIdeal.principal(K5, g) == I

    Ki = field("x^2+1")
    P = factor_rational_prime(Ki, 2)[0]
    g = principal_generator(P.ideal())
    assert g is not None and abs(g.norm()) == 2

    K2 = field("x^2-2")
    I = FractionalIdeal.principal(K2, K2.gen())
    g = principal_generator(I)
    assert g is not None and FractionalIdeal.principal(K2, g) == I

    # class numbers 2 and 3
    for text, p in (("x^2-10", 2), ("x^2-10", 3), ("x^2-79", 3), ("x^2-79", 5)):
        for P in factor_rational_prime(field(text), p):
            assert principal_generator(P.ideal()) is None, f"{text}: p={p} is non-principal"


# Every non-square d <= 42 (units of norm -1 at d = 2, 5, 10, 13, 17, 26,
# 29, 37, 41; discriminant d or 4d), and x^2-x-1, whose unit has trace 1.
# The box scan takes seconds or more for d = 43, 46, 67, 94.
BOX_SCAN_FIELDS = ["x^2-x-1"] + [f"x^2-{d}" for d in range(2, 43) if d not in (4, 9, 16, 25, 36)]


@pytest.mark.parametrize("text", BOX_SCAN_FIELDS)
def test_real_quadratic_generator_is_the_box_scan_pick(text):
    K = field(text)
    for I in prime_power_ideals(K):
        assert nfield._search_real_quadratic(I, I.norm()) == box_scan_generator(I), I


def prime_power_ideals(K: NumberField) -> list[FractionalIdeal]:
    """The primes above 2, 3, 5 and 7 and their squares, then a fractional
    ideal: the first times the last, scaled by 1/3."""
    ideals = []
    for p in (2, 3, 5, 7):
        for P in factor_rational_prime(K, p):
            ideals += [P.ideal(), P.ideal() * P.ideal()]
    return ideals + [ideals[0] * ideals[-1].scale(Fraction(1, 3))]


# D = -3, -4, -15, -20, -23, -191, then x^2+x+k for k <= 12 (D = 1 - 4k;
# k = 7 is Q(sqrt(-3)) again, through a non-maximal polynomial)
DEFINITE_FIELDS = ["x^2+x+1", "x^2+1", "x^2+x+4", "x^2+5", "x^2+x+6", "x^2+x+48"] + [
    f"x^2+x+{k}" for k in range(2, 13) if k not in (4, 6)
]


@pytest.mark.parametrize("text", DEFINITE_FIELDS)
def test_imaginary_quadratic_generator_is_the_box_scan_pick(text):
    K = field(text)
    for I in prime_power_ideals(K):
        assert nfield._search_imaginary_quadratic(I) == definite_scan_generator(I), I


small = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEFINITE_FIELDS), small, small, small, small, st.integers(1, 3))
def test_imaginary_quadratic_generator_on_small_ideals(text, a, b, c, d, den):
    # (x, y) with y possibly zero: principal ideals and the others
    K = field(text)
    x = K.element([a, b]).scale(Fraction(1, den))
    if x.is_zero():
        x = K.one()
    I = FractionalIdeal.from_elements(K, [x, K.element([c, d])])
    assert nfield._search_imaginary_quadratic(I) == definite_scan_generator(I), I


def test_principal_generator_sqrt_1009_is_the_scan_pick():
    # the scan's pick, not the balanced generator a of the ideal (a); the
    # box scan itself needs seconds here
    K = field("x^2-1009")
    g = principal_generator(FractionalIdeal.principal(K, K.gen()))
    assert g == K.element([17153, -540])


FUNDAMENTAL_UNITS = {
    # defining poly -> unit coordinates over the power basis
    "x^2-2": (1, 1),
    "x^2-3": (2, 1),
    "x^2-5": (Fraction(1, 2), Fraction(1, 2)),
    "x^2-6": (5, 2),
    "x^2-10": (3, 1),
    "x^2-13": (Fraction(3, 2), Fraction(1, 2)),
    "x^2-x-1": (0, 1),
}


def test_fundamental_units_frozen():
    for text, coords in FUNDAMENTAL_UNITS.items():
        K = field(text)
        u = fundamental_unit(K)
        assert u.power_coords() == tuple(Fraction(c) for c in coords), text
        assert abs(u.norm()) == 1


def test_fundamental_units_match_the_full_norm_loop():
    # both discriminant branches: D = 1 mod 4 gives omega = (1 + sqrt(D)) / 2;
    # and both defining polynomials of such a field, x^2-D and x^2-x-(D-1)/4
    squarefree = [D for D in range(2, 4000) if all(D % (p * p) for p in range(2, math.isqrt(D) + 1))]
    for D in squarefree:
        for text in [f"x^2-{D}"] + ([f"x^2-x-{(D - 1) // 4}"] if D % 4 == 1 else []):
            K = field(text)
            assert fundamental_unit(K) == norm_test_fundamental_unit(K), text


@settings(max_examples=300, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
def test_rho_walks_stay_within_the_proven_bounds(A, B, C):
    # docs/principalization.md, "How long a walk is": reduced within |C|
    # steps (definite) or |C| + 2 (indefinite), then a cycle of at most
    # D + sqrt(D) forms; _rho_walk raises past its cap
    D = B * B - 4 * A * C
    assume(D < 0 or math.isqrt(D) ** 2 != D)
    if D < 0 and A < 0:
        A, B, C = -A, -B, -C
    s = math.isqrt(max(D, 0))
    start, steps = None, 0
    for form, _, _ in nfield._rho_walk(A, B, C):
        a, b, c = form
        if start is None:
            if abs(b) <= a <= c if D < 0 else b <= s and 2 * abs(a) - b <= s < 2 * abs(a) + b:
                assert steps <= abs(C) + (2 if D > 0 else 0)
                if D < 0:
                    return
                start, steps = form, 0
        elif form == start:
            assert steps <= D + s
            return
        steps += 1


def test_dedekind_obstruction():
    # classic index-2 example: disc(f) = 4 * field disc
    K = field("x^3-x^2-2*x-8")
    with pytest.raises(IndexObstruction):
        factor_rational_prime(K, 2)
    got = sorted((P.e, P.f) for P in factor_rational_prime(K, 3))
    assert sum(e * f for e, f in got) == 3


def test_cubic_field_splitting():
    K = field("x^3-2")
    assert K.discriminant == -108
    table = {2: [(3, 1)], 3: [(3, 1)], 5: [(1, 1), (1, 2)], 31: [(1, 1), (1, 1), (1, 1)]}
    for p, want in table.items():
        assert sorted((P.e, P.f) for P in factor_rational_prime(K, p)) == want
    th = K.gen()
    P2 = factor_rational_prime(K, 2)[0]
    assert valuation(th, P2) == 1
    assert valuation(th.pow(3), P2) == 3


def test_reducible_poly_rejected():
    with pytest.raises(ValueError):
        field("x^2-1")
    with pytest.raises(ValueError):
        field("x^2-4*x+4")


def test_from_generators_matches_hnf():
    # the module generated by 2 and 1 + t inside Q(sqrt(-5)) is p1
    t = K5.gen()
    I = FractionalIdeal.from_elements(K5, [K5.from_rational(2), K5.one() + t])
    assert I == factor_rational_prime(K5, 2)[0].ideal()
    assert I.norm() == 2
