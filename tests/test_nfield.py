"""Number field arithmetic against independent oracles and frozen data.

Element norms are checked against Sylvester resultants, valuations
against the product formula |N(x)| = prod N(P)^v_P(x), and the prime
splitting of small quadratic fields against hand-checked tables.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    QPoly,
    anti_uniformizer,
    basis_elements,
    basis_inverse_gen,
    basis_rat,
    box_scan_generator,
    contains_box_generator,
    definite_scan_generator,
    element,
    element_pow,
    fraction_box_bound,
    ideal_contains,
    ideal_from_elements,
    ideal_from_matrix,
    ideal_index,
    inverse_ideal,
    is_checked_matrix,
    norm_test_fundamental_unit,
    omega,
    prime_power,
    principal_ideal,
    product_inverse_ideal,
    quotient,
    resultant,
    scaled_ideal,
    valuation,
)
from record_answer_reports import answer_inputs
from solhom import nfield
from solhom.errors import IndexObstruction, InternalCheckError, SolhomError
from solhom.intfactor import is_prime
from solhom.nfield import (
    FractionalIdeal,
    NfElement,
    NumberField,
    PrimeIdeal,
    element_valuations,
    factor_rational_prime,
    fundamental_unit,
    principal_generator,
)
from solhom.cli import build_report
from solhom.places import build_system
from solhom.qpoly import Poly, clear_to_monic_integer, parse_poly


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
    omega = element(Ks, basis_rat(Ks).column(1))
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
    gen = principal_generator(principal_ideal(K, c))
    assert gen == c


def test_norm_against_resultant_oracle():
    rng = random.Random(7)
    for text in ("x^2+5", "x^2-x-1", "x^3-2", "x^3+x+1"):
        K = field(text)
        for _ in range(8):
            coords = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(K.degree)]
            x = element(K, coords)
            if x.is_zero():
                continue
            gpoly = list(reversed(coords))
            want = resultant(K.min_poly.coeffs, gpoly)
            assert x.norm() == want


def test_inverse_and_division():
    rng = random.Random(19)
    K = field("x^3-2")
    for _ in range(10):
        x = element(K, [rng.randint(-5, 5) for _ in range(3)])
        if x.is_zero():
            continue
        assert x * x.inverse() == K.one()
        y = element(K, [rng.randint(-5, 5) for _ in range(3)])
        if not y.is_zero():
            assert quotient(x * y, y) == x


def test_char_poly_and_generation():
    Ks = field("x^2-2*x+6")
    c = Ks.gen().scale(Fraction(1, 2))  # (1 + sqrt(-5)) / 2
    assert c.min_poly_over_q() == parse_poly("x^2-x+3/2")
    assert c.min_poly_over_q().degree == Ks.degree
    assert Ks.from_rational(7).min_poly_over_q().degree < Ks.degree
    assert Ks.from_rational(7).min_poly_over_q() == parse_poly("x-7")


def test_min_poly_is_the_fraction_squarefree_part_of_the_char_poly():
    # theta^2 and theta^2 + theta^4 / 3 lie in the subfield Q(sqrt 2) of
    # Q(2^(1/4)), so their characteristic polynomials are squares
    K = field("x^4-2")
    theta = K.gen()
    sqrt2 = theta.pow(2)
    assert sqrt2.min_poly_over_q() == parse_poly("x^2-2")
    assert (sqrt2 + theta.pow(4).scale(Fraction(1, 3))).min_poly_over_q() == parse_poly("x^2-4/3*x-14/9")
    rng = random.Random(11)
    for _ in range(30):
        a, b, c, d = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        # of degree 1 or 2 (a + b sqrt 2), and of degree 4 unless c = d = 0
        for y in (element(K, [a, 0, b, 0]), element(K, [a, c, b, d])):
            if y.is_zero():
                continue
            want = QPoly(y.char_poly_over_q().coeffs).squarefree_part()
            assert y.min_poly_over_q() == want


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
            x = element(K,
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
        x = element(K5, [rng.randint(-8, 8), rng.randint(-8, 8)])
        y = element(K5, [rng.randint(-8, 8), rng.randint(-8, 8)])
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
    two = principal_ideal(K5, K5.from_rational(2))
    three = principal_ideal(K5, K5.from_rational(3))
    assert p1.ideal() * p1.ideal() == two
    assert p2.ideal() * p3.ideal() == three
    assert p1.ideal() * p2.ideal() == principal_ideal(K5, K5.one() + t)
    assert p2.ideal() * p2.ideal() == principal_ideal(K5, K5.from_rational(2) - t)
    assert ideal_index(O, p1.ideal()) == 2
    assert ideal_index(O, p2.ideal()) == 3
    assert ideal_index(p1.ideal(), two) == 2
    assert prime_power(p1, -2) == principal_ideal(K5, K5.from_rational(Fraction(1, 2)))
    assert prime_power(p1, -1) * p1.power(3) == p1.power(2)
    assert (p2.ideal() * p1.ideal()).norm() == 6
    assert prime_power(p1, -1).norm() == Fraction(1, 2)


def test_ideal_membership():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    I = p1.ideal()
    assert ideal_contains(I, K5.from_rational(2))
    assert ideal_contains(I, K5.one() + t)
    assert not ideal_contains(I, K5.one())
    assert not ideal_contains(I, t.scale(Fraction(1, 2)))
    O = FractionalIdeal.ring_of_integers(K5)
    assert ideal_contains(O, t)
    assert not ideal_contains(O, t.scale(Fraction(1, 2)))


def test_principal_generator_quadratic():
    t = K5.gen()
    p1 = factor_rational_prime(K5, 2)[0]
    assert principal_generator(p1.ideal()) is None
    I = principal_ideal(K5, K5.one() + t)
    g = principal_generator(I)
    assert g is not None and principal_ideal(K5, g) == I

    Ki = field("x^2+1")
    P = factor_rational_prime(Ki, 2)[0]
    g = principal_generator(P.ideal())
    assert g is not None and abs(g.norm()) == 2

    K2 = field("x^2-2")
    I = principal_ideal(K2, K2.gen())
    g = principal_generator(I)
    assert g is not None and principal_ideal(K2, g) == I

    # class numbers 2 and 3
    for text, p in (("x^2-10", 2), ("x^2-10", 3), ("x^2-79", 3), ("x^2-79", 5)):
        for P in factor_rational_prime(field(text), p):
            assert principal_generator(P.ideal()) is None, f"{text}: p={p} is non-principal"


def signed(x):
    """The scan's pick under principal_generator's sign rule: the first
    nonzero integral coordinate positive."""
    return x if x is None or next(c for c in x.num if c) > 0 else -x


# Every non-square d <= 42 (units of norm -1 at d = 2, 5, 10, 13, 17, 26,
# 29, 37, 41; discriminant d or 4d), and x^2-x-1, whose unit has trace 1.
# The box scan takes seconds or more for d = 43, 46, 67, 94.
BOX_SCAN_FIELDS = ["x^2-x-1"] + [f"x^2-{d}" for d in range(2, 43) if d not in (4, 9, 16, 25, 36)]


@pytest.mark.parametrize("text", BOX_SCAN_FIELDS)
def test_real_quadratic_generator_is_the_box_scan_pick(text):
    K = field(text)
    for I in prime_power_ideals(K):
        assert principal_generator(I) == signed(box_scan_generator(I)), I


# BOX_SCAN_FIELDS and more, with defining polynomials of non-maximal
# orders (x^2-4d, x^2+2x-d+1), whose root bound and basis differ
@pytest.mark.parametrize(
    "text", BOX_SCAN_FIELDS + ["x^2-1009", "x^2-79", "x^2-316", "x^2+2*x-78", "x^2-x-252", "x^2-20"]
)
def test_integer_box_bound_is_the_fraction_bound(text):
    K = field(text)
    for I in prime_power_ideals(K):
        for J in (I, I * I * I, scaled_ideal(I, Fraction(5, 6))):
            assert nfield._box_bound(J) == fraction_box_bound(J), J


@pytest.mark.parametrize("text", ["x^2-x-1", "x^2-7", "x^2-10"])
def test_lattice_coords_reads_members_and_refuses_the_rest(text):
    K = field(text)
    for I in prime_power_ideals(K):
        u1, u2 = basis_elements(I)
        x = u1.scale(3) - u2.scale(2)
        assert nfield._lattice_coords(I, x.num, x.den) == (3, -2)
        # half of a basis vector is off the lattice in that coordinate only
        for half in (u1.scale(Fraction(1, 2)), u2.scale(Fraction(1, 2)) + u1):
            with pytest.raises(InternalCheckError, match="left the ideal lattice"):
                nfield._lattice_coords(I, half.num, half.den)


def prime_power_ideals(K: NumberField) -> list[FractionalIdeal]:
    """The primes above 2, 3, 5 and 7 and their squares, then a fractional
    ideal: the first times the last, scaled by 1/3."""
    ideals = []
    for p in (2, 3, 5, 7):
        for P in factor_rational_prime(K, p):
            ideals += [P.ideal(), P.ideal() * P.ideal()]
    return ideals + [ideals[0] * scaled_ideal(ideals[-1], Fraction(1, 3))]


# D = -3, -4, -15, -20, -23, -191, then x^2+x+k for k <= 12 (D = 1 - 4k;
# k = 7 is Q(sqrt(-3)) again, through a non-maximal polynomial)
DEFINITE_FIELDS = ["x^2+x+1", "x^2+1", "x^2+x+4", "x^2+5", "x^2+x+6", "x^2+x+48"] + [
    f"x^2+x+{k}" for k in range(2, 13) if k not in (4, 6)
]


def check_definite_generator(I: FractionalIdeal) -> None:
    """principal_generator finds a generator exactly when the scan does:
    one of I's norm that generates I (the same HNF), under the sign rule,
    and the scan's pick times a root of unity, whose twelfth power is 1
    in every imaginary quadratic field."""
    g, scan = principal_generator(I), definite_scan_generator(I)
    assert (g is None) == (scan is None), I
    if g is not None:
        assert abs(g.norm()) == I.norm() and principal_ideal(I.field, g) == I, I
        assert signed(g) == g, I
        assert (g * scan.inverse()).pow(12) == I.field.one(), I


@pytest.mark.parametrize("text", DEFINITE_FIELDS)
def test_imaginary_quadratic_generator_is_the_box_scan_pick(text):
    # up to a root of unity: Q(i) and Q(sqrt(-3)) take the reduced
    # form's v1 under the sign rule, not the scan's least (b, a)
    K = field(text)
    for I in prime_power_ideals(K):
        check_definite_generator(I)


small = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEFINITE_FIELDS), small, small, small, small, st.integers(1, 3))
def test_imaginary_quadratic_generator_on_small_ideals(text, a, b, c, d, den):
    # (x, y) with y possibly zero: principal ideals and the others
    K = field(text)
    x = element(K, [a, b]).scale(Fraction(1, den))
    if x.is_zero():
        x = K.one()
    check_definite_generator(ideal_from_elements(K, [x, element(K, [c, d])]))


def test_principal_generator_sqrt_1009_is_the_scan_pick():
    # the scan's pick, not the balanced generator a of the ideal (a); the
    # box scan itself needs seconds here
    K = field("x^2-1009")
    g = principal_generator(principal_ideal(K, K.gen()))
    assert g == element(K, [17153, -540])


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
    I = ideal_from_elements(K5, [K5.from_rational(2), K5.one() + t])
    assert I == factor_rational_prime(K5, 2)[0].ideal()
    assert I.norm() == 2


# one field of each degree 1..5
MULT_FIELDS = [field(text) for text in ("x-3", "x^2-x-1", "x^2+5", "x^3-x-1", "x^4-x-1", "x^5-x-1")]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(MULT_FIELDS).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.lists(st.integers(-9, 9), min_size=K.degree, max_size=K.degree),
            st.integers(1, 6),
            st.integers(1, 4),
        )
    )
)
def test_multiplication_columns_and_their_matrices(case):
    K, a, den, s = case
    d = K.degree
    assert K._mult_columns(a) == [K._mul_int(a, [int(i == j) for i in range(d)]) for j in range(d)]
    A, m = NfElement(K, a, den).mult_pair()
    assert is_checked_matrix(A)
    assume(any(a))
    assert is_checked_matrix(ideal_from_matrix(K, A.scale(s), den).num)


POW_FIELDS = [field(text) for text in ("x-3", "x^2+5", "x^2-x-1", "x^3-2", "x^4-x-1")]


@pytest.mark.parametrize("K", POW_FIELDS, ids=repr)
def test_pow_matches_repeated_multiplication(K, monkeypatch):
    rng = random.Random(K.degree)
    x = element(K, [Fraction(rng.choice([-5, -2, 3, 7]), rng.randint(1, 3)) for _ in range(K.degree)])
    products = []
    mul = NfElement.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(NfElement, "__mul__", counted)
    for e in range(-4, 10):
        base = x if e >= 0 else x.inverse()
        want = K.one()
        for _ in range(abs(e)):
            want = mul(want, base)
        products.clear()
        # a negative power is the oracle's, the inverse's power in the package
        assert element_pow(x, e) == want
        # a square per bit after the first, a product per further set bit
        n = abs(e)
        assert len(products) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)
    assert x.pow(1) is x
    with pytest.raises(ValueError):
        x.pow(-1)


# fields of degree 1..5; below p = 50 each degree from 2 up has an inert
# prime, whose g_P(omega) is read as (g_P - omega_poly)(omega)
LIFT_FIELDS = [
    field(text)
    for text in (
        "x-3", "x^2+5", "x^2-x-1", "x^2-2", "x^3-2", "x^3-x-1", "x^4-x-1", "x^4-2", "x^5-x-1", "x^5-2"
    )
]


def test_prime_generators_and_discriminants_are_their_coordinates():
    inert_degrees = set()
    for K in LIFT_FIELDS:
        w = omega(K)
        g_prime = K.evaluate(QPoly(K.omega_poly.coeffs).derivative(), w)
        assert K.discriminant == (-1) ** (K.degree * (K.degree - 1) // 2) * g_prime.norm()
        assert K.omega_coeffs == K.omega_poly.int_coeffs()
        for p in range(2, 51):
            if not is_prime(p):
                continue
            try:
                primes = factor_rational_prime(K, p)
            except IndexObstruction:
                continue
            for P in primes:
                lift = Poly(list(reversed(P.gen_poly_mod_p)))
                assert P.second_gen == K.evaluate(lift, w)
                if P.f == K.degree:
                    inert_degrees.add(K.degree)
    assert inert_degrees == {1, 2, 3, 4, 5}


# squarefree m of each residue mod 4 (Python's, so -3 = 1 mod 4), both signs
SQUAREFREE = [-23, -15, -7, -3, -1, -2, -5, -6, -10, 2, 3, 5, 6, 7, 10, 13, 17, 21, 79]


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from(SQUAREFREE), u=st.integers(1, 12), k=st.integers(-15, 15))
@example(m=5, u=1, k=0)  # x^2 + x - 1: squarefree discriminant 5
@example(m=-3, u=3, k=2)  # x^2 + 5x + 13: disc -27, m = 1 mod 4
@example(m=-1, u=1, k=0)  # x^2 + 1: disc -4, m = 3 mod 4
@example(m=2, u=3, k=-3)  # x^2 - 6x - 9: disc 72, m = 2 mod 4
def test_gen_is_the_basis_inverse_of_e1_in_quadratic_fields(m, u, k):
    # x^2 + b x + c with disc = b^2 - 4c = u^2 m needs b = u mod 2 when
    # m = 1 mod 4, and u and b even otherwise
    if m % 4 != 1:
        u *= 2
    b = 2 * k + u % 2
    c = (b * b - u * u * m) // 4
    K = NumberField(Poly([1, b, c]))
    assert K.gen() == basis_inverse_gen(K)
    assert K.gen().power_coords() == (0, 1)


@pytest.mark.parametrize("text", ["x-3", "x+7", "x^3-2", "x^3-x^2-2*x-8", "x^4-2", "x^5-3"])
def test_gen_is_the_basis_inverse_of_e1_outside_degree_2(text):
    K = field(text)
    assert K.gen() == basis_inverse_gen(K)
    theta = [-K.min_poly.coeffs[1]] if K.degree == 1 else [0, 1] + [0] * (K.degree - 2)
    assert K.gen().power_coords() == tuple(theta)


# the primes whose P, P^-1 and P^2 are searched, per field; degree 5 stops
# below 7, where the scan runs the whole box for P^2 in seconds
BOX_FIELDS = {"x^3-2": (2, 3, 5, 7, 11), "x^3-5/4": (2, 3, 5, 7, 11), "x^4-2": (2, 3, 5, 7), "x^5-3": (2, 3, 5)}


@pytest.mark.parametrize("text", sorted(BOX_FIELDS))
def test_box_search_is_the_scan_that_checks_membership(text):
    K = NumberField(clear_to_monic_integer(parse_poly(text))[0])
    ideals = [principal_ideal(K, (K.gen() - K.one()).scale(Fraction(1, 2)))]
    for p in BOX_FIELDS[text]:
        try:
            primes = factor_rational_prime(K, p)
        except IndexObstruction:
            continue
        ideals += [J for P in primes for J in (P.ideal(), inverse_ideal(P), P.power(2))]
    found = [principal_generator(I) for I in ideals]
    assert found == [contains_box_generator(I) for I in ideals]
    assert all(x is None or principal_ideal(K, x) == I for x, I in zip(found, ideals))
    assert any(x is not None for x in found)
    if text.startswith("x^3"):
        assert None in found  # P^2 over 11 is outside the box


@functools.cache
def cubic_primes(text: str) -> tuple:
    """The primes over 2 ... 19 of the cubic field of text that factor."""
    K = NumberField(clear_to_monic_integer(parse_poly(text))[0])
    primes = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        try:
            primes += factor_rational_prime(K, p)
        except IndexObstruction:
            continue
    return tuple(primes)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_drawn_cubic_ideals_hit_and_miss_the_box_as_the_scan_does(data):
    # products of up to three prime powers: the larger norms mostly miss
    # the box, and a miss must be a miss of the scan too
    primes = cubic_primes(data.draw(st.sampled_from(["x^3-2", "x^3-x-1", "x^3-3"]), label="field"))
    factors = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3), label="primes")
    I = functools.reduce(
        lambda J, P: J * P.power(data.draw(st.integers(1, 3), label="exponent")), factors[1:],
        factors[0].power(data.draw(st.integers(1, 3), label="exponent")),
    )
    assert principal_generator(I) == contains_box_generator(I)


def test_a_cubic_box_miss_takes_one_norm_per_combination(monkeypatch):
    # the boxes of radius 1, 2, 3 hold 7^3 = 343 combinations, each tried
    # once since the inner box of each radius was tried at the radius
    # below it; the zero combination lies inside the radius-1 box
    P = next(P for P in cubic_primes("x^3-2") if P.p == 5 and P.f == 2)
    I = P.power(3)
    norms = []
    integer_norm = NumberField.integer_norm

    def counted(field, num):
        norms.append(tuple(num))
        return integer_norm(field, num)

    monkeypatch.setattr(NumberField, "integer_norm", counted)
    assert principal_generator(I) is None
    assert len(norms) == len(set(norms)) == 342
    monkeypatch.undo()
    assert contains_box_generator(I) is None


@functools.cache
def answer_fields() -> tuple[NumberField, ...]:
    """The distinct fields of the answer inputs that build a system."""
    fields = {}
    for _, poly, _ in answer_inputs():
        try:
            K = build_system(poly).field
        except SolhomError:
            continue
        fields[repr(K)] = K
    return tuple(fields[key] for key in sorted(fields))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_norm_is_the_determinant_of_the_multiplication_matrix(data):
    # a degree first, so the few cubic and quartic fields are drawn often
    fields = answer_fields()
    degrees = sorted({K.degree for K in fields})
    assert degrees == [1, 2, 3, 4]
    degree = data.draw(st.sampled_from(degrees), label="degree")
    K = data.draw(st.sampled_from([K for K in fields if K.degree == degree]), label="field")
    coords = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=K.degree, max_size=K.degree))
    x = NfElement(K, coords, data.draw(st.integers(1, 50), label="den"))
    det = x.mult_pair()[0].det()
    assert K.integer_norm(x.num) == det
    assert x.norm() == Fraction(det, x.den**K.degree)


def primes_below(K: NumberField, bound: int) -> list[PrimeIdeal]:
    """Every prime of K over p < bound where Kummer-Dedekind applies."""
    out = []
    for p in filter(is_prime, range(2, bound)):
        try:
            out += factor_rational_prime(K, p)
        except IndexObstruction:
            continue
    return out


def kummer_dedekind_basis_holds(P: PrimeIdeal) -> bool:
    """P.ideal(), built from the Z-basis p w^i, w^j g_P(w), is the module
    (p, g_P(w)) of the two-generator route, and has norm p^f."""
    K = P.field
    I = P.ideal()
    return I == ideal_from_elements(K, [K.from_rational(P.p), P.second_gen]) and I.norm() == P.p**P.f


def with_lift_plus_one(P: PrimeIdeal) -> PrimeIdeal:
    """P with its lift g mutated to g + 1, everything else kept."""
    g = (P.gen_poly_mod_p[0] + 1,) + tuple(P.gen_poly_mod_p[1:])
    return PrimeIdeal(P.field, P.p, P.second_gen, P.e, P.f, g, P.gamma)


def prime_kind(P: PrimeIdeal) -> set[str]:
    d = P.field.degree
    kinds = {"degree 1"} if d == 1 else set()
    if P.e >= 2:
        kinds.add("ramified")
    if 2 <= P.f < d:
        kinds.add("residue degree between 2 and d - 1")
    if P.f == d >= 2:
        kinds.add("inert")
    return kinds


def test_prime_ideals_are_their_kummer_dedekind_basis():
    kinds, checked = set(), 0
    x3_2 = field("x^3-2")
    for K in answer_fields() + (x3_2,):
        for P in primes_below(K, 60):
            assert kummer_dedekind_basis_holds(P), P
            kinds |= prime_kind(P)
            checked += 1
            if P.f < K.degree:
                # the basis has a w^j g_P(w) column, which the mutation moves off P
                assert not kummer_dedekind_basis_holds(with_lift_plus_one(P)), P
    assert kinds == {"degree 1", "ramified", "residue degree between 2 and d - 1", "inert"}
    assert any(P.p == 5 and P.f == 2 for P in factor_rational_prime(x3_2, 5))
    assert checked > 100


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=3))
def test_drawn_quadratic_and_cubic_primes_are_their_kummer_dedekind_basis(tail):
    try:
        K = NumberField(Poly([1] + tail))
    except ValueError:
        assume(False)  # reducible
    for P in primes_below(K, 60):
        assert kummer_dedekind_basis_holds(P), P
        if P.f < K.degree:
            assert not kummer_dedekind_basis_holds(with_lift_plus_one(P)), P


def test_gamma_matrix_is_built_once_per_prime(monkeypatch):
    # over whole reports, both sides: each prime element_valuations makes
    # is valued once, so gamma's multiplication matrix is built at most once
    primes, calls = [], {}
    init, mult_pair = PrimeIdeal.__init__, NfElement.mult_pair

    def recorded_init(self, *args):
        init(self, *args)
        primes.append(self)

    def counted_mult_pair(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return mult_pair(self)

    monkeypatch.setattr(PrimeIdeal, "__init__", recorded_init)
    monkeypatch.setattr(NfElement, "mult_pair", counted_mult_pair)
    for poly in ("x^2+x+15/2", "x^2-x+5/6", "x^3-x/4-1/8", "x-3/2", "x^3-2"):
        primes.clear()
        calls.clear()
        sys_ = build_system(poly)
        build_report(sys_, 6)
        assert primes, poly
        assert all(calls.get(id(P.gamma), 0) <= 1 for P in primes), poly


def test_fields_compare_by_identity_first(monkeypatch):
    K, L = field("x^2+5"), field("x^2+5")
    assert K == L and hash(K) == hash(L) and K != field("x^2+6")
    # a field equals itself without comparing Fractions, and its hash is
    # computed once
    monkeypatch.setattr(Poly, "__eq__", lambda *_: pytest.fail("compared min_poly"))
    monkeypatch.setattr(Poly, "__hash__", lambda *_: pytest.fail("hashed min_poly"))
    assert K == K and hash(K) == hash(L)
    assert {P: 1 for P in factor_rational_prime(K, 3)}


@pytest.mark.parametrize("q", [0, 1, -7, 10**30, Fraction(3, 2), Fraction(-10, 4), "5/6", True])
def test_from_rational_matches_the_fraction_route(q):
    K = field("x^3-2")
    x = K.from_rational(q)
    fq = Fraction(q)
    assert (x.num, x.den) == ((fq.numerator, 0, 0), fq.denominator)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
