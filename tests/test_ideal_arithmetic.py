"""Integer ideal arithmetic against the Fraction route in tests/oracles.py.

The package multiplies ideals on integer structure constants and counts
v_P by divisibility of gamma * y; oracles.inverse_ideal inverts a prime
P as O + (gamma/p) O, the route the valuations rest on.  The Fraction
oracles multiply field elements with Fraction coordinates, invert P as
the product p^-1 * P^(e-1) * prod Q^(e_Q), and count valuations by
absorbing an anti-uniformizer.  Every ramified prime below has e >= 2,
so a gamma without its g_P^(e-1) factor fails here.
"""

import functools
import random
from fractions import Fraction

import pytest

from oracles import (
    absorption_valuation,
    anti_uniformizer,
    element,
    fraction_ideal_from_elements,
    fraction_ideal_product,
    ideal_from_elements,
    inverse_ideal,
    prime_power,
    product_inverse_ideal,
    valuation,
)
from solhom import nfield
from solhom.nfield import (
    FractionalIdeal,
    NumberField,
    element_valuations,
    factor_rational_prime,
)
from solhom.qpoly import parse_poly

# defining polynomial -> rational primes, degrees 1 to 5
PRIMES = {
    "x-1": (2, 3, 5),
    "x^2+5": (2, 3, 5, 7, 11),
    "x^2-2": (2, 3, 7),
    "x^2+3": (2, 3, 7),
    "x^2-x-1": (2, 5, 11),
    "x^2-79": (2, 3, 79),
    "x^3-2": (2, 3, 5, 31),
    "x^3-x-1": (5, 23, 59),
    "x^3-3": (2, 3),
    "x^4-x-1": (7, 17, 283),
    "x^4-2": (2, 3, 7),
    "x^5-x-1": (2, 19, 151),
    "x^5-2": (2, 5, 19),
}

# (field, p, largest e over p) that must stay in the table above
RAMIFIED = {
    ("x^2-2", 2, 2),
    ("x^2+3", 3, 2),
    ("x^3-2", 2, 3),
    ("x^3-2", 3, 3),
    ("x^3-x-1", 23, 2),
    ("x^4-x-1", 283, 2),
    ("x^4-2", 2, 4),
    ("x^5-x-1", 19, 2),
    ("x^5-x-1", 151, 2),
    ("x^5-2", 2, 5),
    ("x^5-2", 5, 5),
}

FIELDS = {text: NumberField(parse_poly(text)) for text in PRIMES}


def primes_of(text: str):
    K = FIELDS[text]
    return [P for p in PRIMES[text] for P in factor_rational_prime(K, p)]


@functools.cache
def oracle(text: str) -> dict:
    """P -> (P^-1 by the product route, an anti-uniformizer from it)."""
    out = {}
    for P in primes_of(text):
        inverse = product_inverse_ideal(P)
        out[P] = inverse, anti_uniformizer(inverse)
    return out


def random_elements(K: NumberField, rng: random.Random, count: int):
    out = []
    while len(out) < count:
        den = rng.choice([1, 1, 2, 3, 4, 9])
        x = element(K, [Fraction(rng.randint(-12, 12), den) for _ in range(K.degree)])
        if not x.is_zero():
            out.append(x)
    return out


def test_ramified_primes_are_covered():
    seen = {
        (text, P.p, max(Q.e for Q in factor_rational_prime(FIELDS[text], P.p)))
        for text in PRIMES
        for P in primes_of(text)
    }
    assert RAMIFIED <= seen
    assert {K.degree for K in FIELDS.values()} == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("text", list(PRIMES))
def test_prime_inverse_and_powers_match_fraction_route(text):
    O = FractionalIdeal.ring_of_integers(FIELDS[text])
    for P, (inverse, _) in oracle(text).items():
        assert inverse_ideal(P) == inverse, P
        assert prime_power(P, -1) * P.power(1) == O
        positive, negative = O, O
        for k in (1, 2, 3):
            positive = fraction_ideal_product(positive, P.ideal())
            negative = fraction_ideal_product(negative, inverse)
            assert P.power(k) == positive, (P, k)
            assert prime_power(P, -k) == negative, (P, -k)


@pytest.mark.parametrize("text", list(PRIMES))
def test_ideal_products_match_fraction_route(text):
    K = FIELDS[text]
    primes = primes_of(text)
    for i, P in enumerate(primes):
        for Q in primes[i:]:
            assert P.ideal() * Q.ideal() == fraction_ideal_product(P.ideal(), Q.ideal())
            inverse = oracle(text)[P][0]
            assert inverse_ideal(P) * Q.ideal() == fraction_ideal_product(inverse, Q.ideal())
    rng = random.Random(text)
    for _ in range(6):
        gens = random_elements(K, rng, rng.choice([1, 2]))
        assert ideal_from_elements(K, gens) == fraction_ideal_from_elements(K, gens)


@pytest.mark.parametrize("text", list(PRIMES))
def test_valuations_match_absorption_route(text):
    K = FIELDS[text]
    rng = random.Random(text)
    primes = primes_of(text)
    samples = random_elements(K, rng, 8)
    samples += [K.from_rational(P.p) for P in primes]
    samples += [P.second_gen for P in primes if not P.second_gen.is_zero()]
    samples += [x * x * x for x in samples[:3]]
    anti = {P: u for P, (_, u) in oracle(text).items()}
    for x in samples:
        # element_valuations agrees on every prime above the listed p
        listed = element_valuations(x)
        for P in primes:
            want = absorption_valuation(x, P, anti[P])
            assert valuation(x, P) == want, (x, P)
            assert listed.get(P, 0) == want, (x, P)


@pytest.mark.parametrize("text", list(PRIMES))
def test_gamma_valuations(text):
    # (p, gamma) = P^(e-1) * prod Q^(e_Q): v_P(gamma) = e - 1, v_Q >= e_Q
    anti = {P: u for P, (_, u) in oracle(text).items()}
    for P in primes_of(text):
        gamma = P.gamma
        assert absorption_valuation(gamma, P, anti[P]) == P.e - 1, P
        for Q in factor_rational_prime(P.field, P.p):
            if Q != P:
                assert absorption_valuation(gamma, Q, anti[Q]) >= Q.e, (P, Q)


@pytest.mark.parametrize("text, p", [("x^3-x-1", 23), ("x^3-2", 2), ("x^3-2", 3), ("x^4-2", 2)])
def test_prime_factoring_factors_f_mod_p_once(text, p, monkeypatch):
    # above degree 2 the Dedekind test and the Kummer-Dedekind factors
    # share one factorization of f mod p
    calls = []
    factor = nfield.factor_mod_p

    def counted(coeffs, q):
        calls.append((coeffs, q))
        return factor(coeffs, q)

    monkeypatch.setattr(nfield, "factor_mod_p", counted)
    K = FIELDS[text]
    primes = factor_rational_prime(K, p)
    assert calls == [(K.min_poly.int_coeffs(), p)]
    assert sum(P.e * P.f for P in primes) == K.degree
