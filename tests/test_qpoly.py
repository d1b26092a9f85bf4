"""The Poly value, parsing, clearing, mod-p factorization, and the
Fraction arithmetic of the QPoly reference route in tests/oracles.py."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from solhom import qpoly
from solhom.errors import ParseError
from solhom.intfactor import factorint
from solhom.qpoly import (
    Poly,
    _divisors_signed,
    clear_to_monic_integer,
    factor_mod_p,
    is_irreducible_mod_p,
    is_irreducible_over_q,
    parse_poly,
)
from oracles import QPoly, fraction_clear_to_monic_integer, fraction_pretty, parse_rational, poly_dedekind_index_free, poly_eval, resultant, reversed_poly


def test_parse_basic_polys():
    assert parse_poly("x^2 - x - 1") == Poly([1, -1, -1])
    assert parse_poly("x**2 - x - 1") == Poly([1, -1, -1])
    assert parse_poly("(1 + x)/2") == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert parse_poly("-x") == Poly([-1, 0])
    assert parse_poly("(x + 1)^3") == Poly([1, 3, 3, 1])
    assert parse_poly("2*x*x + 1") == Poly([2, 0, 1])
    assert parse_poly("  3 / 2  ") == Poly([Fraction(3, 2)])


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-(1/4 + 1)") == Fraction(-5, 4)
    with pytest.raises(ParseError):
        parse_rational("x + 1")


@pytest.mark.parametrize("bad", ["2x", "1/0", "x/x", "x^-1", "x +", "(x", "x$", ""])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as info:
        parse_poly(bad)
    if bad == "1/0":
        # the zero polynomial has degree -1, so it is caught before the degree test
        assert str(info.value) == "division by zero"


# (text, coefficients in descending degree), as the parser has always read them
PARSE_TABLE = [
    ("x^3", [1, 0, 0, 0]),
    ("x**3", [1, 0, 0, 0]),
    ("2^3", [8]),
    ("2**3*x", [8, 0]),
    ("(x+1)^2", [1, 2, 1]),
    ("(x+1)**2", [1, 2, 1]),
    ("-(x-1)*(x+1)", [-1, 0, 1]),
    ("--x", [1, 0]),
    ("-x^2", [-1, 0, 0]),
    ("- -x", [1, 0]),
    ("+x", [1, 0]),
    ("x/2 + 1/3", ["1/2", "1/3"]),
    ("(x^2 - 1)/(3/2)", ["2/3", 0, "-2/3"]),
    ("x/(1/2)/4", ["1/2", 0]),
    ("x - x", [0]),
    ("(x-x)*x", [0]),
    ("x^0", [1]),
    ("0^0", [1]),
    ("0*x + 5", [5]),
    ("3*x*x/6", ["1/2", 0, 0]),
    ("-3/-4", ["3/4"]),
    ("(((x)))", [1, 0]),
    ("  x  ^ 2  - 3 ", [1, 0, -3]),
    # ** binds to its atom alone, as ^ does, not to the product before it
    ("2*x**2", [2, 0, 0]),
    ("x**3-2*x**2-1", [1, -2, 0, -1]),
    ("x/2**2", ["1/4", 0]),
    ("3*x**2/2", ["3/2", 0, 0]),
]


@pytest.mark.parametrize("text, expected", PARSE_TABLE)
def test_parse_table(text, expected):
    f = parse_poly(text)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs == tuple(Fraction(c) for c in expected)


# (text, the ParseError message), as the parser has always worded them
PARSE_ERROR_TABLE = [
    ("x/0", "division by zero"),
    ("x/(x-x)", "division by zero"),
    ("1/x", "division by a non-constant"),
    ("x/(x+1)", "division by a non-constant"),
    ("3x", "trailing input at position 1; products need '*', so write 3*x"),
    ("2(x+1)", "trailing input at position 1; products need '*', so write 2*(x+1)"),
    ("x 3", "trailing input at position 2; products need '*', so write x*3"),
    ("x(x+1)", "trailing input at position 1; products need '*', so write x*(x+1)"),
    ("x x", "trailing input at position 2; products need '*', so write x*x"),
    ("2/3x", "trailing input at position 3; products need '*', so write 2/3*x"),
    ("(x+1", "unbalanced parentheses"),
    ("x)", "trailing input at position 1"),
    ("x^2^2", "trailing input at position 3"),
    ("x^", "exponent must be a nonnegative integer"),
    ("x^-1", "exponent must be a nonnegative integer"),
    ("x**y", "exponent must be a nonnegative integer"),
    ("x*/2", "unexpected character '/'"),
    ("y", "unexpected character 'y'"),
    ("", "unexpected end of expression"),
    ("x+", "unexpected end of expression"),
    ("x^\u00b2", "invalid literal for int() with base 10: '\u00b2'"),
    ("x**2**2", "unexpected character '*'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERROR_TABLE)
def test_parse_error_table(text, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert str(info.value) == message


def test_poly_divmod_and_gcd():
    f = QPoly([1, 0, -7, 6])  # (x-1)(x-2)(x+3)
    g = QPoly([1, -1])
    q, r = divmod(f, g)
    assert r.is_zero()
    assert q * g == f
    assert f.gcd(Poly([1, -3, 2])) == Poly([1, -3, 2])  # (x-1)(x-2)


def test_squarefree_part():
    f = QPoly([1, -1]) * QPoly([1, -1]) * QPoly([1, 2])
    assert f.squarefree_part() == Poly([1, 1, -2])


@pytest.mark.parametrize(
    "text,cleared,scale",
    [
        ("x^2 - x - 1", [1, -1, -1], 1),
        ("x - 3/2", [1, -3], 2),
        ("2*x^2 - 1", [1, 0, -2], 2),
        ("x^2 - x/2 - 1/4", [1, -1, -1], 2),
        ("x^3 - 1/4", [1, 0, 0, -2], 2),
    ],
)
def test_clear_to_monic_integer(text, cleared, scale):
    h, s = clear_to_monic_integer(parse_poly(text))
    assert h == Poly(cleared)
    assert s == scale


def test_clear_is_minimal():
    # s=2 works for x^2 - 1/2 but s=1 must be chosen for integer input
    h, s = clear_to_monic_integer(Poly([1, 0, -2]))
    assert (h, s) == (Poly([1, 0, -2]), 1)


rational = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(st.lists(rational, min_size=2, max_size=6))
def test_clearing_and_monic_match_the_fraction_route(coeffs):
    f = Poly(coeffs)
    assume(f.degree >= 1)
    assert clear_to_monic_integer(f) == fraction_clear_to_monic_integer(f)
    h, _ = clear_to_monic_integer(f)
    assert all(type(c) is Fraction and c.denominator == 1 for c in h.coeffs)
    lead = f.coeffs[0]
    assert f.monic() == Poly([c / lead for c in f.coeffs])
    # an already monic polynomial is its own monic form, nothing divided
    m = f.monic()
    assert m.monic() is m


def test_zero_test_reads_the_leading_coefficient():
    assert Poly([0]).is_zero() and Poly([0, 0, 0]).is_zero() and Poly([]).is_zero()
    assert Poly([0]).degree == -1
    for coeffs in ([1], [Fraction(-1, 3)], [0, 0, 2, 0], [Fraction(1, 10**20), 0]):
        assert not Poly(coeffs).is_zero()
        assert Poly(coeffs).degree == len(Poly(coeffs).coeffs) - 1


def _reassemble(factors, p, degree):
    acc = [1]
    for coeffs_asc, mult in factors:
        for _ in range(mult):
            out = [0] * (len(acc) + len(coeffs_asc) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(coeffs_asc):
                    out[i + j] = (out[i + j] + a * b) % p
            acc = out
    assert len(acc) - 1 == degree
    return acc


@pytest.mark.parametrize(
    "coeffs,p",
    [
        ([1, 0, 5], 3),  # (x+1)(x+2) mod 3
        ([1, 0, 5], 11),  # irreducible
        ([1, 0, 0], 5),  # x^2
        ([1, 0, 1], 2),  # (x+1)^2 mod 2
        ([1, 1, 1], 2),  # irreducible mod 2
        ([1, 0, 1, 1], 2),
        ([1, 0, -1], 7),
        ([1, 3, 0, 0, 4], 5),
        ([3, 4], 7),  # linear, made monic
    ],
)
def test_factor_mod_p_reassembles(coeffs, p):
    factors = factor_mod_p(coeffs, p)
    expect = [c % p for c in reversed(coeffs)]
    # normalize monic
    inv = pow(expect[-1], -1, p)
    expect = [c * inv % p for c in expect]
    assert _reassemble(factors, p, len(coeffs) - 1) == expect
    for f_asc, _ in factors:
        assert f_asc[-1] == 1  # monic
        assert is_irreducible_mod_p(tuple(reversed(f_asc)), p)


def test_factor_mod_p_random_reassembly():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 13])
        deg = rng.randint(1, 6)
        coeffs = [1] + [rng.randrange(p) for _ in range(deg)]
        factors = factor_mod_p(coeffs, p)
        assert _reassemble(factors, p, deg) == [c % p for c in reversed(coeffs)]


def _irreducible_mod_2(f_asc) -> bool:
    """No factor of degree 1 .. deg/2 over F_2, by trial division of every
    candidate, with polynomials as bit masks."""
    f = sum(c << i for i, c in enumerate(f_asc))
    for g in range(2, 1 << ((len(f_asc) - 1) // 2 + 1)):
        r = f
        while r.bit_length() >= g.bit_length():
            r ^= g << (r.bit_length() - g.bit_length())
        if r == 0:
            return False
    return True


@pytest.mark.parametrize(
    "factors_asc",
    [
        ((1, 1, 0, 1), (1, 0, 1, 1)),  # (x^3 + x + 1)(x^3 + x^2 + 1)
        ((1, 1, 0, 0, 1), (1, 0, 0, 1, 1)),  # (x^4 + x + 1)(x^4 + x^3 + 1)
    ],
    ids=["two-cubics", "two-quartics"],
)
def test_factor_mod_2_equal_degree_split_runs_zip_pad(factors_asc, monkeypatch):
    # both factors have the same degree, so distinct-degree factoring leaves
    # their product to the p = 2 trace split, which adds with _zip_pad
    calls = []
    original = qpoly._zip_pad

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(qpoly, "_zip_pad", counted)
    degree = sum(len(f) - 1 for f in factors_asc)
    product = _reassemble([(f, 1) for f in factors_asc], 2, degree)
    factors = factor_mod_p(list(reversed(product)), 2)
    assert calls
    assert sorted(f for f, _ in factors) == sorted(factors_asc)
    assert _reassemble(factors, 2, degree) == product
    assert all(m == 1 and _irreducible_mod_2(f) for f, m in factors)


def test_frozen_factorization_mod3():
    # x^2 + 5 = (x + 1)(x + 2) mod 3, frozen by hand multiplication
    assert factor_mod_p([1, 0, 5], 3) == [((1, 1), 1), ((2, 1), 1)]


def generic_factorization(f_asc, p):
    """The square-free, distinct-degree and equal-degree pipeline that
    factor_mod_p runs from degree 3, on a monic ascending list."""
    return sorted(
        (tuple(irr), mult)
        for sq, mult in qpoly._squarefree_decomposition(f_asc, p)
        for irr in qpoly._distinct_degree_then_split(sq, p)
    )


# 998244353 = 119 * 2^23 + 1, so Tonelli-Shanks there runs many rounds
QUADRATIC_PRIMES = [2, 3, 5, 7, 13, 17, 257, 65537, 998244353, 10**9 + 7]


def _quadratic(p, kind, r, s, b, c):
    """x^2 + b x + c mod p of the kind asked for: two roots r and s
    (split, or ramified when r = s), one root r twice, or any."""
    if kind == "roots":
        return [r * s % p, -(r + s) % p, 1]
    if kind == "double":
        return [r * r % p, -2 * r % p, 1]
    return [c % p, b % p, 1]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(QUADRATIC_PRIMES),
    st.sampled_from(["roots", "double", "any"]),
    st.integers(0, 2**40),
    st.integers(0, 2**40),
    st.integers(0, 2**40),
    st.integers(0, 2**40),
    st.integers(1, 2**40),
)
def test_quadratic_factoring_matches_the_generic_pipeline(p, kind, r, s, b, c, lead):
    assume(lead % p)
    f_asc = _quadratic(p, kind, r, s, b, c)
    state = qpoly._cz_rng.getstate()
    # factor_mod_p takes descending coefficients and drops the unit lead
    got = factor_mod_p([lead * x for x in reversed(f_asc)], p)
    assert qpoly._cz_rng.getstate() == state
    assert got == generic_factorization(f_asc, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_quadratic_factoring_on_every_quadratic_mod_small_p(p):
    kinds = set()
    for b in range(p):
        for c in range(p):
            got = factor_mod_p([1, b, c], p)
            assert got == generic_factorization([c, b, 1], p)
            kinds.add(tuple(sorted((len(irr) - 1, m) for irr, m in got)))
    # split, ramified and inert all occur
    assert kinds == {((1, 1), (1, 1)), ((1, 2),), ((2, 1),)}


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([1, 0, 0], [((0, 1), 2)]),  # x^2
        ([1, 1, 0], [((0, 1), 1), ((1, 1), 1)]),  # x (x + 1)
        ([1, 0, 1], [((1, 1), 2)]),  # (x + 1)^2
        ([1, 1, 1], [((1, 1, 1), 1)]),  # irreducible
        ([3, 5, 7], [((1, 1, 1), 1)]),  # the same mod 2
    ],
)
def test_quadratic_factoring_mod_2(coeffs, expected):
    assert factor_mod_p(coeffs, 2) == expected


@pytest.mark.parametrize("p", [5, 13, 17, 257, 65537, 998244353])
def test_square_roots_mod_p(p):
    # 2^k divides p - 1 with k = 2, 2, 4, 8, 16, 23
    rng = random.Random(p)
    for _ in range(200):
        x = rng.randrange(1, p)
        root = qpoly._sqrt_mod_p(x * x % p, p)
        assert root in (x, p - x)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([1, -1, -1], True),
        ([1, 0, -1], False),
        ([1, 0, 0, -2], True),
        ([1, 0, 0, 0, 1], True),  # x^4 + 1, reducible mod every prime
        ([1, 0, 0, 0, 4], False),  # x^4 + 4 = (x^2+2x+2)(x^2-2x+2)
        ([1, 0, 5], True),
        ([1, 1], True),
        ([1, 0, -2, 0, 2], True),
    ],
)
def test_is_irreducible_over_q(coeffs, expected):
    assert is_irreducible_over_q(Poly(coeffs)) is expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.booleans(),
)
def test_quadratic_divisibility_matches_qpoly_division(b, c, tail, multiply):
    # a product with x^2 + b x + c, or a monic polynomial of degree 3 to 5 as drawn
    q = QPoly([1, b, c])
    f = q * QPoly([1] + tail) if multiply else QPoly([1, 0] + tail)
    divides = (f % q).is_zero()
    assert divides or not multiply
    assert qpoly._divides_monic_quadratic(b, c, f.int_coeffs()) is divides


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.sampled_from([1, -1]))
def test_divisors_signed_match_brute_force(m, sign):
    brute = [s * d for d in range(1, m + 1) if m % d == 0 for s in (1, -1)]
    assert _divisors_signed(sign * m) == brute


@pytest.mark.parametrize(
    "text,expected",
    [
        # rational roots with constant terms near 10^12 and 10^8: the old
        # loop over every integer up to |f(0)| took seconds on each
        ("(x-999983)*(x+1000003)", False),
        ("x^2+40000003", True),
        ("x^2-100000007", True),
        # quadratic factors with f(0) and f(1) near 10^4 and 10^8
        ("(x^2+x+101)*(x^2-x+103)", False),
        ("(x^2+x+10007)*(x^2-x+10009)", False),
        ("(x^2-x-3)*(x^3-x-1)", False),
        # reducible mod every prime, so only the quadratic factor search
        # can certify these
        ("x^4+1", True),
        ("x^4-10*x^2+1", True),
        # sqrt(13) + sqrt(5053): f(0) = 5040^2 has 405 divisors
        ("x^4-10132*x^2+25401600", True),
    ],
)
def test_is_irreducible_over_q_large_coefficients(text, expected):
    assert is_irreducible_over_q(parse_poly(text)) is expected


def test_reversed_poly():
    f = Poly([1, -1, -1])
    assert reversed_poly(f) == Poly([-1, -1, 1])
    with pytest.raises(ValueError):
        reversed_poly(Poly([1, 0]))


def test_pretty_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        deg = rng.randint(0, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            continue
        f = Poly(coeffs)
        assert parse_poly(f.pretty()) == f


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12), min_size=1, max_size=6))
def test_pretty_reads_numerators_like_the_fraction_route(coeffs):
    # Poly.pretty reads each coefficient's numerator and denominator; the
    # text is that of the Fraction comparisons, and it parses back
    f = Poly(coeffs)
    assert f.pretty() == fraction_pretty(f)
    assert f.pretty("t") == fraction_pretty(f, "t")
    if not f.is_zero():
        assert parse_poly(f.pretty()) == f


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5), st.integers(-5, 5))
def test_eval_matches_horner_free(coeffs, x):
    f = Poly(coeffs)
    direct = sum(Fraction(c) * Fraction(x) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
    assert poly_eval(f.coeffs, x) == direct


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([3, -1, 0], [3, -1, 0]),
        ([True, False, True], [1, 0, 1]),
        ([Fraction(1, 2), Fraction(0)], [Fraction(1, 2), 0]),
        ([0, True, 2, Fraction(3, 4), -5], [1, 2, Fraction(3, 4), -5]),
        ([0, 0, Fraction(7)], [7]),
        ([], [0]),
    ],
)
def test_coefficients_are_exact_fractions(coeffs, expected):
    f = Poly(coeffs)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs == tuple(Fraction(c) for c in expected)
    q = QPoly(coeffs)
    for g in (q + q, q * q, -q, q.scale(3), q.derivative()):
        assert all(type(c) is Fraction for c in g.coeffs)


def _expressions():
    """Small expressions in x over one-digit integers, every operation
    parenthesized so the solhom and Python readings agree."""
    leaves = st.one_of(st.integers(0, 9).map(str), st.just("x"))

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(children, st.integers(1, 9)).map(lambda t: f"({t[0]})/{t[1]}"),
            children.map(lambda t: f"(-{t})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_parse_poly_agrees_with_eval(text):
    f = parse_poly(text)
    assert all(type(c) is Fraction for c in f.coeffs)
    # a digit not after ^ is an operand: read it as a Fraction so / is exact
    python_text = re.sub(r"(?<!\^)(\d)", r"Fraction(\1)", text).replace("^", "**")
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-5, 7)):
        assert poly_eval(f.coeffs, x) == eval(python_text, {"Fraction": Fraction, "x": x})


@st.composite
def _unparenthesized_powers(draw):
    """Sums of k*x**n and x/k**n terms with no parentheses, where ** must
    bind to the atom before it alone, as in Python."""
    terms = st.one_of(
        st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda t: f"{t[0]}*x**{t[1]}"),
        st.tuples(st.integers(1, 9), st.integers(0, 3)).map(lambda t: f"x/{t[0]}**{t[1]}"),
        st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(1, 9)).map(
            lambda t: f"{t[0]}*x**{t[1]}/{t[2]}"
        ),
    )
    parts = draw(st.lists(st.tuples(st.sampled_from(["+", "-"]), terms), min_size=1, max_size=4))
    return "".join(sign + term for sign, term in parts)


@settings(max_examples=100, deadline=None)
@given(_unparenthesized_powers())
def test_unparenthesized_powers_agree_with_eval(text):
    f = parse_poly(text)
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-5, 7)):
        assert poly_eval(f.coeffs, x) == eval(text, {"x": x})


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 4).flatmap(lambda n: st.lists(st.integers(-12, 12), min_size=n, max_size=n)))
def test_dedekind_criterion_matches_the_poly_route(tail):
    coeffs = [1] + tail
    f = Poly(coeffs)
    disc = resultant(f.coeffs, QPoly(coeffs).derivative().coeffs)
    assume(disc != 0)
    for p in factorint(abs(int(disc))):
        factors = factor_mod_p(coeffs, p)
        assert qpoly.dedekind_index_free(coeffs, p, factors) == poly_dedekind_index_free(f, p, factors)


@pytest.mark.parametrize(
    "text, p, free",
    [("x^3-12", 2, False), ("x^3-18", 3, False), ("x^3-x^2-2*x-8", 2, False), ("x^3-2", 2, True), ("x^3-2", 3, True)],
)
def test_dedekind_criterion_on_known_indices(text, p, free):
    f = parse_poly(text)
    coeffs = f.int_coeffs()
    factors = factor_mod_p(coeffs, p)
    assert qpoly.dedekind_index_free(coeffs, p, factors) is free
    assert poly_dedekind_index_free(f, p, factors) is free
