"""Place analysis: degree shift, transfer index, periodic point counts."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    gamma_lattice,
    ideal_index,
    lefschetz_trace,
    rational_periodic_oracle,
    system_with,
    toral_periodic_points,
    valuation_periodic_count,
)
from solhom import cli, intfactor, nfield, places
from solhom.engine import principalization
from solhom.errors import (
    BoundaryRoot,
    DegenerateFix,
    InternalCheckError,
    ParseError,
    ZeroInput,
)
from solhom.nfield import FractionalIdeal
from solhom.places import build_system


def test_rational_multiplier_places():
    s = build_system("x-3/2")
    assert s.transfer_index == 3
    assert s.degree_shift == 0
    assert s.orientation_sign == 1
    assert [(fp.prime.p, fp.valuation) for fp in s.finite_stable] == [(3, 1)]
    assert [(fp.prime.p, fp.valuation) for fp in s.finite_unstable] == [(2, -1)]

    d = s.dual_system()
    assert d.c.power_coords() == (Fraction(2, 3),)
    assert d.transfer_index == 2
    assert d.degree_shift == 1


def test_integer_multiplier():
    s = build_system("x-2")
    assert s.transfer_index == 2
    assert s.finite_unstable == []
    assert s.periodic_counts(6) == [1, 3, 7, 15, 31, 63]


def test_golden_mean_system():
    s = build_system("x^2-x-1")
    assert s.transfer_index == 1
    assert s.finite_stable == [] and s.finite_unstable == []
    assert s.degree_shift == 1
    assert s.orientation_sign == -1
    arch = s.archimedean
    assert (arch.contracting_real, arch.expanding_real) == (1, 1)
    assert arch.contracting_real_negative == 1


def test_golden_counts_match_toral_oracle():
    s = build_system("x^2-x-1")
    for n, count in enumerate(s.periodic_counts(8), start=1):
        assert count == toral_periodic_points([[0, 1], [1, 1]], n)


def test_quadratic_fixture_system():
    s = build_system("x^2-x+3/2")  # c = (1 + sqrt(-5)) / 2
    assert s.transfer_index == 3
    assert s.degree_shift == 0
    assert [(fp.prime.p, fp.prime.f, fp.valuation) for fp in s.finite_stable] == [(3, 1, 1)]
    assert [(fp.prime.p, fp.prime.f, fp.valuation) for fp in s.finite_unstable] == [(2, 1, -1)]
    assert s.periodic_counts(6) == [3, 21, 63, 105, 123, 441]

    d = s.dual_system()
    assert d.min_poly == build_system("x^2-2/3*x+2/3").min_poly
    assert d.transfer_index == 2
    assert d.degree_shift == 2
    assert d.archimedean.contracting_complex_pairs == 1


def test_rational_counts_closed_form():
    rng = random.Random(11)
    for _ in range(15):
        q = rng.randint(2, 9)
        p = rng.randint(1, q - 1)
        if gcd(p, q) != 1 or p == q:
            continue
        s = build_system(f"x-{q}/{p}")
        for n, count in enumerate(s.periodic_counts(5), start=1):
            assert count == rational_periodic_oracle(q, p, n)


def test_boundary_roots_rejected():
    for text, expected_on_circle in [
        ("x-1", 1),
        ("x+1", 1),
        ("x^2+1", 2),
        ("x^4+1", 4),
        ("x^2+x+1", 2),
    ]:
        with pytest.raises(BoundaryRoot) as exc:
            build_system(text)
        assert exc.value.on_circle == expected_on_circle


def test_degenerate_input_rejected():
    with pytest.raises(ZeroInput):
        build_system("x")  # c = 0
    with pytest.raises(ParseError):
        build_system("x^2-4")  # reducible
    with pytest.raises(ParseError):
        build_system("7")


def test_gamma_lattice_tower():
    s = build_system("x^2-x+3/2")
    O = FractionalIdeal.ring_of_integers(s.field)
    assert gamma_lattice(s, 0, 0) == O
    deeper = gamma_lattice(s, 1, 0)
    assert ideal_index(O, deeper) == 3
    wider = gamma_lattice(s, 0, 1)
    # expanding direction grows the lattice by the expanding norm
    assert ideal_index(wider, O) == 2
    both = gamma_lattice(s, 2, 3)
    assert both == gamma_lattice(s, 2, 0) * gamma_lattice(s, 0, 3)


def test_complex_contracting_system():
    # c = (1 + i) / 2: contracting at the complex place, expanding at the
    # prime over 2 (v(1 + i) = 1 but v(2) = 2), so the transfer index is 1
    s = build_system("x^2-x+1/2")
    assert s.degree_shift == 2
    assert s.archimedean.contracting_complex_pairs == 1
    assert s.transfer_index == 1
    assert s.finite_stable == []
    assert [(fp.prime.p, fp.valuation) for fp in s.finite_unstable] == [(2, -1)]
    # |(1 + i)^n - 2^n|^2 / 2^n, checked by hand two ways
    assert s.periodic_counts(6) == [1, 5, 13, 25, 41, 65]


@pytest.mark.parametrize(
    "poly",
    ["x-3/2", "x^2-x+3/2", "x^2-x-1", "x^2+x+7/2", "x^2-x+5/6", "x^2-79/4", "x^3-x-1", "x^4-x-1"],
)
def test_periodic_points_match_valuation_route(poly):
    s = build_system(poly)
    for n, count in enumerate(s.periodic_counts(8), start=1):
        assert count == valuation_periodic_count(s, n), n


def test_periodic_points_never_factor(monkeypatch):
    systems = [build_system(p) for p in ("x-3/2", "x^2+x+7/2", "x^2-x+5/6", "x^3-x-1")]

    def refuse(*_args):
        raise AssertionError("periodic_counts factored an integer")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("solhom"):
            for name in ("factorint", "element_valuations"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    assert intfactor.factorint is refuse and nfield.element_valuations is refuse
    for s in systems:
        assert all(count > 0 for count in s.periodic_counts(8))


def test_periodic_points_at_period_100():
    # an 85-digit count; factoring the norm of c^100 - 1 took minutes
    s = build_system("x^2+x+7/2")
    assert s.periodic_counts(100)[-1] == abs(lefschetz_trace(s, 100))


def test_periodic_points_guards():
    # build_system refuses any c with c^n = 1 (it lies on the unit
    # circle), so both guards are reached with c swapped by hand
    s = build_system("x-2")
    unit = system_with(s, c=s.field.from_rational(-1))
    assert unit.periodic_counts(1) == [2]
    with pytest.raises(DegenerateFix):
        unit.periodic_counts(2)
    # 3/2 with no expanding place recorded: the count would be 1/2
    with pytest.raises(InternalCheckError):
        system_with(s, c=s.field.from_rational(Fraction(3, 2))).periodic_counts(1)


@pytest.mark.parametrize("text", ["x-3/2", "x^2-10/3", "x^2+x+7/2", "x^3-2"])
def test_c_inverse_is_computed_once_per_report(text, monkeypatch):
    # the transfer action, the Lefschetz traces and the dual system all
    # start from 1/c, and the dual's own 1/c is the forward c
    calls = []
    inverse = nfield.NfElement.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(nfield.NfElement, "inverse", counted)
    s = build_system(text)
    cli.build_report(s, 6)
    assert calls == [s.c]
    dual = s.dual_system()
    assert dual.c_inverse is s.c
    for side in (s, dual):
        assert side.c_inverse * side.c == s.field.one()
    # a system with c replaced computes its own
    other = system_with(s, c=s.c.pow(2))
    assert other.c_inverse == s.c_inverse.pow(2)
    assert "_c_inverse" not in repr(s) and "_dual" not in repr(s)


def test_each_place_list_ideal_is_multiplied_out_once_per_report(monkeypatch):
    # x^2-x+5/6 in Q(sqrt(-21)): c contracts at the prime over 5 and
    # expands at the ramified primes over 2 and 3, and on each side the
    # expanding ideal's class has order 2; the dual's generator comes
    # from c^2 g by the sign rule, as D < -4, so no power of its ideal
    # is built
    assert principalization(build_system("x^2-x+5/6").dual_system())[1] == 2
    built, powers, products = [], [], []
    place_ideal, power, mul = places._place_ideal, nfield.PrimeIdeal.power, FractionalIdeal.__mul__
    monkeypatch.setattr(places, "_place_ideal", lambda K, fps: built.append(fps) or place_ideal(K, fps))
    monkeypatch.setattr(nfield.PrimeIdeal, "power", lambda P, e: powers.append((P.p, e)) or power(P, e))
    monkeypatch.setattr(FractionalIdeal, "__mul__", lambda I, J: products.append(1) or mul(I, J))
    s = build_system("x^2-x+5/6")
    assert built == [s.finite_stable]  # for the transfer index's lattice check
    assert cli.build_report(s, 6)["principalization"]["exponent"] == 2
    assert built == [s.finite_stable, s.finite_unstable]
    assert sorted(powers) == [(2, 1), (3, 1), (5, 1)]
    # P2 * P3 once, then one step to the forward side's square
    assert len(products) == 2


@pytest.mark.parametrize("text", ["x-3/2", "x^2-x+5/6", "x^2-79/4", "x^3-x/4-1/8", "x^4-x-1"])
def test_dual_is_handed_the_forward_ideals_swapped(text):
    s = build_system(text)
    dual = s.dual_system()
    assert dual.contracting_ideal is s.expanding_ideal
    assert dual.expanding_ideal is s.contracting_ideal
    assert s.contracting_ideal.norm() == s.transfer_index
    assert dual.contracting_ideal.norm() == dual.transfer_index
    assert "_contracting_ideal" not in repr(s) and "_expanding_ideal" not in repr(s)


# x-9/4 and x^2+x+15/4 have places with |v| = 2
@pytest.mark.parametrize("text", ["x-9/4", "x^2-x+5/6", "x^2+x+15/4", "x^3-x/4-1/8", "x^4-x-1"])
def test_one_norm_product_per_place_list(text, monkeypatch):
    s = build_system(text)
    for side in (s, s.dual_system()):
        assert places._place_norm(side.finite_stable) == side.transfer_index == side.contracting_ideal.norm()
        assert places._place_norm(side.finite_unstable) == side.expanding_ideal.norm()
    # the periodic counts' D is that product over the expanding places
    seen = []
    place_norm = places._place_norm
    monkeypatch.setattr(places, "_place_norm", lambda fps: seen.append(fps) or place_norm(fps))
    s.periodic_counts(3)
    assert seen == [s.finite_unstable]


def test_prime_powers_are_nonnegative():
    P = build_system("x^2-x+5/6").finite_stable[0].prime
    assert P.power(0) == FractionalIdeal.ring_of_integers(P.field)
    with pytest.raises(ValueError):
        P.power(-1)
