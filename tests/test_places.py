"""Place analysis: degree shift, transfer index, periodic point counts."""

import dataclasses
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    gamma_lattice,
    rational_periodic_oracle,
    toral_periodic_points,
    valuation_periodic_count,
)
from solhom import engine, intfactor, nfield
from solhom.errors import (
    BoundaryRoot,
    DegenerateFix,
    InternalCheckError,
    ParseError,
    ZeroInput,
)
from solhom.places import build_system


def test_rational_multiplier_places():
    s = build_system("x-3/2")
    assert s.transfer_index == 3
    assert s.degree_shift == 0
    assert s.orientation_sign == 1
    assert [(fp.prime.p, fp.valuation) for fp in s.finite_stable] == [(3, 1)]
    assert [(fp.prime.p, fp.valuation) for fp in s.finite_unstable] == [(2, -1)]

    d = s.dual_system()
    assert d.c.coords == (Fraction(2, 3),)
    assert d.transfer_index == 2
    assert d.degree_shift == 1


def test_integer_multiplier():
    s = build_system("x-2")
    assert s.transfer_index == 2
    assert s.finite_unstable == []
    assert [s.periodic_points(n) for n in range(1, 7)] == [1, 3, 7, 15, 31, 63]


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
    for n in range(1, 9):
        assert s.periodic_points(n) == toral_periodic_points([[0, 1], [1, 1]], n)


def test_quadratic_fixture_system():
    s = build_system("x^2-x+3/2")  # c = (1 + sqrt(-5)) / 2
    assert s.transfer_index == 3
    assert s.degree_shift == 0
    assert [(fp.prime.p, fp.prime.f, fp.valuation) for fp in s.finite_stable] == [(3, 1, 1)]
    assert [(fp.prime.p, fp.prime.f, fp.valuation) for fp in s.finite_unstable] == [(2, 1, -1)]
    assert [s.periodic_points(n) for n in range(1, 7)] == [3, 21, 63, 105, 123, 441]

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
        for n in range(1, 6):
            assert s.periodic_points(n) == rational_periodic_oracle(q, p, n)


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
    from solhom.nfield import FractionalIdeal, ideal_index

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
    assert [s.periodic_points(n) for n in range(1, 7)] == [1, 5, 13, 25, 41, 65]


@pytest.mark.parametrize(
    "poly",
    ["x-3/2", "x^2-x+3/2", "x^2-x-1", "x^2+x+7/2", "x^2-x+5/6", "x^2-79/4", "x^3-x-1", "x^4-x-1"],
)
def test_periodic_points_match_valuation_route(poly):
    s = build_system(poly)
    for n in range(1, 9):
        assert s.periodic_points(n) == valuation_periodic_count(s, n), n


def test_periodic_points_never_factor(monkeypatch):
    systems = [build_system(p) for p in ("x-3/2", "x^2+x+7/2", "x^2-x+5/6", "x^3-x-1")]

    def refuse(*_args):
        raise AssertionError("periodic_points factored an integer")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("solhom"):
            for name in ("factorint", "element_valuations"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    assert intfactor.factorint is refuse and nfield.element_valuations is refuse
    for s in systems:
        for n in range(1, 9):
            assert s.periodic_points(n) > 0


def test_periodic_points_at_period_100():
    # an 85-digit count; factoring the norm of c^100 - 1 took minutes
    s = build_system("x^2+x+7/2")
    assert s.periodic_points(100) == abs(engine.lefschetz_trace(s, 100))


def test_periodic_points_guards():
    # build_system refuses any c with c^n = 1 (it lies on the unit
    # circle), so both guards are reached with c swapped by hand
    s = build_system("x-2")
    unit = dataclasses.replace(s, c=s.field.from_rational(-1))
    assert unit.periodic_points(1) == 2
    with pytest.raises(DegenerateFix):
        unit.periodic_points(2)
    # 3/2 with no expanding place recorded: the count would be 1/2
    with pytest.raises(InternalCheckError):
        dataclasses.replace(s, c=s.field.from_rational(Fraction(3, 2))).periodic_points(1)
