"""Principalization in Q(sqrt(-191)), whose class number 13 is larger
than any fixed exponent cap the engine once had.

The exponent must be the order of the expanding ideal's class, and the
rank-one degrees of x^2-1/2*x+12 must be the ones derived from the place
data alone in docs/principalization.md.  The dual side's generator,
+-c^h g with no search outside real quadratic fields, must generate the
dual's M^h, and be the search's pick in real quadratic fields.
"""

import functools
import json
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import element_norm_form, principal_ideal, reduced_form_count
from record_answer_reports import answer_inputs
from solhom import cli, engine, nfield
from solhom.engine import dual_principalization, principalization
from solhom.errors import SolhomError
from solhom.intfactor import factorint
from solhom.nfield import principal_generator
from solhom.places import build_system
from solhom.qpoly import Poly


def test_class_numbers_from_reduced_forms():
    assert reduced_form_count(-23) == 3
    assert reduced_form_count(-191) == 13


def analyze_in_child(poly: str, tmp_path) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "SOLHOM_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, "-m", "solhom", "analyze", "--no-cache", "--json", "--min-poly", poly],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def radical(n: int) -> int:
    out = 1
    for p in factorint(n):
        out *= p
    return out


@pytest.mark.parametrize("poly", ["x^2-1/2*x+12", "x^2-1/3*x+16/3"])
def test_class_order_thirteen_certifies(poly, tmp_path):
    report = analyze_in_child(poly, tmp_path)
    assert report["system"]["field_discriminant"] == -191
    # the expanding ideal is a prime of norm 2 or 3, which no element of
    # Q(sqrt(-191)) has, so its class has order h(-191) = 13
    assert report["principalization"]["exponent"] == reduced_form_count(-191) == 13
    assert "differ" not in report["hk"]["verdicts"].values()
    assert report["hk"]["rank_identity"] is True
    for row in report["lefschetz"]:
        assert abs(row["trace"]) == row["periodic_points"], row


def test_forward_rank_one_degrees_match_the_derivation(tmp_path):
    # docs/principalization.md: N = 24, N(g) = 2^13, N(c) = 12, so degree
    # 0 is the colimit of [N] and degree 2 that of [N * N(g) / N(c)]
    N, norm_g, norm_c = 24, 2**13, 12
    report = analyze_in_child("x^2-1/2*x+12", tmp_path)
    places = {
        side: [(P["p"], P["f"], P["valuation"]) for P in report["system"][f"finite_{side}"]]
        for side in ("stable", "unstable")
    }
    assert places == {"stable": [(2, 1, 3), (3, 1, 1)], "unstable": [(2, 1, -1)]}
    assert report["system"]["transfer_index"] == N
    assert report["principalization"]["generator_norm"] == str(norm_g)
    unstable = report["homology"]["unstable"]
    assert unstable["0"]["group"] == f"Z[1/{radical(N)}]" == "Z[1/6]"
    assert unstable["2"]["group"] == f"Z[1/{radical(N * norm_g // norm_c)}]" == "Z[1/2]"


def test_fundamental_unit_is_computed_once_per_report(monkeypatch):
    # principalization tries each exponent on both sides, and the dual
    # shares the forward field: Q(sqrt(30)) used to walk its unit's
    # cycle 4 times for x^2-10/3
    calls = []

    def counted(field):
        calls.append(field)
        return fundamental_unit(field)

    fundamental_unit = nfield.fundamental_unit
    monkeypatch.setattr(nfield, "fundamental_unit", counted)
    sys_ = build_system("x^2-10/3")
    report = cli.build_report(sys_, 6)
    assert report["principalization"]["exponent"] == 2
    assert calls == [sys_.field]


def expanding_ideal_powers(sys_) -> list:
    """J, J^2, ..., J^h for the expanding ideal J of sys_ and its class
    order h; empty without expanding finite places."""
    if not sys_.finite_unstable:
        return []
    J = functools.reduce(
        operator.mul, (fp.prime.power(-fp.valuation) for fp in sys_.finite_unstable)
    )
    _, h = principalization(sys_)
    powers = [J]
    while len(powers) < h:
        powers.append(powers[-1] * J)
    return powers


def assert_norm_forms_match(sys_) -> int:
    """Compare the two norm-form routes on both sides' expanding ideal
    powers; returns how many ideals were compared."""
    compared = 0
    for side in (sys_, sys_.dual_system()):
        for I in expanding_ideal_powers(side):
            assert nfield._norm_form(I) == element_norm_form(I), I
            compared += 1
    return compared


def test_norm_form_matches_element_norms_on_answer_inputs():
    signs = set()
    for _, poly, _ in answer_inputs():
        try:
            sys_ = build_system(poly)
        except SolhomError:
            continue  # the refused answer inputs
        if sys_.field.degree == 2 and assert_norm_forms_match(sys_):
            signs.add(sys_.field.discriminant > 0)
    assert signs == {False, True}


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-30, max_value=30, max_denominator=7),
)
def test_norm_form_matches_element_norms_on_drawn_quadratics(b, n):
    # the system's c is a root of x^2 + b x + n
    assume(n != 0)
    try:
        sys_ = build_system(f"x^2 + ({b})*x + ({n})")
    except SolhomError:
        assume(False)  # reducible, or a conjugate on the unit circle
    assume(sys_.field.degree == 2)
    assert_norm_forms_match(sys_)


# m for c = (a + b sqrt(m)) / q: Q(i), Q(sqrt(-3)), imaginary fields with
# D < -4 (class numbers 2, 1, 4 and 13) and real ones (class numbers 1,
# 1, 2 and 3); m = 1 draws a rational c = a / q
DRAWN_FIELDS = (1, -1, -3, -5, -7, -21, -191, 2, 3, 10, 79)


def drawn_c(rng: random.Random):
    """A rational c, or the minimal polynomial of a quadratic one."""
    m, q = rng.choice(DRAWN_FIELDS), rng.choice((1, 1, 2, 3, 4, 6))
    a, b = rng.randint(-6, 6), rng.choice((-2, -1, 1, 2, 3))
    if m == 1:
        return Fraction(a or b, q)
    return Poly([1, Fraction(-2 * a, q), Fraction(a * a - m * b * b, q * q)])


def field_kind(K) -> str:
    if K.degree == 1:
        return "rational"
    if K.discriminant > 0:
        return "real"
    return {-4: "Q(i)", -3: "Q(sqrt(-3))"}.get(K.discriminant, "imaginary, D < -4")


def test_dual_generator_is_the_search_pick_on_its_ideal():
    # docs/principalization.md, "The dual's generator": the dual's
    # expanding ideal M has M^h = (c^h g), so g' = +-c^h g generates M^h
    # and h' = h is the dual search's own exponent; only a real field
    # still walks to the search's pick, which the dual takes too
    rng = random.Random(31)
    seen = set()
    for _ in range(160):
        try:
            sys_ = build_system(drawn_c(rng))
        except SolhomError:
            continue  # a conjugate on the unit circle
        g, h = principalization(sys_)
        dual = sys_.dual_system()
        found = dual_principalization(sys_, (g, h))
        searched = principalization(dual)
        if dual.finite_unstable:
            gen, power = found[0], dual.expanding_ideal.pow(h)
            assert principal_ideal(sys_.field, gen) == power, sys_.min_poly
            assert found[1] == searched[1] == h, sys_.min_poly
            if field_kind(sys_.field) == "real":
                assert gen == searched[0] == principal_generator(power), sys_.min_poly
            else:
                assert gen in (sys_.c.pow(h) * g, -(sys_.c.pow(h) * g)), sys_.min_poly
        else:
            assert found == searched == (sys_.field.one(), 1)
            seen.add("no expanding place on the dual")
        seen |= {field_kind(sys_.field), "integral" if sys_.c.den == 1 else "non-integral"}
    assert seen == {
        "rational", "real", "Q(i)", "Q(sqrt(-3))", "imaginary, D < -4",
        "integral", "non-integral", "no expanding place on the dual",
    }


@pytest.mark.parametrize("poly", ["x-3/2", "x^2-x+5/6", "x^2-79/4", "x^2-x+5/2", "x^3-2"])
def test_a_forged_dual_generator_exits_3(poly, monkeypatch, capsys):
    # twice the true generator lies in M^h but has the wrong norm
    monkeypatch.setattr(engine, "canonical_generator", lambda x, ideal: x + x)
    assert cli.main(["analyze", "--no-cache", "--min-poly", poly]) == 3
    assert "does not have the norm of M^" in capsys.readouterr().err


def count_searches(monkeypatch) -> list[str]:
    """Appends "box" for each nfield._box_generator call and "pow" for
    each FractionalIdeal.pow call, the way the dual once built M^h."""
    calls = []
    box, power = nfield._box_generator, nfield.FractionalIdeal.pow
    monkeypatch.setattr(nfield, "_box_generator", lambda I: calls.append("box") or box(I))
    monkeypatch.setattr(nfield.FractionalIdeal, "pow", lambda I, e: calls.append("pow") or power(I, e))
    return calls


# each dual has an expanding place, so M^h is there to build: rational,
# imaginary with D < -4, Q(i) and Q(sqrt(-3)), degree >= 3 with c integral
# and not
@pytest.mark.parametrize(
    "poly", ["x-3/2", "x^2-x+5/6", "x^2-x+5/2", "x^2-x+13/3", "x^3-2", "x^9-2", "x^3-x/4-3/8"]
)
def test_the_dual_outside_real_quadratic_fields_builds_no_power_and_scans_no_box(poly, monkeypatch):
    sys_ = build_system(poly)
    found = principalization(sys_)
    assert sys_.dual_system().finite_unstable
    calls = count_searches(monkeypatch)
    g, h = dual_principalization(sys_, found)
    assert calls == [] and g in (sys_.c.pow(h) * found[0], -(sys_.c.pow(h) * found[0]))


def test_the_real_quadratic_dual_still_walks_on_its_power():
    # the counter's control: x^2-79/4's dual picks the walk's generator of M^h
    sys_ = build_system("x^2-79/4")
    found = principalization(sys_)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_searches(monkeypatch)
        dual_principalization(sys_, found)
    assert calls == ["pow"]


@pytest.mark.parametrize("poly", ["x^3-2", "x^4-2", "x^9-2", "x^3-x-3"])
def test_an_integral_report_of_degree_3_and_up_scans_no_box(poly, monkeypatch, capsys):
    # integral c has no expanding finite place, so g = 1 with no search,
    # and the dual takes +-c^h: no box on either side
    calls = count_searches(monkeypatch)
    assert cli.main(["analyze", "--no-cache", "--json", "--min-poly", poly]) == 0
    assert "box" not in calls
