"""Principalization in Q(sqrt(-191)), whose class number 13 is larger
than any fixed exponent cap the engine once had.

The exponent must be the order of the expanding ideal's class, and the
rank-one degrees of x^2-1/2*x+12 must be the ones derived from the place
data alone in docs/principalization.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import reduced_form_count
from solhom import cli, nfield
from solhom.intfactor import factorint
from solhom.places import build_system


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
