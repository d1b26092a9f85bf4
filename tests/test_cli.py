"""End-to-end command tests driven through main() with a temp cache."""

import json

import pytest

from solhom import cli, engine
from solhom.cli import main
from solhom.places import SolenoidSystem, build_system


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLHOM_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_rational_text(capsys):
    code, out, _ = run(capsys, "analyze", "--c", "3/2")
    assert code == 0
    assert "H_0 = Z[1/3]" in out
    assert "H_1 = Z[1/2]" in out
    assert "transfer index N     3" in out
    assert "K0 equal, K1 equal" in out


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run(capsys, "analyze", "--c", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["homology"]["unstable"]["0"]["group"] == "Z[1/2]"
    assert report["homology"]["unstable"]["1"]["group"] == "Z"
    assert json.loads(json.dumps(report)) == report
    assert [row["trace"] for row in report["lefschetz"]] == [1, 3, 7, 15, 31, 63]


def test_analyze_element_expression(capsys):
    code, out, _ = run(
        capsys, "analyze", "--min-poly", "x^2+5", "--element", "1/2+1/2*x", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["system"]["min_poly"] == "x^2 - x + 3/2"
    assert report["system"]["transfer_index"] == 3


def test_analyze_side_filter(capsys):
    code, out, _ = run(capsys, "analyze", "--c", "3/2", "--side", "stable")
    assert code == 0
    assert "stable homology:" in out
    assert "unstable homology:" not in out
    assert "H_-1 = Z[1/2]" in out


def test_exit_codes(capsys):
    assert run(capsys, "analyze", "--c", "abc")[0] == 1
    assert run(capsys, "analyze")[0] == 1
    assert run(capsys, "analyze", "--c", "3/2", "--min-poly", "x-2")[0] == 1
    assert run(capsys, "analyze", "--min-poly", "x^2+1")[0] == 2
    assert run(capsys, "analyze", "--min-poly", "x^2-4")[0] == 1
    assert run(capsys, "analyze", "--c", "0")[0] == 1
    assert run(capsys, "nonsense-verb")[0] == 1


def test_cache_hit_and_byte_identity(capsys, isolated_cache):
    code, out1, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert code == 0
    assert json.loads(out1)["cache"] == "miss"
    files = list(isolated_cache.glob("*.json"))
    assert len(files) == 1
    first_bytes = files[0].read_bytes()

    code, out2, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert json.loads(out2)["cache"] == "hit"
    assert files[0].read_bytes() == first_bytes

    r1, r2 = json.loads(out1), json.loads(out2)
    for volatile in ("timing_seconds", "cache"):
        r1.pop(volatile), r2.pop(volatile)
    assert r1 == r2


def test_cache_key_is_the_monic_polynomial_and_version(capsys, monkeypatch):
    code, out, _ = run(capsys, "analyze", "--c", "3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "miss"
    code, out, _ = run(capsys, "analyze", "--min-poly", "x-3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "hit"

    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    code, out, _ = run(capsys, "analyze", "--min-poly", "x-3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "miss"


def test_build_report_builds_each_finite_part_once(monkeypatch):
    calls = {"finite_part_homology": 0, "principalization": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (engine, cli):
            monkeypatch.setattr(module, name, counted)
    cli.build_report(build_system("x^2-x+3/2"), 6)
    assert calls["finite_part_homology"] == 2
    assert calls["principalization"] <= 3


def test_lefschetz_rows_are_cross_checked(capsys, monkeypatch):
    original = SolenoidSystem.periodic_points
    monkeypatch.setattr(SolenoidSystem, "periodic_points", lambda self, n: original(self, n) + 1)
    code, out, err = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")
    assert code == 3
    assert out == ""
    assert "InternalCheckError" in err and "period 1" in err


def test_no_cache_flag(capsys, isolated_cache):
    code, _, _ = run(capsys, "analyze", "--c", "5/2", "--no-cache")
    assert code == 0
    assert not isolated_cache.exists() or not list(isolated_cache.glob("*.json"))


def test_kunneth_command(capsys):
    code, out, _ = run(capsys, "kunneth", "solenoid:3/2", "solenoid:3/2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == {
        "0": "Z[1/3]",
        "1": "(Z[1/6])^2",
        "2": "Z[1/2]",
    }

    code, out, _ = run(capsys, "kunneth", "klein", "point")
    assert code == 0
    assert "H_1 = Z[1/3] + Z/2" in out

    assert run(capsys, "kunneth", "no-such-fixture")[0] == 1


def test_fixtures_listing_and_show(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    names = out.split()
    for expected in ("klein", "point", "torus-golden", "sqrt-minus-5", "solenoid:q/p"):
        assert expected in names

    code, out, _ = run(capsys, "fixtures", "--show", "klein")
    assert code == 0
    detail = json.loads(out)
    assert detail["kind"] == "transfer data"
    assert detail["degrees"][0]["transfer"] == [[9]]

    code, out, _ = run(capsys, "fixtures", "--show", "torus-golden")
    assert json.loads(out)["min_poly"] == "x^2 - x - 1"


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
