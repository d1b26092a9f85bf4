"""End-to-end command tests driven through main() with a temp cache."""

import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import block_diagonal
from record_answer_reports import answer_inputs
from solhom import cli, engine, limits, nfield, places, qpoly
from solhom.cli import main
from solhom.errors import InternalCheckError, SolhomError
from solhom.fgab import FgAbGroup, LocalizedForm, endomorphism
from solhom.linalg import IntMatrix
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
    assert report["schema_version"] == 2
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


@pytest.mark.parametrize("extra", [(), ("--no-cache",)])
def test_json_output_is_one_compact_sorted_line(capsys, extra):
    for _ in range(2):  # a miss, then a hit unless --no-cache
        code, out, _ = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json", *extra)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_cache_entry_is_the_compact_report(capsys, isolated_cache):
    code, out, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert code == 0
    (path,) = isolated_cache.glob("*.json")
    stored = path.read_text()
    assert stored == json.dumps(_without_volatile(out), sort_keys=True) + "\n"


def test_indented_entries_of_earlier_versions_still_hit(capsys, isolated_cache, tmp_path, monkeypatch):
    poly = "x^2-x+3/2"
    monkeypatch.setenv("SOLHOM_CACHE_DIR", str(tmp_path / "fresh"))
    code, miss, _ = run(capsys, "analyze", "--min-poly", poly, "--json")
    assert code == 0 and json.loads(miss)["cache"] == "miss"

    monkeypatch.setenv("SOLHOM_CACHE_DIR", str(isolated_cache))
    key = cli._cache_key(places.monic_min_poly(poly).pretty(), cli.DEFAULT_LEFSCHETZ)
    isolated_cache.mkdir()
    old = isolated_cache / f"{key}.json"
    old.write_text(json.dumps(_without_volatile(miss), sort_keys=True, indent=2) + "\n")
    before = old.read_bytes()
    code, hit, _ = run(capsys, "analyze", "--min-poly", poly, "--json")
    assert code == 0 and json.loads(hit)["cache"] == "hit"
    assert _without_volatile(hit) == _without_volatile(miss)
    assert old.read_bytes() == before and list(isolated_cache.iterdir()) == [old]


def _stored_line(out: str) -> str:
    """A --json line with its "cache" and "timing_seconds" taken out as
    text, which leaves the line the cache stores."""
    line, cuts = re.subn(r'(?<=^\{)"cache": "(hit|miss)", |, "timing_seconds": [-+.e0-9]+(?=, "version": )', "", out)
    assert cuts == 2, out
    return line


def test_a_hit_prints_its_stored_line_without_encoding(capsys, isolated_cache, monkeypatch):
    argv = ("analyze", "--min-poly", "x^2+x+15/2", "--json")
    code, miss, _ = run(capsys, *argv)
    assert code == 0 and json.loads(miss)["cache"] == "miss"
    dumps = json.dumps

    def refuse(obj, *args, **kwargs):
        if isinstance(obj, dict) and "homology" in obj:
            raise AssertionError("a report was encoded")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", refuse)
    code, hit, err = run(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(hit)["cache"] == "hit"
    (path,) = isolated_cache.glob("*.json")
    assert _stored_line(miss) == _stored_line(hit) == path.read_text()
    with pytest.raises(AssertionError, match="was encoded"):
        main(["analyze", "--c", "5/3", "--json"])  # the patch is live: a miss encodes


@pytest.mark.parametrize(
    "entry",
    [
        lambda report: " " + json.dumps(report, sort_keys=True),
        lambda report: json.dumps(report),  # build_report's order: "version" is not last
        lambda report: json.dumps(report, sort_keys=True, separators=(",", ":")),
    ],
)
def test_a_compact_entry_foreign_at_its_ends_prints_one_compact_sorted_line(capsys, isolated_cache, entry):
    argv = ("analyze", "--min-poly", "x^2-x+3/2", "--json")
    code, miss, _ = run(capsys, *argv)
    assert code == 0
    (path,) = isolated_cache.glob("*.json")
    path.write_text(entry(_without_volatile(miss)) + "\n")
    before = path.read_bytes()
    code, hit, _ = run(capsys, *argv)
    assert code == 0 and json.loads(hit)["cache"] == "hit"
    assert hit == json.dumps(json.loads(hit), sort_keys=True) + "\n"
    assert _stored_line(hit) == _stored_line(miss)
    assert path.read_bytes() == before


def test_an_entry_with_keys_no_report_has_is_a_miss(capsys, isolated_cache):
    argv = ("analyze", "--min-poly", "x^2-x+3/2", "--json")
    code, miss, _ = run(capsys, *argv)
    assert code == 0
    (path,) = isolated_cache.glob("*.json")
    for extra in ({"aside": 1}, {"cache": "hit"}, {"unsorted": 0}):
        path.write_text(json.dumps(_without_volatile(miss) | extra, sort_keys=True) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["cache"] == "miss", extra
        assert _stored_line(out) == _stored_line(miss) == path.read_text()


def test_cache_key_is_the_monic_polynomial_and_version(capsys, monkeypatch):
    code, out, _ = run(capsys, "analyze", "--c", "3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "miss"
    code, out, _ = run(capsys, "analyze", "--min-poly", "x-3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "hit"

    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    code, out, _ = run(capsys, "analyze", "--min-poly", "x-3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "miss"


def test_a_schema_1_report_is_never_served(capsys, monkeypatch, isolated_cache):
    # the cache key holds the schema version, so a report written under
    # the schema-1 key (K-groups as block-sum towers) is a miss now
    schema = cli.SCHEMA_VERSION
    assert schema == 2
    argv = ("analyze", "--min-poly", "x^2-x+3/2", "--json")
    monkeypatch.setattr(cli, "SCHEMA_VERSION", 1)
    code, old, _ = run(capsys, *argv)
    assert code == 0 and json.loads(old)["schema_version"] == 1
    monkeypatch.setattr(cli, "SCHEMA_VERSION", schema)
    for state in ("miss", "hit"):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["cache"], report["schema_version"]) == (0, state, 2)
    assert report["k_theory"]["K1"]["group"] == "H_1" and "tower" not in report["k_theory"]["K1"]
    assert len(list(isolated_cache.glob("*.json"))) == 2


def test_a_0_1_0_report_is_never_served(capsys, monkeypatch, isolated_cache):
    # the cache key holds the package version: x^3-2's stable towers moved
    # in 0.1.1, when the dual took +-c^h for its generator, so a report
    # that 0.1.0 stored with the old towers is a miss now
    version = cli.__version__
    assert version == "0.1.1"
    argv = ("analyze", "--min-poly", "x^3-2", "--json")
    monkeypatch.setattr(cli, "__version__", "0.1.0")
    code, old, _ = run(capsys, *argv)
    assert code == 0 and json.loads(old)["version"] == "0.1.0"
    (entry,) = isolated_cache.glob("*.json")
    stale = json.loads(entry.read_text())
    stale["homology"]["stable"]["-1"]["tower"] = [[0, -4, -4], [2, 0, -4], [2, 2, 0]]
    entry.write_text(json.dumps(stale, sort_keys=True) + "\n")
    monkeypatch.setattr(cli, "__version__", version)
    for state in ("miss", "hit"):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["cache"], report["version"]) == (0, state, version)
    assert report["homology"]["stable"]["-1"]["tower"] == [[0, 0, 4], [-2, 0, 0], [0, -2, 0]]
    assert len(list(isolated_cache.glob("*.json"))) == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**12), 10**12), st.integers(1, 10**6))
@example(0, 1)
@example(0, 12)
@example(-7, 1)
@example(-6, 4)
@example(5, 1)
def test_action_entries_read_as_their_fractions(x, m):
    assert cli._ratio_str(x, m) == str(Fraction(x, m))


def _without_volatile(out: str) -> dict:
    report = json.loads(out)
    report.pop("timing_seconds"), report.pop("cache")
    return report


def test_cache_hit_builds_no_system(capsys, monkeypatch):
    argv = ("analyze", "--min-poly", "x^2-x+3/2", "--json")
    code, miss, _ = run(capsys, *argv)
    assert code == 0 and json.loads(miss)["cache"] == "miss"

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit built a system")

    monkeypatch.setattr(places, "build_system", refuse)
    monkeypatch.setattr(cli, "build_system", refuse)
    monkeypatch.setattr(nfield.NumberField, "__init__", refuse)
    code, hit, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(hit)["cache"] == "hit"
    assert _without_volatile(hit) == _without_volatile(miss)
    with pytest.raises(AssertionError, match="built a system"):
        main(["analyze", "--c", "5/3"])  # the patches are live: a miss builds


@pytest.mark.parametrize("poly, code", [("x^2-4", 1), ("x^2-x+1", 2), ("x^3-3/2", 2)])
def test_refusals_are_never_stored_or_served(capsys, isolated_cache, poly, code):
    assert run(capsys, "analyze", "--c", "3/2")[0] == 0  # a warm cache directory
    stored = sorted(isolated_cache.iterdir())
    uncached = run(capsys, "analyze", "--min-poly", poly, "--no-cache")
    for _ in range(2):
        assert run(capsys, "analyze", "--min-poly", poly) == uncached
    assert uncached[0] == code and uncached[1] == "" and uncached[2].startswith("solhom: ")
    assert sorted(isolated_cache.iterdir()) == stored


def test_truncated_cache_entry_is_a_miss_and_is_rewritten(capsys, isolated_cache):
    code, out, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert code == 0
    (path,) = isolated_cache.glob("*.json")
    stored = path.read_bytes()
    path.write_bytes(stored[: len(stored) // 2])
    code, again, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert code == 0 and json.loads(again)["cache"] == "miss"
    assert path.read_bytes() == stored
    assert _without_volatile(again) == _without_volatile(out)
    assert json.loads(run(capsys, "analyze", "--c", "5/3", "--json")[1])["cache"] == "hit"


def test_another_inputs_report_under_the_key_is_a_miss(capsys, isolated_cache):
    # a checksum names the file, so a hit is taken only when the stored
    # report is one for this input, version, schema and period count
    code, other, _ = run(capsys, "analyze", "--c", "5/3", "--json")
    assert code == 0
    (planted,) = isolated_cache.glob("*.json")
    key = cli._cache_key(places.monic_min_poly("x^2-x+3/2").pretty(), cli.DEFAULT_LEFSCHETZ)
    path = planted.rename(isolated_cache / f"{key}.json")
    code, out, _ = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")
    assert code == 0 and json.loads(out)["cache"] == "miss"
    assert json.loads(path.read_text()) == _without_volatile(out) != _without_volatile(other)
    for stored in ([1, 2], {"system": {"min_poly": "x^2 - x + 3/2"}}, "null"):
        path.write_text(json.dumps(stored))
        code, again, _ = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")
        assert code == 0 and json.loads(again)["cache"] == "miss", stored
    code, out, _ = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json", "--lefschetz", "3")
    assert code == 0 and json.loads(out)["cache"] == "miss"
    cli._cache_write(key, json.dumps(json.loads(path.read_text()) | {"lefschetz": []}, sort_keys=True))
    code, again, _ = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")
    assert code == 0 and json.loads(again)["cache"] == "miss"
    assert json.loads(run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")[1])["cache"] == "hit"


@pytest.mark.parametrize(
    "spellings",
    [
        [("--c", "3/2"), ("--min-poly", "x-3/2"), ("--min-poly", "2*x-3")],
        [("--min-poly", "x^2-3/2"), ("--min-poly", "2*x^2-3"), ("--min-poly", "2*x**2-3")],
        [("--min-poly", "x^2-x-1", "--element", "x"), ("--min-poly", "x^2-x-1")],
    ],
)
def test_spellings_of_one_c_share_an_entry(capsys, isolated_cache, spellings):
    states = []
    for spelling in spellings:
        code, out, _ = run(capsys, "analyze", *spelling, "--json")
        assert code == 0
        states.append(json.loads(out)["cache"])
    assert states == ["miss"] + ["hit"] * (len(spellings) - 1)
    assert len(list(isolated_cache.glob("*.json"))) == 1


@pytest.mark.parametrize(
    "spellings",
    [
        [("--c", "-3/2"), ("--c=-3/2",), ("--min-poly", "x+3/2")],
        [("--min-poly", "-x^2+2"), ("--min-poly=-x^2+2",), ("--min-poly", "x^2-2")],
        [("--min-poly", "x^2-2", "--element", "-x"), ("--min-poly", "x^2-2", "--element=-x")],
    ],
)
def test_a_value_that_starts_with_a_minus_reads_as_a_value(capsys, isolated_cache, spellings):
    # argparse alone reads "-3/2" or "-x" as an option and exits 1 with
    # "expected one argument"; each value must read as its "=" form does
    test_spellings_of_one_c_share_an_entry(capsys, isolated_cache, spellings)


def test_key_from_arguments_is_the_key_of_the_built_system():
    parser, _ = cli._build_parser()
    for _, poly, n in answer_inputs():
        args = parser.parse_args(["analyze", "--min-poly", poly, "--lefschetz", str(n)])
        from_args = cli._cache_key(cli._min_poly_from_args(args).pretty(), n)
        try:
            built = build_system(poly)
        except SolhomError:
            continue  # refused before any report exists, so never stored
        assert from_args == cli._cache_key(built.min_poly.pretty(), n), poly


def test_parser_is_built_once(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    assert run(capsys, "analyze", "--c", "3/2", "--side", "stable")[0] == 0
    assert run(capsys, "analyze", "--c", "3/2")[0] == 0
    assert run(capsys, "fixtures")[0] == 0
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_does_not_carry_options_over(capsys):
    code, out, _ = run(capsys, "analyze", "--c", "3/2", "--side", "stable")
    assert code == 0 and "unstable homology:" not in out
    code, out, _ = run(capsys, "analyze", "--c", "3/2")
    assert code == 0 and "unstable homology:" in out and "\nstable homology:" in out

    code, out, _ = run(capsys, "analyze", "--min-poly", "x^2-x-1", "--element", "2*x", "--json")
    assert code == 0 and json.loads(out)["system"]["min_poly"] == "x^2 - 2*x - 4"
    code, out, _ = run(capsys, "analyze", "--min-poly", "x^2-x-1", "--json")
    assert code == 0 and json.loads(out)["system"]["min_poly"] == "x^2 - x - 1"

    parser, _ = cli._build_parser()
    parser.parse_args(["analyze", "--c", "2", "--side", "stable", "--element", "x"])
    args = parser.parse_args(["analyze", "--c", "2"])
    assert (args.side, args.element, args.no_cache) == ("both", None, False)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--version"],
        ["bogus"],
        ["analyz", "--c", "3/2"],
        ["analyze", "--help"],
        ["analyze", "--c", "3/2", "--bogus"],
        ["analyze", "--c", "3/2", "extra", "--json"],
        ["analyze", "--version"],
        ["analyze", "--side", "sideways"],
        ["analyze", "--lefschetz", "-1"],
        ["analyze", "--lefschetz"],
        ["kunneth"],
        ["fixtures", "--show"],
        ["selftest", "extra"],
        # a negative period count is still refused when --c comes before it
        ["analyze", "--c", "3/2", "--lefschetz", "-1"],
    ],
)
def test_dispatch_prints_and_exits_as_the_top_level_parser(capsys, argv):
    # main hands a known verb's arguments to that verb's parser; usage,
    # help and errors must read as the top-level parser prints them
    parser, _ = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    want = capsys.readouterr()
    assert run(capsys, *argv) == (0 if exc.value.code == 0 else 1, want.out, want.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--c", "3/2"],
        ["analyze", "--min-poly", "x^2-x-1", "--element", "2*x", "--side", "stable", "--json"],
        ["analyze", "--no-c", "--lef", "3", "--c", "2"],
        ["kunneth", "klein", "point", "--json"],
        ["fixtures", "--show", "klein"],
        ["selftest"],
    ],
)
def test_dispatch_parses_as_the_top_level_parser(argv):
    parser, _ = cli._build_parser()
    want = vars(parser.parse_args(argv))
    assert want.pop("command") == argv[0]
    assert vars(cli._parse(argv)) == want


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["solhom", "fixtures", "--json"])
    assert main(None) == 0
    assert json.loads(capsys.readouterr().out) == cli.fixture_names()


def test_the_cli_does_not_import_pathlib():
    # under -S no site module loads pathlib first, so this sees the
    # package's own imports: pathlib and what it imports cost about 4 ms
    # of cold start, and it interns each cache directory name it parses
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import solhom.cli, sys; assert 'pathlib' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_reports_without_the_cache_do_not_load_hashlib(tmp_path):
    # nor dataclasses, whose import pulls in inspect and ast and
    # compiles generated code for every record at start-up; a cached
    # miss and the hit after it name their file without hashlib too
    code = (
        "import io, json, sys; from contextlib import redirect_stdout; from solhom import cli; "
        "argv = ['analyze', '--min-poly', 'x^2-x-1', '--json']; states = []\n"
        "for extra in (['--no-cache'], [], []):\n"
        "    out = io.StringIO()\n"
        "    with redirect_stdout(out):\n"
        "        assert cli.main(argv + extra) == 0\n"
        "    states.append(json.loads(out.getvalue())['cache'])\n"
        "assert states == ['miss', 'miss', 'hit'], states\n"
        "loaded = {'hashlib', 'dataclasses', 'inspect', 'ast'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env["SOLHOM_CACHE_DIR"] = str(tmp_path / "subprocess-cache")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "subprocess-cache").glob("*.json"))) == 1


def test_build_report_builds_each_finite_part_once(monkeypatch):
    calls = {"finite_part_homology": 0, "principalization": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (engine, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    cli.build_report(build_system("x^2-x+3/2"), 6)
    assert calls["finite_part_homology"] == 2
    # one search per report: the dual's generator comes from the forward's
    assert calls["principalization"] == 1


def test_a_unit_report_builds_one_exterior_ladder(monkeypatch):
    # the dual's powers of A^-1 come from the forward ladder by Jacobi, so
    # a report on a unit of degree d takes the d + 1 powers of A alone
    calls = []
    original = engine.exterior_power_matrix

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(engine, "exterior_power_matrix", counted)
    cli.build_report(build_system("x^4-x-1"), 6)
    assert calls == [0, 1, 2, 3, 4]


def test_reports_leave_no_cyclic_garbage():
    # Garbage in cycles waits for the cyclic collector, which then runs
    # more often and holds memory longer; reports should free everything
    # by reference counting.
    polys = ("x^2-x+3/2", "x^4-x-1", "x^2-79/4")
    cli.build_report(build_system(polys[0]), 6)  # first-use imports and caches
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for poly in polys:
            cli.build_report(build_system(poly), 6)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_one_entry_k_group_prints_as_its_block_sum():
    # a K-group with one signature-only entry prints that degree's name
    # and signature, which is the signature of the one-block block sum
    alone = 0
    for _, poly, _ in answer_inputs():
        try:
            sys_ = build_system(poly)
        except SolhomError:
            continue
        for degrees in engine.k_theory(sys_, engine.finite_part_homology(sys_)):
            if len(degrees) > 1:
                continue
            [(k, entry)] = degrees.items()
            if entry.closed is None:
                sig = limits.InvariantSignature.of(limits.ColimitGroup(block_diagonal([entry.colimit.matrix])))
                assert cli._k_group_json(degrees) == {
                    "group": f"H_{k}",
                    "signature": {"rank": sig.rank, "mod_p_ranks": [list(pair) for pair in sig.mod_p_ranks]},
                    "provenance": "degree sum (signature-only)",
                }, poly
                alone += 1
    assert alone > 0


def test_lefschetz_rows_are_cross_checked(capsys, monkeypatch):
    original = SolenoidSystem.periodic_counts
    monkeypatch.setattr(
        SolenoidSystem, "periodic_counts", lambda self, n: [c + 1 for c in original(self, n)]
    )
    code, out, err = run(capsys, "analyze", "--min-poly", "x^2-x+3/2", "--json")
    assert code == 3
    assert out == ""
    assert "InternalCheckError" in err and "period 1" in err


def _text_and_report(capsys, *argv):
    code, text, _ = run(capsys, "analyze", "--no-cache", *argv)
    assert code == 0
    code, out, _ = run(capsys, "analyze", "--no-cache", "--json", *argv)
    assert code == 0
    return text.splitlines(), json.loads(out)


@pytest.mark.parametrize(
    "argv", [("--min-poly", "x^2-79/4"), ("--c", "3/2"), ("--min-poly", "x^3-2", "--lefschetz", "9")]
)
def test_periodic_point_rows_parse_into_the_json_rows(capsys, argv):
    lines, report = _text_and_report(capsys, *argv)
    start = lines.index("periodic points:") + 2
    rows = [tuple(map(int, line.split())) for line in lines[start:-1]]
    assert lines[-1].startswith("elapsed:")
    assert rows == [(r["n"], r["trace"], r["periodic_points"]) for r in report["lefschetz"]]
    # n is left-aligned under its header, trace and count right-aligned
    header = [(m.start(), m.end()) for m in re.finditer(r"\S+", lines[start - 1])]
    for line in lines[start:-1]:
        cells = [(m.start(), m.end()) for m in re.finditer(r"\S+", line)]
        assert cells[0][0] == header[0][0] and [c[1] for c in cells[1:]] == [h[1] for h in header[1:]], line
    if argv == ("--c", "3/2"):
        # the README's example
        assert lines[start - 1 : start + 2] == [
            "  n       trace     count", "  1           1         1", "  2           5         5"
        ]


@pytest.mark.parametrize("poly", ["x^2-79/4", "x^3-2"])
def test_signature_only_records_print_their_tower_and_signature(capsys, poly):
    # a homology degree prints its tower rows, then its signature; a
    # K-group without a closed form prints its signature and no tower
    lines, report = _text_and_report(capsys, "--min-poly", poly)
    records = [
        (f"H_{k}", rec)
        for side in ("unstable", "stable")
        for k, rec in sorted(report["homology"][side].items(), key=lambda item: int(item[0]))
    ] + [(name, report["k_theory"][name]) for name in ("K0", "K1")]
    at, towers, signatures = 0, 0, 0
    for name, rec in records:
        at = lines.index(f"  {name} = {rec['group']}   [{rec['provenance']}]", at) + 1
        if "signature" not in rec:
            assert not lines[at].startswith("      "), name
            continue
        signatures += 1
        n = len(rec.get("tower", []))
        if n:
            towers += 1
            rows = [line.split() for line in lines[at : at + n]]
            assert rows[0][0] == "tower"
            assert [[int(x) for x in row] for row in [rows[0][1:]] + rows[1:]] == rec["tower"]
        else:
            assert name in ("K0", "K1")
        sig = rec["signature"]
        want = ["signature", "rank", str(sig["rank"])]
        for p, r in sig["mod_p_ranks"]:
            want += [f"G/{p}G", "rank", str(r)]
        assert lines[at + n].replace(",", "").split() == want
    assert (towers, signatures) == ((1, 2) if poly == "x^2-79/4" else (4, 6))


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


@pytest.mark.parametrize(
    "argv",
    [("kunneth", "solenoid:1/0"), ("fixtures", "--show", "solenoid:1/0"), ("analyze", "--c", "1/0")],
)
def test_unreadable_rational_is_bad_input(capsys, argv):
    # every rational on the command line goes through one reader
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "solhom: cannot read '1/0' as a rational\n"


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


def test_selftest_checks_full_reports(capsys, monkeypatch):
    # each system runs through build_report, so the stable side and the
    # duality check run too; a failing duality check exits 3
    built = []
    original = cli.build_report
    monkeypatch.setattr(cli, "build_report", lambda *a: built.append(a[1]) or original(*a))
    code, out, _ = run(capsys, "selftest")
    assert code == 0 and built == [4, 4, 4]
    assert out == "ok  x-3/2\nok  x^2-x-1\nok  x^2-x+3/2\nok  klein transfer colimit\n"

    def broken(*_):
        raise InternalCheckError("stable action is not the Jacobi dual")

    monkeypatch.setattr(cli, "duality_check", broken)
    code, _, err = run(capsys, "selftest")
    assert code == 3 and "Jacobi dual" in err


def test_kunneth_factor_without_closed_forms_is_refused(capsys):
    # sqrt-minus-5 has a signature-only degree, so the product has no
    # atoms to work with: a precondition, not an internal failure
    code, out, err = run(capsys, "kunneth", "sqrt-minus-5", "klein")
    assert code == 2 and out == ""
    assert err == "solhom: hypothesis violated: degree 1 entry has no closed form\n"


def test_negative_period_count_is_refused(capsys, isolated_cache):
    code, out, err = run(capsys, "analyze", "--c", "3/2", "--lefschetz", "-2")
    assert code == 1 and out == ""
    assert "--lefschetz" in err and "at least 0" in err
    assert not isolated_cache.exists()
    code, out, _ = run(capsys, "analyze", "--c", "3/2", "--lefschetz", "0", "--json")
    assert code == 0 and json.loads(out)["lefschetz"] == []


@pytest.mark.parametrize("poly", ["x^2-409", "x^2-10007", "x^2-100000007", "x^2-1000000007"])
def test_real_quadratic_former_cliffs_finish(capsys, poly):
    # each took 90 s or more in the box-scan generator search
    code, out, _ = run(capsys, "analyze", "--no-cache", "--json", "--min-poly", poly)
    assert code == 0
    assert json.loads(out)["hk"]["rank_identity"] is True


def test_real_quadratic_with_a_long_unit_period_certifies():
    # the continued fraction of sqrt(10000000019) has a period of 124134
    # steps; the unit walk stops only at its proven cap
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "solhom", "analyze", "--no-cache", "--json", "--min-poly", "x^2-10000000019"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stable = json.loads(proc.stdout)["homology"]["stable"]
    assert stable["-1"]["group"] == "(Z[1/10000000019])^2"


def test_wrong_closed_form_exits_3(capsys, monkeypatch):
    # a canonical_form that multiplies each radical by 5 prints H_0 = Z[1/15]
    # for c = 3/2 unless the H/K re-certification stops the report
    right = engine.canonical_form

    def wrong(G):
        return LocalizedForm([("inv", m * 5) if kind == "inv" else (kind, m) for kind, m in right(G).atoms])

    monkeypatch.setattr(engine, "canonical_form", wrong)
    code, out, err = run(capsys, "analyze", "--c", "3/2", "--json", "--no-cache")
    assert code == 3
    assert out == ""
    assert "InternalCheckError" in err and "closed form Z[1/15] differs from its tower" in err


def _change_stable_tower(monkeypatch, change):
    """Replace the degree-1 tower of the dual's finite part, the second
    that build_report builds, by change(tower)."""
    right = cli.finite_part_homology
    calls = []

    def patched(side, *args):
        finite = right(side, *args)
        calls.append(side)
        if len(calls) == 2:
            finite.entries[1] = finite.entries[1]._replace(colimit=change(finite.entries[1].colimit))
        return finite

    monkeypatch.setattr(cli, "finite_part_homology", patched)


def test_wrong_stable_determinant_exits_3(capsys, monkeypatch):
    # the stable closed forms are certified as the K-groups' are: a rank-one
    # stable tower of c = 3/2 given 5 times its determinant no longer
    # certifies, and nothing else in the report reads that determinant
    _change_stable_tower(monkeypatch, lambda G: limits.ColimitGroup(G.matrix, 5 * G.det))
    code, out, err = run(capsys, "analyze", "--c", "3/2", "--json", "--no-cache")
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"solhom: internal: InternalCheckError: stable H_-?\d+: closed form \S+ differs from its tower\n", err)


def test_wrong_stable_adjugate_exits_3(capsys, monkeypatch):
    # degree 1 of the dual of the unit x^3-x-1 is unimodular with closed
    # form Z^3: its certificate reads the adjugate, whose sign flipped
    # fails the check vector
    def flipped(G):
        return limits.ColimitGroup(G.matrix, G.det, lambda: G.adjugate.scale(-1))

    _change_stable_tower(monkeypatch, flipped)
    code, out, err = run(capsys, "analyze", "--min-poly", "x^3-x-1", "--json", "--no-cache")
    assert code == 3
    assert out == ""
    assert "InternalCheckError: adjugate and determinant disagree on the check vector" in err


def test_reduced_form_cap_overflow_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(nfield, "_walk_cap", lambda D, C: 0)
    code, out, err = run(capsys, "analyze", "--no-cache", "--min-poly", "x^2-79/4")
    assert code == 3
    assert out == ""
    assert "InternalCheckError" in err and "reduced-form cycle" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "solhom", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"solhom {cli.__version__}"


def test_closed_stdout_ends_quietly():
    # a report of about 96 kB outgrows a 64 KiB pipe, so the child is
    # still writing when the reader closes its end after one byte
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["analyze", "--min-poly", "x^2-x+3/2", "--json", "--no-cache", "--lefschetz", "400"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "solhom", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_implicit_product_names_the_fix(capsys):
    code, out, err = run(capsys, "analyze", "--no-cache", "--min-poly", "x^3-3x-1")
    assert code == 1 and out == ""
    assert "trailing input at position 5" in err
    assert "write x^3-3*x-1" in err
    assert run(capsys, "analyze", "--no-cache", "--min-poly", "x^3-3*x-1")[0] == 0


def _singular_klein(matrix):
    """A klein fixture whose only degree is Z^2 with a singular transfer."""
    z2 = FgAbGroup(2, ())
    return lambda: ([z2], [endomorphism(z2, IntMatrix(matrix))])


def test_free_colimit_image_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "klein_fixture", _singular_klein([[2, 0], [0, 0]]))
    monkeypatch.setattr(limits, "_solve_lattice", lambda *_: None)
    code, out, err = run(capsys, "kunneth", "klein", "point")
    assert code == 3 and out == ""
    assert "InternalCheckError" in err and "eventual image" in err


def test_lattice_solve_failure_exits_3(capsys, monkeypatch):
    # a wrong eventual-image basis leaves the image outside its span
    monkeypatch.setattr(cli, "klein_fixture", _singular_klein([[1, 1], [0, 0]]))
    monkeypatch.setattr(limits, "hnf", lambda _m: IntMatrix([[0], [1]]))
    code, out, err = run(capsys, "kunneth", "klein", "point")
    assert code == 3 and out == ""
    assert "InternalCheckError" in err and "inconsistent lattice solve" in err


def test_torsion_colimit_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(limits, "_solve_lattice", lambda *_: None)
    code, out, err = run(capsys, "kunneth", "klein", "point")
    assert code == 3 and out == ""
    assert "InternalCheckError" in err and "relation lattice" in err


def test_failed_factoring_self_check_exits_3(capsys, monkeypatch):
    # a factorization mod p that loses a factor fails factor_mod_p's degree
    # check, a typed internal error and not a traceback
    split = qpoly._distinct_degree_then_split
    monkeypatch.setattr(qpoly, "_distinct_degree_then_split", lambda f, p: split(f, p)[1:])
    code, out, err = run(capsys, "analyze", "--no-cache", "--min-poly", "x^4-x-1")
    assert code == 3 and out == ""
    assert "internal: InternalCheckError" in err and "Traceback" not in err


def test_failed_clearing_self_check_is_internal(monkeypatch):
    monkeypatch.setattr(qpoly.Poly, "is_integer", lambda self: False)
    with pytest.raises(InternalCheckError, match="monic integer"):
        qpoly.clear_to_monic_integer(qpoly.parse_poly("x^2-1/2"))


def test_exhausted_generator_search_is_a_typed_refusal(capsys, monkeypatch, isolated_cache):
    # x^3-x/4-1/8 certifies through the degree >= 3 box search; with the
    # search finding nothing it reaches the search's limits, which is a
    # limit of the method (exit 2), not an internal failure (exit 3)
    monkeypatch.setattr(engine, "principal_generator", lambda _ideal: None)
    code, out, err = run(capsys, "analyze", "--min-poly", "x^3-x/4-1/8")
    assert code == 2 and out == ""
    assert err.startswith("solhom: outside the supported class: ") and err.count("\n") == 1
    assert "BOX_RADIUS = 3" in err and "BOX_EXPONENT_LIMIT = 12" in err
    assert not isolated_cache.exists() or not list(isolated_cache.iterdir())


def test_a_cubic_past_the_search_limits_is_refused(capsys, isolated_cache):
    # no power of this input's expanding ideal up to the exponent limit
    # has a generator in the box: a real input, not a patched search
    code, out, err = run(capsys, "analyze", "--json", "--min-poly", "x^3-7/4*x-7")
    assert code == 2 and out == ""
    assert err.startswith("solhom: outside the supported class: no power of the expanding ideal")
    assert not isolated_cache.exists() or not list(isolated_cache.iterdir())


def test_quadratic_generator_search_failure_stays_internal(monkeypatch):
    # in degree 2 the exponent limit is a class-number bound, so missing
    # a generator within it is an arithmetic fault
    monkeypatch.setattr(engine, "principal_generator", lambda _ideal: None)
    with pytest.raises(InternalCheckError, match="no principal power"):
        engine.principalization(build_system("x^2+x+15/2"))


def test_undecided_irreducibility_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(qpoly, "is_irreducible_mod_p", lambda _f, _p: False)
    code, out, err = run(capsys, "analyze", "--no-cache", "--min-poly", "x^6-x-1")
    assert code == 2 and out == ""
    assert "IRREDUCIBILITY_PRIME_BUDGET = 60" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "poly",
    [
        "x^6-5*x^3+6",  # (x^3 - 2)(x^3 - 3): reducible, no rational root
        "x^8-x^4+1",  # the 24th cyclotomic polynomial: irreducible
    ],
)
def test_inputs_that_factor_modulo_every_prime_are_refused(capsys, poly):
    # both factor modulo every prime, so no prime certifies either way
    code, out, err = run(capsys, "analyze", "--no-cache", "--json", "--min-poly", poly)
    assert code == 2 and out == ""
    assert err.startswith("solhom: outside the supported class: irreducibility of ")
    assert "IRREDUCIBILITY_PRIME_BUDGET = 60" in err and err.count("\n") == 1
