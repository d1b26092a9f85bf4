"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from solhom import cli, places  # noqa: E402

import answers  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def scratch():
    """A directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_tmp", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(path))


def _originals() -> dict:
    """span name -> (owner, attribute, original function)."""
    out = {}
    for target in tracer.TARGETS:
        owner, attr = tracer._resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            out[tracer.span_name(target)] = (owner, attr, getattr(raw, "__func__", raw))
        else:
            out[tracer.span_name(target)] = (owner, attr, getattr(owner, attr))
    return out


def _module_bindings(fn) -> list[tuple[str, str]]:
    return [
        (module.__name__, key)
        for module in tracer.solhom_modules()
        for key, value in vars(module).items()
        if value is fn
    ]


def _all_wrappers() -> set[str]:
    """Every wrapper reachable from a solhom module or one of its classes."""
    found = set()
    for module in tracer.solhom_modules():
        for key, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.add(f"{module.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), "perfbench_span"):
                        found.add(f"{value.__module__}.{value.__qualname__}.{attr}")
    return found


def test_every_binding_is_wrapped_and_restored():
    originals = _originals()
    bindings = {
        name: _module_bindings(fn)
        for name, (owner, _, fn) in originals.items()
        if not isinstance(owner, type)
    }
    factorint_homes = {module for module, _ in bindings["intfactor.factorint"]}
    assert {"solhom.intfactor", "solhom.nfield", "solhom.limits", "solhom.fgab",
            "solhom.engine", "solhom.qpoly"} <= factorint_homes
    assert ("solhom.engine", "principal_generator") in bindings["nfield.principal_generator"]
    assert ("solhom.cli", "build_system") in bindings["places.build_system"]

    t = tracer.Tracer()
    with t:
        for name, (owner, attr, fn) in originals.items():
            assert not _module_bindings(fn), f"{name} still bound unwrapped"
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                assert getattr(raw, "__func__", raw).perfbench_span == name
        for name, homes in bindings.items():
            for module_name, key in homes:
                assert getattr(sys.modules[module_name], key).perfbench_span == name
        assert len(_all_wrappers()) == sum(map(len, bindings.values())) + sum(
            isinstance(owner, type) for owner, _, _ in originals.values()
        )
    assert _all_wrappers() == set()
    for name, homes in bindings.items():
        assert _module_bindings(originals[name][2]) == homes
    for owner, attr, fn in originals.values():
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            assert getattr(raw, "__func__", raw) is fn


def test_traced_report_counts_calls_and_matches_untraced():
    for poly in ("x-3/2", "x^2-x+5/6", "x^3-x-1"):
        plain = cli.build_report(places.build_system(poly), corpus.DEFAULT_LEFSCHETZ)
        t = tracer.Tracer()
        with t:
            traced = cli.build_report(places.build_system(poly), corpus.DEFAULT_LEFSCHETZ)
        assert traced == plain
        metrics = tracer.layer_metrics(t.totals, 1)
        assert metrics["engine.finite_part_homology.calls"] == 5
        assert metrics["engine.principalization.calls"] == 6
        assert metrics["cli.build_report.calls"] == 1


def test_self_times_add_up_to_the_outer_span():
    t = tracer.Tracer()
    with t, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter_ns()
        assert cli.main(["analyze", "--min-poly", "x^2-x-1", "--no-cache", "--json"]) == 0
        outer_ns = time.perf_counter_ns() - start
    total_ns = sum(v[tracer.SELF_NS] for v in t.totals.values())
    assert 0.9 * outer_ns <= total_ns <= outer_ns
    assert t.totals["cli.main"][tracer.CALLS] == 1


def _child(scratch: str, poly: str, trace: bool) -> tuple[int, dict | None, dict]:
    stats_file = os.path.join(scratch, "stats.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--stats-out", stats_file]
    if trace:
        argv.append("--trace")
    argv += ["analyze", "--min-poly", poly, "--no-cache", "--json"]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", SOLHOM_CACHE_DIR=scratch)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    report = json.loads(proc.stdout) if proc.returncode == 0 else None
    if report is not None:
        report.pop("timing_seconds")
    with open(stats_file) as fh:
        return proc.returncode, report, json.load(fh)


def test_traced_child_gives_the_same_answers(scratch):
    for poly in ("x^2-x-1", "x^3-2"):
        code, report, stats = _child(scratch, poly, False)
        traced_code, traced_report, traced_stats = _child(scratch, poly, True)
        assert (code, report) == (traced_code, traced_report)
        assert stats["trace"] is None
        assert isinstance(stats["samples"], list) and isinstance(traced_stats["samples"], list)
    assert traced_stats["trace"]["cli.main"][tracer.CALLS] == 1
    assert traced_stats["trace"]["places.build_system"][tracer.CALLS] >= 1


def test_answer_checks():
    recorded = answers.load()
    key = corpus.input_key("x^2-x+3/2")
    report = cli.build_report(places.build_system("x^2-x+3/2"), corpus.DEFAULT_LEFSCHETZ)
    assert answers.check_report(recorded, key, "x^2-x+3/2", report) == []

    rebased = copy.deepcopy(report)  # a change of basis moves towers and actions only
    for side in rebased["homology"].values():
        for record in side.values():
            record.pop("tower", None)
            record["action"] = [["7"]]
    assert answers.check_report(recorded, key, "x^2-x+3/2", rebased) == []

    wrong = copy.deepcopy(report)
    wrong["homology"]["stable"]["0"]["group"] = "Z[1/6]"
    assert answers.check_report(recorded, key, "x^2-x+3/2", wrong)

    wrong = copy.deepcopy(report)
    wrong["homology"]["unstable"]["1"]["signature"]["mod_p_ranks"] = [[2, 1], [3, 1]]
    assert answers.check_report(recorded, key, "x^2-x+3/2", wrong)

    wrong = copy.deepcopy(report)
    wrong["lefschetz"][2]["trace"] += 1
    assert answers.check_report(recorded, key, "x^2-x+3/2", wrong)


def test_refusal_checks():
    recorded = answers.load()
    key = corpus.input_key("x^3-2")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--min-poly", "x^3-2", "--no-cache", "--json"]) == 2
    assert "divides the index" in err.getvalue()  # IndexObstruction
    assert answers.refusal_problems(recorded, key, err.getvalue()) == []
    # exit code 2 for another hypothesis, or where an answer was recorded, is a failure
    other = "solhom: hypothesis violated: c has a root on the unit circle\n"
    assert answers.refusal_problems(recorded, key, other)
    assert answers.refusal_problems(recorded, corpus.input_key("x^2-x+3/2"), err.getvalue())
    assert answers.refusal_problems(recorded, "not recorded", err.getvalue())


def test_independent_checks_without_a_recorded_answer():
    report = cli.build_report(places.build_system("x+5/3"), corpus.DEFAULT_LEFSCHETZ)
    assert answers.rational_c("x+5/3") == -answers.Fraction(5, 3)
    assert answers.check_report(answers.load(), "not recorded", "x+5/3", report) == []
    for row in report["lefschetz"]:
        row["periodic_points"] += 1
        row["trace"] = row["periodic_points"]
    assert answers.check_report(answers.load(), "not recorded", "x+5/3", report)


def test_every_workload_input_has_a_recorded_outcome():
    recorded = answers.load()
    for poly, lefschetz in corpus.all_answer_inputs():
        assert corpus.input_key(poly, lefschetz) in recorded["inputs"]
    for a, b in corpus.all_kunneth_pairs():
        assert corpus.kunneth_key(a, b) in recorded["kunneth"]


def test_layer_metrics_cover_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = tracer.layer_metrics(tracer.Tracer().totals, 1)
    metrics["trace.overhead_share"] = 0.0
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)


def test_run_refuses_a_checkout_without_sources(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
