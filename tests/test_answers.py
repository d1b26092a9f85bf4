"""Every benchmark input against its recorded answer, in-process.

perfbench/answers.json holds the answer of each input a benchmark
workload can run; perfbench/answers.py checks a report or a refusal
against it.  Running them here makes an answer change fail the test
suite, not only a benchmark run.  Nothing under perfbench/ is written.

tests/data/answer_reports.json pins more: the whole `--json` output of
each input, tower and action matrices included, byte for byte apart
from `timing_seconds`, with exit code and stderr.  A change that alters
a report on purpose (a new basis, say) re-records it with
tests/record_answer_reports.py and says why; its --diff mode, checked
here too, prints what a re-record would change and writes nothing.
tests/data/high_degree_reports.json pins `x^5-x-1` … `x^8-x-1` the
same way, since the benchmark inputs stop at degree 4, and
tests/data/report_digests.json pins the sha256 of `x^9-x-1`'s report
(tests/report_digest.py), whose 0.5 MB is too large to record, of
`x^2+x+7/2 --lefschetz 41`, whose last rows run to 35 digits, and of
`x^3-x/4-1/8`, `x^2+x+15/2` and `x^2-79/4`, the inputs CI also checks
for the degree >= 3 box search, for place analysis and for the
real-quadratic generator pick on both sides, and of `x^8-2` and
`x^9-2`, non-unit high-degree reports whose signatures take the stable
rank of every tower mod 2.
"""

import contextlib
import importlib
import io
import json
import math
from pathlib import Path

from record_answer_reports import (
    DATA,
    HIGH_DEGREE_DATA,
    answer_inputs,
    diff_lines,
    high_degree_inputs,
    run_analyze,
)
from report_digest import DIGESTS, analyze_argv, digest_key, report_digest
from solhom import cli
from solhom.engine import finite_part_homology, shifted_homology
from solhom.errors import SolhomError
from solhom.linalg import IntMatrix
from solhom.places import build_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_answer_input_matches_its_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus = importlib.import_module("corpus")
    answers = importlib.import_module("answers")
    recorded = answers.load()
    inputs = corpus.all_answer_inputs()
    problems = {}
    for poly, lefschetz in inputs:
        key = corpus.input_key(poly, lefschetz)
        argv = ["analyze", "--min-poly", poly, "--lefschetz", str(lefschetz), "--no-cache", "--json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == 0:
            found = answers.check_report(recorded, key, poly, json.loads(out.getvalue()))
        elif code == 2:
            found = answers.refusal_problems(recorded, key, err.getvalue())
        else:
            found = [f"exit {code}: {err.getvalue().strip()}"]
        if found:
            problems[key] = found
    assert len(inputs) == len(recorded["inputs"])
    assert problems == {}


def test_every_answer_report_is_byte_identical_to_its_recording():
    recorded = json.loads(DATA.read_text())
    inputs = answer_inputs()
    assert sorted(key for key, _, _ in inputs) == sorted(recorded)
    changed = [key for key, poly, n in inputs if run_analyze(poly, n) != recorded[key]]
    assert changed == []


def test_high_degree_reports_are_byte_identical_to_their_recording():
    recorded = json.loads(HIGH_DEGREE_DATA.read_text())
    inputs = high_degree_inputs()
    assert sorted(key for key, _, _ in inputs) == sorted(recorded)
    changed = [key for key, poly, n in inputs if run_analyze(poly, n) != recorded[key]]
    assert changed == []


def test_pinned_report_digests_hold():
    pinned = json.loads(DIGESTS.read_text())
    assert list(pinned) == [
        "x^9-x-1", digest_key("x^2+x+7/2", 41), "x^3-x/4-1/8", "x^2+x+15/2", "x^2-79/4",
        "x^8-2", "x^9-2",
    ]
    for key, digest in pinned.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(analyze_argv(key))
        assert code == 0
        assert report_digest(out.getvalue()) == digest, key


def test_every_action_over_the_answer_inputs_is_a_reduced_pair():
    checked = 0
    for poly in sorted({poly for _, poly, _ in answer_inputs()}):
        try:
            sys_ = build_system(poly)
        except SolhomError:
            continue  # refused inputs have no report
        for side in (sys_, sys_.dual_system()):
            finite = finite_part_homology(side)
            for graded in (finite, shifted_homology(side, finite)):
                for degree, entry in graded.entries.items():
                    A, m = entry.action
                    assert type(A) is IntMatrix and type(m) is int and m > 0, (poly, degree)
                    assert math.gcd(m, *(x for row in A.rows for x in row)) == 1, (poly, degree)
                    checked += 1
    assert checked > 100


def test_diff_mode_names_each_changed_path_and_writes_nothing(tmp_path):
    # one record with a changed and a dropped path, one input not yet
    # recorded, and one record whose input is gone
    inputs = [("x-3/2 --lefschetz 6", "x-3/2", 6), ("x-2 --lefschetz 6", "x-2", 6)]
    records = {key: run_analyze(poly, n) for key, poly, n in inputs}
    report = json.loads(records["x-3/2 --lefschetz 6"]["stdout"])
    report["schema_version"] = 1
    report["k_theory"]["K0"]["tower"] = [[3]]
    records["x-3/2 --lefschetz 6"]["stdout"] = json.dumps(report)
    records["x-5 --lefschetz 6"] = records.pop("x-2 --lefschetz 6")
    path = tmp_path / "reports.json"
    path.write_text(json.dumps(records))
    before = path.read_bytes()
    lines = diff_lines(path, inputs)
    assert path.read_bytes() == before
    assert len(lines) == 4
    assert lines[0].startswith("reports.json x-2 --lefschetz 6: (absent) -> {")
    assert lines[1:3] == [
        "reports.json x-3/2 --lefschetz 6/stdout/k_theory/K0/tower: [[3]] -> (absent)",
        "reports.json x-3/2 --lefschetz 6/stdout/schema_version: 1 -> 2",
    ]
    assert lines[3].startswith("reports.json x-5 --lefschetz 6: {") and lines[3].endswith("} -> (absent)")
