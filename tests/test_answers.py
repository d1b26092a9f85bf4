"""Every benchmark input against its recorded answer, in-process.

perfbench/answers.json holds the answer of each input a benchmark
workload can run; perfbench/answers.py checks a report or a refusal
against it.  Running them here makes an answer change fail the test
suite, not only a benchmark run.  Nothing under perfbench/ is written.

tests/data/answer_reports.json pins more: the whole `--json` output of
each input, tower and action matrices included, byte for byte apart
from `timing_seconds`, with exit code and stderr.  A change that alters
a report on purpose (a new basis, say) re-records it with
tests/record_answer_reports.py and says why.
tests/data/high_degree_reports.json pins `x^5-x-1` … `x^8-x-1` the
same way, since the benchmark inputs stop at degree 4.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

from record_answer_reports import (
    DATA,
    HIGH_DEGREE_DATA,
    answer_inputs,
    high_degree_inputs,
    run_analyze,
)
from solhom import cli

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
