"""Every benchmark input against its recorded answer, in-process.

perfbench/answers.json holds the answer of each input a benchmark
workload can run; perfbench/answers.py checks a report or a refusal
against it.  Running them here makes an answer change fail the test
suite, not only a benchmark run.  Nothing under perfbench/ is written.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

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
