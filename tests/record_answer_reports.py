"""Record the `analyze --no-cache --json` output of every benchmark input.

Writes tests/data/answer_reports.json, which test_answers.py compares
byte for byte.  Each entry holds the exit code, stdout with the
`timing_seconds` field removed, and stderr.  Re-record only when a
change alters reports on purpose (a new basis, say), and say why:

    PYTHONPATH=src python tests/record_answer_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from solhom import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "answer_reports.json"


def answer_inputs() -> list[tuple[str, int]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return [(corpus.input_key(p, n), p, n) for p, n in corpus.all_answer_inputs()]


def run_analyze(poly: str, lefschetz: int) -> dict:
    argv = ["analyze", "--min-poly", poly, "--lefschetz", str(lefschetz), "--no-cache", "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    if code == 0:
        report = json.loads(stdout)
        del report["timing_seconds"]
        stdout = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue()}


def main() -> None:
    records = {key: run_analyze(poly, n) for key, poly, n in answer_inputs()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
