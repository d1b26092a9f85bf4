"""Record the `analyze --no-cache --json` output of every benchmark input.

Writes tests/data/answer_reports.json, which test_answers.py compares
byte for byte, and tests/data/high_degree_reports.json, the same for
`x^5-x-1` … `x^8-x-1` (the benchmark inputs stop at degree 4).
Each entry holds the exit code, stdout with the `timing_seconds`
field removed, and stderr.  Re-record only when a
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
HIGH_DEGREE_DATA = DATA.with_name("high_degree_reports.json")
HIGH_DEGREE_INPUTS = [f"x^{d}-x-1" for d in range(5, 9)]
HIGH_DEGREE_LEFSCHETZ = 6


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


def high_degree_inputs() -> list[tuple[str, str, int]]:
    n = HIGH_DEGREE_LEFSCHETZ
    return [(f"{p} --lefschetz {n}", p, n) for p in HIGH_DEGREE_INPUTS]


def write_records(path: Path, inputs: list[tuple[str, str, int]]) -> None:
    records = {key: run_analyze(poly, n) for key, poly, n in inputs}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


def main() -> None:
    write_records(DATA, answer_inputs())
    write_records(HIGH_DEGREE_DATA, high_degree_inputs())


if __name__ == "__main__":
    main()
