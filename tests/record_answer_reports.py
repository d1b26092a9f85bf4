"""Record the `analyze --no-cache --json` output of every benchmark input.

Writes tests/data/answer_reports.json, which test_answers.py compares
byte for byte, and tests/data/high_degree_reports.json, the same for
`x^5-x-1` … `x^8-x-1` (the benchmark inputs stop at degree 4).
Each entry holds the exit code, stdout with the `timing_seconds`
field removed, and stderr.  Re-record only when a
change alters reports on purpose (a new basis, say), and say why:

    PYTHONPATH=src python tests/record_answer_reports.py

With --diff nothing is written: each JSON path whose value a re-record
would change is printed as `file key/path: old -> new`, stdout read as
JSON, so the change can be stated before it is made:

    PYTHONPATH=src python tests/record_answer_reports.py --diff
"""

from __future__ import annotations

import argparse
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


def fresh_records(inputs: list[tuple[str, str, int]]) -> dict:
    return {key: run_analyze(poly, n) for key, poly, n in inputs}


def write_records(path: Path, inputs: list[tuple[str, str, int]]) -> None:
    records = fresh_records(inputs)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


ABSENT = object()


def changed_paths(old, new, path: str = ""):
    """(path, old, new) for each JSON path whose value differs; a key on
    one side only reads as ABSENT on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_paths(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}/{key}")
    elif old != new:
        yield path, old, new


def _readable(record):
    """A record with the stdout of a report parsed as JSON."""
    if record is ABSENT or record["exit"] != 0:
        return record
    return {**record, "stdout": json.loads(record["stdout"])}


def _shown(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value, sort_keys=True)


def diff_lines(path: Path, inputs: list[tuple[str, str, int]]) -> list[str]:
    recorded = json.loads(path.read_text()) if path.exists() else {}
    fresh = fresh_records(inputs)
    lines = []
    for key in sorted(recorded.keys() | fresh.keys()):
        old, new = _readable(recorded.get(key, ABSENT)), _readable(fresh.get(key, ABSENT))
        for where, a, b in changed_paths(old, new):
            lines.append(f"{path.name} {key}{where}: {_shown(a)} -> {_shown(b)}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true", help="print what a re-record would change; write nothing"
    )
    args = parser.parse_args(argv)
    targets = ((DATA, answer_inputs()), (HIGH_DEGREE_DATA, high_degree_inputs()))
    for path, inputs in targets:
        if args.diff:
            print("\n".join(diff_lines(path, inputs)) or f"{path.name}: no change")
        else:
            write_records(path, inputs)


if __name__ == "__main__":
    main()
