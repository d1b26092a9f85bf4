"""Record the answers every workload is checked against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record.py

It analyzes every input a workload can run (about 30 s in all) and
rewrites perfbench/answers.json.  Re-record only when an answer is
meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json

from solhom import __version__, cli, engine

import answers
import corpus

NOTES = {
    corpus.input_key("x^2-x+3/2"): (
        "stable H_0 is recorded as computed, Z[1/3]; the paper gives Z[1/6]. "
        "This is the known criterion-2 deviation that "
        "tests/test_acceptance.py::test_criterion_2_sqrt_minus_five asserts."
    ),
}


def analyze(poly: str, lefschetz: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `solhom analyze --no-cache --json`."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["analyze", "--min-poly", poly, "--lefschetz", str(lefschetz), "--no-cache", "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record_input(poly: str, lefschetz: int) -> dict:
    code, out, err = analyze(poly, lefschetz)
    if code == 2:
        return {"outcome": answers.REFUSED, "stderr": err.strip()}
    if code != 0:
        raise SystemExit(f"{poly}: exit {code}: {err.strip()}")
    report = json.loads(out)
    problems = answers.independent_problems(poly, report)
    if problems:
        raise SystemExit(f"{poly}: {problems}")
    return {"outcome": answers.OK, "digest": answers.digest(report)}


def kunneth_products() -> dict:
    graded = {name: cli.fixture_graded(name) for name in corpus.KUNNETH_FIXTURES}
    out = {}
    for a, b in corpus.all_kunneth_pairs():
        product = engine.kunneth_product(graded[a], graded[b])
        out[corpus.kunneth_key(a, b)] = {
            str(d): product.entry(d).pretty() for d in product.degrees()
        }
    return out


def main() -> None:
    inputs = {}
    for poly, lefschetz in corpus.all_answer_inputs():
        inputs[corpus.input_key(poly, lefschetz)] = record_input(poly, lefschetz)
        print(f"{inputs[corpus.input_key(poly, lefschetz)]['outcome']:8} {poly} --lefschetz {lefschetz}")
    payload = {
        "recorded_with": f"solhom {__version__}",
        "notes": NOTES,
        "inputs": inputs,
        "kunneth": kunneth_products(),
    }
    with open(answers.ANSWERS_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
