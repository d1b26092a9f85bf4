"""Checks of each operation's answer.

A report is compared with the recorded one on its digest: the closed
form of every nonzero homology degree on both sides (the invariant
signature where a degree is signature-only), the K-group forms, the
H/K verdicts with the rank identity, and the periodic-point counts.
Raw tower and action matrices are left out on purpose: they depend on
the basis the engine works in, which later changes may pick
differently without changing any answer.

Independent of any recorded answer, every report must also satisfy
|trace| = count on each Lefschetz row, a holding rank identity, no
H/K verdict "differ", and for rational c = q/p the closed form
|q^n - p^n| for the number of points of period n.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from corpus import kunneth_key

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")

OK, REFUSED, FAILED = "ok", "refused", "failed"


def load() -> dict:
    with open(ANSWERS_PATH) as fh:
        return json.load(fh)


def _group_digest(record: dict) -> dict:
    if "signature" in record:
        return {"signature": record["signature"]}
    return {"group": record["group"]}


def digest(report: dict) -> dict:
    """The parts of a report that no correct change may alter."""
    return {
        "homology": {
            side: {deg: _group_digest(rec) for deg, rec in report["homology"][side].items()}
            for side in ("unstable", "stable")
        },
        "k_theory": {name: _group_digest(report["k_theory"][name]) for name in ("K0", "K1")},
        "hk": report["hk"],
        "periodic_points": [row["periodic_points"] for row in report["lefschetz"]],
    }


def rational_c(poly: str) -> Fraction | None:
    """c for a degree-one input written x-q/p or x+q/p, else None."""
    if not poly.startswith(("x-", "x+")) or "x" in poly[1:]:
        return None
    value = Fraction(poly[2:])
    return value if poly[1] == "-" else -value


def independent_problems(poly: str, report: dict) -> list[str]:
    problems = []
    c = rational_c(poly)
    for row in report["lefschetz"]:
        n, trace, count = row["n"], row["trace"], row["periodic_points"]
        if abs(trace) != count:
            problems.append(f"period {n}: |trace| {abs(trace)} != count {count}")
        if c is not None and count != abs(c.numerator**n - c.denominator**n):
            problems.append(f"period {n}: count {count} != |q^n - p^n| for c = {c}")
    if report["hk"]["rank_identity"] is not True:
        problems.append("rank identity fails")
    if "differ" in report["hk"]["verdicts"].values():
        problems.append(f"H/K verdicts {report['hk']['verdicts']}")
    return problems


def check_report(answers: dict, key: str, poly: str, report: dict) -> list[str]:
    """Problems with a finished report; empty when it is right."""
    problems = independent_problems(poly, report)
    recorded = answers["inputs"].get(key)
    if recorded is None or recorded["outcome"] != OK:
        return problems
    got = digest(report)
    for part, want in recorded["digest"].items():
        if got[part] != want:
            problems.append(f"{part} differs from the recorded answer")
    return problems


def refusal_problems(answers: dict, key: str, stderr: str) -> list[str]:
    """Problems with a typed refusal (exit 2); empty when it is right.

    A refusal is right only where one was recorded, with the same
    message: exit code 2 alone does not tell which hypothesis failed."""
    recorded = answers["inputs"].get(key)
    if recorded is None or recorded["outcome"] != REFUSED:
        return [f"{key}: refused, but no refusal was recorded"]
    if stderr.strip() != recorded["stderr"]:
        return [f"{key}: refused with {stderr.strip()!r}, recorded {recorded['stderr']!r}"]
    return []


def check_kunneth(answers: dict, a: str, b: str, product: dict) -> list[str]:
    want = answers["kunneth"][kunneth_key(a, b)]
    return [] if product == want else [f"product {product} != recorded {want}"]
