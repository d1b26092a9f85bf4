"""Inputs of the three workloads, and how a seed picks among them.

Every input here has an answer in answers.json, recorded from the
current code, so each operation can be checked.  The seed only picks
members of SEEDED_POOL and orders operations; it never invents an
input without a recorded answer.
"""

from __future__ import annotations

import random

DEFAULT_LEFSCHETZ = 6

# The registry fixtures that are systems (solenoid:3/2, sqrt-minus-5,
# torus-golden); klein and point are transfer data and only take part in
# the Kunneth products.
FIXTURE_SYSTEMS = ("x-3/2", "x^2-x+3/2", "x^2-x-1")
REPORT_CORPUS = FIXTURE_SYSTEMS + (
    "x^2+x+7/2",
    "x^2-x+5/6",
    "x^2-79/4",
    "x^3-x-1",
    "x^4-x-1",
)
# sqrt-minus-5 has a signature-only degree, so it has no Kunneth product.
KUNNETH_FIXTURES = ("klein", "point", "solenoid:3/2", "torus-golden")
KUNNETH_PER_PASS = 2

# Non-integral imaginary-quadratic c, chosen so that one report on each
# takes 85-125 ms on the reference machine: which ones a seed picks then
# moves a pass's time by a few percent at most.
SEEDED_POOL = (
    "x^2-x+5/2", "x^2-x+13/2", "x^2-x+4/3", "x^2-x+13/3",
    "x^2-x+8/5", "x^2-x+7/6", "x^2-x+11/6", "x^2-x+4/7",
    "x^2+13/2", "x^2+17/2", "x^2+23/2", "x^2+10/3",
    "x^2+13/3", "x^2+11/5", "x^2+26/5", "x^2+8/7",
    "x^2+x+15/2", "x^2+x+25/2", "x^2+x+4/3", "x^2+x+11/3",
    "x^2+x+8/5", "x^2+x+18/5", "x^2+x+5/7", "x^2+x+10/7",
)
SEEDED_REPORTS = 3
SEEDED_CACHE_INPUTS = 2

# A cache hit on the last input still pays for build_system, because the
# cache lookup comes after it.
CACHE_INPUTS = ("x-3/2", "x^2-x-1", "x^2-x+5/6", "x^2+x+7/2", "x^2-79/4", "x^2-x+1000003/7")
WARM_CALLS = 5

# (min_poly, lefschetz periods).  The first three finish in 5-7 s, each
# in a different cliff: the real-quadratic principal generator search on
# the dual, the rational-root loop of is_irreducible_over_q (run on both
# sides), and norm factoring in periodic_points.  The cubics are refused
# with an index obstruction (exit 2).
HARD_CASES = (
    ("x^2-1009", DEFAULT_LEFSCHETZ),
    ("x^2+40000003", DEFAULT_LEFSCHETZ),
    ("x^2+x+7/2", 41),
    ("x^3-2", DEFAULT_LEFSCHETZ),
    ("x^3-3/2", DEFAULT_LEFSCHETZ),
)


def input_key(poly: str, lefschetz: int = DEFAULT_LEFSCHETZ) -> str:
    """Key of an input in answers.json."""
    return f"{poly} --lefschetz {lefschetz}"


def kunneth_key(a: str, b: str) -> str:
    return f"{a} * {b}"


def all_kunneth_pairs() -> list[tuple[str, str]]:
    return [(a, b) for a in KUNNETH_FIXTURES for b in KUNNETH_FIXTURES]


def report_corpus(rng: random.Random) -> list[str]:
    return list(REPORT_CORPUS) + rng.sample(SEEDED_POOL, SEEDED_REPORTS)


def cache_inputs(rng: random.Random) -> list[str]:
    return list(CACHE_INPUTS) + rng.sample(SEEDED_POOL, SEEDED_CACHE_INPUTS)


def all_answer_inputs() -> list[tuple[str, int]]:
    """Every (min_poly, lefschetz) a workload can run."""
    polys = REPORT_CORPUS + SEEDED_POOL + CACHE_INPUTS
    return list(dict.fromkeys([(p, DEFAULT_LEFSCHETZ) for p in polys] + list(HARD_CASES)))
