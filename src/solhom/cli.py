"""Command line interface: analyze a solenoid, combine fixtures, list
the registry, and run the built-in selftest.

Exit codes: 0 success, 1 bad input, 2 hypothesis violation (a conjugate
of c on the unit circle, or a precondition such as N > 1, or a Künneth
factor with a degree that has no closed form) or an input whose
irreducibility the method cannot decide, 3 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys
import time
import zlib
from fractions import Fraction
from pathlib import Path

from . import __version__
from .engine import (
    DegreeEntry,
    GradedGroup,
    certify_closed_forms,
    dual_principalization,
    duality_check,
    finite_part_homology,
    groupoid_homology,
    hk_check,
    k_theory,
    kunneth_product,
    lefschetz_traces,
    shifted_homology,
    transfer_colimit,
)
from .errors import (
    AtomClassExceeded,
    BoundaryRoot,
    HypothesisN1,
    IndexObstruction,
    InternalCheckError,
    IrreducibilityUndecided,
    ParseError,
    SolhomError,
    ZeroInput,
)
from .fgab import FgAbGroup, LocalizedForm, endomorphism
from .limits import InvariantSignature
from .linalg import IntMatrix
from .nfield import NumberField
from .places import SolenoidSystem, build_system, monic_min_poly
from .qpoly import Poly, clear_to_monic_integer, parse_poly

SCHEMA_VERSION = 2

DEFAULT_LEFSCHETZ = 6


# ---------------------------------------------------------------------------
# fixtures

FIXTURE_POLYS = {
    "torus-golden": "x^2-x-1",
    "sqrt-minus-5": "x^2-x+3/2",
}


def fixture_names() -> list[str]:
    return ["klein", "point", "solenoid:q/p", *sorted(FIXTURE_POLYS)]


def klein_fixture() -> tuple[list[FgAbGroup], list]:
    """Cell structure of the flat Klein bottle with the composed double
    transfer: degree zero scales by 9, degree one scales the free part
    by 3 and fixes the 2-torsion class."""
    z = FgAbGroup(1, ())
    z_tor = FgAbGroup(1, (2,))
    trivial = FgAbGroup(0, ())
    transfers = [
        endomorphism(z, IntMatrix([[9]])),
        endomorphism(z_tor, IntMatrix([[3, 0], [0, 1]])),
        None,
    ]
    return [z, z_tor, trivial], transfers


def _rational(text: str) -> Fraction:
    """A rational given on the command line; every such one is read here."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot read {text!r} as a rational") from exc


def _fixture_system(name: str) -> SolenoidSystem:
    if name.startswith("solenoid:"):
        return build_system(_rational(name.split(":", 1)[1]))
    if name in FIXTURE_POLYS:
        return build_system(FIXTURE_POLYS[name])
    raise ParseError(f"unknown fixture {name!r}; see the fixtures command")


def fixture_graded(name: str) -> GradedGroup:
    if name == "klein":
        return transfer_colimit(*klein_fixture())
    if name == "point":
        z = FgAbGroup(1, ())
        return transfer_colimit([z], [endomorphism(z, IntMatrix([[1]]))])
    return groupoid_homology(_fixture_system(name))


def fixture_detail(name: str) -> dict:
    if name == "klein":
        groups, transfers = klein_fixture()
        return {
            "kind": "transfer data",
            "degrees": [
                {
                    "group": g.pretty(),
                    "transfer": None if t is None else [list(r) for r in t.matrix.rows],
                }
                for g, t in zip(groups, transfers)
            ],
        }
    if name == "point":
        return {"kind": "transfer data", "degrees": [{"group": "Z", "transfer": [[1]]}]}
    return {"kind": "system", **_fixture_system(name).describe()}


# ---------------------------------------------------------------------------
# report assembly

def _ratio_str(x: int, m: int) -> str:
    """str(Fraction(x, m)) for m > 0, without building the Fraction."""
    g = math.gcd(x, m)
    return str(x // g) if g == m else f"{x // g}/{m // g}"


def _matrix_json(pair) -> list[list[str]]:
    A, m = pair
    if m == 1:
        return [list(map(str, row)) for row in A.rows]
    return [[_ratio_str(x, m) for x in row] for row in A.rows]


def _signature_only_json(group: str, sig: InvariantSignature, provenance: str) -> dict:
    return {
        "group": group,
        "signature": {"rank": sig.rank, "mod_p_ranks": [list(pair) for pair in sig.mod_p_ranks]},
        "provenance": provenance,
    }


def _graded_json(graded: GradedGroup) -> dict:
    out = {}
    for degree in sorted(graded.entries):
        entry = graded.entries[degree]
        if entry.is_zero():
            continue
        if entry.closed is not None:
            record = {"group": entry.closed.pretty(), "provenance": entry.provenance}
        else:
            G = entry.colimit
            record = _signature_only_json(
                f"colim(Z^{G.rank}, tower below)", G.signature, "tower (signature-only)"
            )
            record["tower"] = [list(r) for r in G.matrix.rows]
        if entry.action is not None:
            record["action"] = _matrix_json(entry.action)
        out[str(degree)] = record
    return out


def _k_group_json(degrees: dict[int, DegreeEntry]) -> dict:
    """A K-group, the direct sum of its unstable homology degrees: the
    sum of their closed forms, or, when one has none, the degrees it
    sums and their summed invariant signature."""
    entries = degrees.values()
    if all(e.closed is not None for e in entries):
        form = sum((e.closed for e in entries), LocalizedForm.zero())
        return {"group": form.pretty(), "provenance": "canonical_form"}
    names = " + ".join(f"H_{k}" for k in degrees)
    sig = InvariantSignature.direct_sum(e.colimit.signature for e in entries)
    return _signature_only_json(names, sig, "degree sum (signature-only)")


def build_report(sys_: SolenoidSystem, lefschetz_n: int) -> dict:
    """Full analysis of one system; side filtering happens at render
    time so cached payloads do not depend on it.

    Each side's finite part is built once: the forward one feeds
    unstable homology, K-theory, the H/K comparison and the reported
    principalization, the dual's feeds stable homology.  Only the
    forward side searches for a principal generator; the dual's comes
    from it, and for a unit c the dual's ladder too.  The two sides'
    actions are checked against each other by Jacobi duality, and each
    stable closed form is certified against its tower as hk_check
    certifies the unstable ones.
    """
    finite = finite_part_homology(sys_)
    k_groups = k_theory(sys_, finite)
    hk = hk_check(sys_, finite)
    dual = sys_.dual_system()
    unstable = shifted_homology(sys_, finite)
    found = dual_principalization(sys_, finite.principalization)
    stable = shifted_homology(dual, finite_part_homology(dual, found, finite.dual_ladders))
    duality_check(sys_, unstable, stable)
    certify_closed_forms((f"stable H_{k}", e) for k, e in sorted(stable.entries.items()))
    g, h = finite.principalization
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "system": sys_.describe(),
        "principalization": {"exponent": h, "generator_norm": str(g.norm())},
        "homology": {
            "unstable": _graded_json(unstable),
            "stable": _graded_json(stable),
        },
        "k_theory": {"K0": _k_group_json(k_groups[0]), "K1": _k_group_json(k_groups[1])},
        "hk": hk,
        "lefschetz": [],
    }
    # the count comes from the norm of c^n - 1 and the expanding places,
    # the trace from the transfer action and the contracting ones
    traces = lefschetz_traces(sys_, lefschetz_n)
    for n, (trace, count) in enumerate(zip(traces, sys_.periodic_counts(lefschetz_n)), start=1):
        if abs(trace) != count:
            raise InternalCheckError(
                f"period {n}: Lefschetz trace {trace} but {count} periodic points"
            )
        report["lefschetz"].append({"n": n, "trace": trace, "periodic_points": count})
    return report


def _record_lines(name: str, rec: dict) -> list[str]:
    """A group's line, then, for a signature-only record, the tower rows
    of a homology degree and the invariant signature: the rank and the
    rank of G/pG at each p."""
    lines = [f"  {name} = {rec['group']}   [{rec['provenance']}]"]
    if "tower" in rec:
        width = max(len(str(x)) for row in rec["tower"] for x in row)
        for i, row in enumerate(rec["tower"]):
            label = "tower" if i == 0 else ""
            lines.append(f"      {label:<11}" + " ".join(f"{x:>{width}}" for x in row))
    if "signature" in rec:
        sig = rec["signature"]
        lines.append(
            f"      signature  rank {sig['rank']}"
            + "".join(f", G/{p}G rank {r}" for p, r in sig["mod_p_ranks"])
        )
    return lines


def _render_text(report: dict, side: str) -> str:
    lines = []
    system = report["system"]
    lines.append(f"minimal polynomial   {system['min_poly']}")
    lines.append(
        f"field                degree {system['field_degree']}, "
        f"discriminant {system['field_discriminant']}"
    )
    arch = system["archimedean"]
    lines.append(
        "archimedean          "
        f"{arch['contracting_real']} contracting real, "
        f"{arch['contracting_complex_pairs']} contracting complex pair(s), "
        f"{arch['expanding_real']} expanding real, "
        f"{arch['expanding_complex_pairs']} expanding complex pair(s)"
    )
    for label, key in (("stable", "finite_stable"), ("unstable", "finite_unstable")):
        for place in system[key]:
            lines.append(
                f"finite {label:<9}    p = {place['p']}, e = {place['e']}, "
                f"f = {place['f']}, v(c) = {place['valuation']}"
            )
    lines.append(f"transfer index N     {system['transfer_index']}")
    lines.append(f"degree shift d       {system['degree_shift']}")
    lines.append(f"orientation sign     {system['orientation_sign']:+d}")
    p9n = report["principalization"]
    lines.append(f"principalization     exponent {p9n['exponent']}")
    sides = ("unstable", "stable") if side == "both" else (side,)
    for s in sides:
        lines.append(f"{s} homology:")
        graded = report["homology"][s]
        for degree in sorted(graded, key=int):
            lines += _record_lines(f"H_{degree}", graded[degree])
    lines.append("K-theory:")
    for name in ("K0", "K1"):
        lines += _record_lines(name, report["k_theory"][name])
    verdicts = report["hk"]["verdicts"]
    lines.append(
        f"homology/K comparison: K0 {verdicts['0']}, K1 {verdicts['1']}, rank identity holds"
    )
    lines.append("periodic points:")
    rows = [(row["n"], row["trace"], row["periodic_points"]) for row in report["lefschetz"]]
    # each column fits its widest entry after a space; small tables keep widths 5, 8, 10
    wn, wt, wc = (max([w] + [len(str(r[i])) + 1 for r in rows]) for i, w in enumerate((5, 8, 10)))
    lines.append(f"  {'n':<{wn}}{'trace':>{wt}}{'count':>{wc}}")
    for n, trace, count in rows:
        lines.append(f"  {n:<{wn}}{trace:>{wt}}{count:>{wc}}")
    lines.append(f"elapsed: {report['timing_seconds']:.3f}s" + (
        "  (cached)" if report.get("cache") == "hit" else ""
    ))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cache

def _cache_dir() -> Path:
    env = os.environ.get("SOLHOM_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "solhom"


def _cache_key(min_poly: str, lefschetz_n: int) -> str:
    """Key of a report: the monic minimal polynomial of c, which fixes
    the system, plus everything else the report depends on.  A checksum
    names the file, not a cryptographic hash (hashlib loads OpenSSL,
    about 3.6 MB resident), since _cache_read checks what it reads."""
    payload = {
        "min_poly": min_poly,
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "lefschetz": lefschetz_n,
    }
    text = json.dumps(payload, sort_keys=True).encode("utf-8")
    return f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"


def _cache_read(key: str, min_poly: str, lefschetz_n: int) -> dict | None:
    """The stored report for the key, when it is one for this request;
    a collision, a foreign or truncated file is a miss."""
    path = _cache_dir() / f"{key}.json"
    try:
        report = json.loads(path.read_text())
        stamp = (report["system"]["min_poly"], report["version"], report["schema_version"])
        if stamp == (min_poly, __version__, SCHEMA_VERSION) and len(report["lefschetz"]) == lefschetz_n:
            return report
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def _cache_write(key: str, report: dict) -> None:
    directory = _cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{key}.json"
        path.write_text(json.dumps(report, sort_keys=True) + "\n")
    except OSError:
        pass  # caching is best effort


# ---------------------------------------------------------------------------
# commands

def _min_poly_from_args(args) -> Poly:
    """The monic minimal polynomial of c, which fixes the system and so
    the cache key, read from the arguments without building the system."""
    if (args.c is None) == (args.min_poly is None):
        raise ParseError("provide exactly one of --c or --min-poly")
    if args.element is not None and args.min_poly is None:
        raise ParseError("--element needs --min-poly")
    if args.c is not None:
        return monic_min_poly(_rational(args.c))
    if args.element is None:
        return monic_min_poly(args.min_poly)
    poly = parse_poly(args.min_poly)
    if poly.degree < 1:
        raise ParseError("the minimal polynomial must be nonconstant")
    monic_int, scale = clear_to_monic_integer(poly.monic())
    field = NumberField(monic_int)
    root = field.gen().scale(Fraction(1, scale))
    value = field.evaluate(parse_poly(args.element), root)
    if value.is_zero():
        raise ZeroInput("the element evaluates to zero")
    return monic_min_poly(value.min_poly_over_q())


def cmd_analyze(args) -> int:
    """Look the report up first; only a miss builds the system.  Entries
    are written after a successful report, so a refused input never hits
    and is refused by build_system on every call."""
    start = time.perf_counter()
    min_poly = _min_poly_from_args(args)
    report = None
    cache_state = "miss"
    if not args.no_cache:
        text = min_poly.pretty()
        key = _cache_key(text, args.lefschetz)
        report = _cache_read(key, text, args.lefschetz)
        if report is not None:
            cache_state = "hit"
    if report is None:
        report = build_report(build_system(min_poly), args.lefschetz)
        if not args.no_cache:
            _cache_write(key, report)
    report = dict(report)
    report["timing_seconds"] = time.perf_counter() - start
    report["cache"] = cache_state
    if args.json:
        # one compact line: json uses its C encoder only when indent is None
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report, args.side))
    return 0


def cmd_kunneth(args) -> int:
    graded = fixture_graded(args.fixtures[0])
    for name in args.fixtures[1:]:
        graded = kunneth_product(graded, fixture_graded(name))
    payload = {
        str(d): graded.entry(d).closed.pretty() for d in graded.degrees()
    }
    if args.json:
        print(json.dumps({"factors": args.fixtures, "product": payload}, sort_keys=True))
    else:
        print(" x ".join(args.fixtures))
        if not payload:
            print("  0")
        for degree in sorted(payload, key=int):
            print(f"  H_{degree} = {payload[degree]}")
    return 0


def cmd_fixtures(args) -> int:
    if args.show:
        detail = fixture_detail(args.show)
        print(json.dumps(detail, sort_keys=True))
        return 0
    names = fixture_names()
    if args.json:
        print(json.dumps(names))
    else:
        for name in names:
            print(name)
    return 0


SELFTEST_CASES = (
    ("x-3/2", {0: "Z[1/3]", 1: "Z[1/2]"}),
    ("x^2-x-1", {-1: "Z", 0: "Z^2", 1: "Z"}),
    ("x^2-x+3/2", {0: "Z[1/3]", 2: "Z[1/2]"}),
)


def cmd_selftest(_args) -> int:
    failures = 0
    for poly, expected in SELFTEST_CASES:
        report = build_report(build_system(poly), 4)
        hom = report["homology"]["unstable"]
        ok = all(hom.get(str(d), {}).get("group") == want for d, want in expected.items())
        ok = ok and all(abs(row["trace"]) == row["periodic_points"] for row in report["lefschetz"])
        print(f"{'ok' if ok else 'FAIL'}  {poly}")
        failures += 0 if ok else 1
    klein = transfer_colimit(*klein_fixture())
    ok = klein.entry(1).pretty() == "Z[1/3] + Z/2"
    print(f"{'ok' if ok else 'FAIL'}  klein transfer colimit")
    failures += 0 if ok else 1
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# entry point

def _period_count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"the number of periods is at least 0, not {text}")
    return int(text)


@functools.cache  # once per process: building it costs about what a cache hit does
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solhom",
        description="Exact homology and K-theory of algebraic-number solenoids.",
    )
    parser.add_argument("--version", action="version", version=f"solhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full invariant report for one system")
    analyze.add_argument("--c", help="rational multiplier, e.g. 3/2")
    analyze.add_argument("--min-poly", help="minimal polynomial of c, e.g. x^2-x-1")
    analyze.add_argument(
        "--element",
        help="polynomial in x giving c in terms of the root of --min-poly",
    )
    analyze.add_argument(
        "--side", choices=("stable", "unstable", "both"), default="both"
    )
    analyze.add_argument(
        "--lefschetz", type=_period_count, default=DEFAULT_LEFSCHETZ, metavar="N",
        help="tabulate traces and counts for periods 1..N",
    )
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--no-cache", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    kunneth = sub.add_parser("kunneth", help="graded product of fixtures")
    kunneth.add_argument("fixtures", nargs="+", metavar="FIXTURE")
    kunneth.add_argument("--json", action="store_true")
    kunneth.set_defaults(func=cmd_kunneth)

    fixtures = sub.add_parser("fixtures", help="list or inspect the registry")
    fixtures.add_argument("--show", metavar="NAME")
    fixtures.add_argument("--json", action="store_true")
    fixtures.set_defaults(func=cmd_fixtures)

    selftest = sub.add_parser("selftest", help="quick end-to-end sanity battery")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot means hypothesis
        # violation here, so fold usage problems into the parse code
        return 0 if exc.code == 0 else 1
    try:
        code = args.func(args)
        _sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head -1`): stop quietly, with
        # stdout pointed at devnull so the flush at shutdown writes nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
    except (ParseError, ZeroInput, ValueError) as exc:
        print(f"solhom: {exc}", file=_sys.stderr)
        return 1
    except (AtomClassExceeded, BoundaryRoot, HypothesisN1, IndexObstruction) as exc:
        print(f"solhom: hypothesis violated: {exc}", file=_sys.stderr)
        return 2
    except IrreducibilityUndecided as exc:
        print(f"solhom: outside the supported class: {exc}", file=_sys.stderr)
        return 2
    except SolhomError as exc:
        print(f"solhom: internal: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
