"""The sha256 digest of an `analyze --json` report, for inputs whose
whole report is too large to record.

The digest is taken over the report with `timing_seconds` and `cache`
removed, dumped as `analyze --json` prints it (sorted keys).
tests/data/report_digests.json pins the digest of each such input's
`analyze --no-cache --json --min-poly POLY [--lefschetz N]` report, under
POLY, or under `POLY --lefschetz N` when N is given:

    PYTHONPATH=src python -m solhom analyze --no-cache --json --min-poly 'x^9-x-1' \\
        | python tests/report_digest.py --check 'x^9-x-1'
    PYTHONPATH=src python -m solhom analyze --no-cache --json --min-poly 'x^2+x+7/2' \\
        --lefschetz 41 | python tests/report_digest.py --check 'x^2+x+7/2' --lefschetz 41

exits 1 when the digest differs.  Without --check it prints the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def report_digest(stdout: str) -> str:
    report = json.loads(stdout)
    del report["timing_seconds"], report["cache"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()


def digest_key(poly: str, lefschetz: int | None = None) -> str:
    """The name a digest is pinned under."""
    return poly if lefschetz is None else f"{poly} --lefschetz {lefschetz}"


def analyze_argv(key: str) -> list[str]:
    """The `analyze` arguments of the report pinned under key."""
    poly, _, lefschetz = key.partition(" --lefschetz ")
    argv = ["analyze", "--min-poly", poly, "--no-cache", "--json"]
    return argv + ["--lefschetz", lefschetz] if lefschetz else argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="POLY", help="compare with the digest pinned for POLY")
    parser.add_argument("--lefschetz", type=int, metavar="N", help="the report's period count")
    args = parser.parse_args(argv)
    digest = report_digest(sys.stdin.read())
    if args.check is None:
        print(digest)
        return 0
    key = digest_key(args.check, args.lefschetz)
    pinned = json.loads(DIGESTS.read_text())[key]
    if digest != pinned:
        print(f"{key}: report digest {digest}, pinned {pinned}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
