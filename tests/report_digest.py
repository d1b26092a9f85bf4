"""The sha256 digest of an `analyze --json` report, for inputs whose
whole report is too large to record.

The digest is taken over the report with `timing_seconds` and `cache`
removed, dumped as `analyze --json` prints it (sorted keys).
tests/data/report_digests.json pins the digest of each such input's
`analyze --no-cache --json --min-poly POLY` report:

    PYTHONPATH=src python -m solhom analyze --no-cache --json --min-poly 'x^9-x-1' \\
        | python tests/report_digest.py --check 'x^9-x-1'

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="POLY", help="compare with the digest pinned for POLY")
    args = parser.parse_args(argv)
    digest = report_digest(sys.stdin.read())
    if args.check is None:
        print(digest)
        return 0
    pinned = json.loads(DIGESTS.read_text())[args.check]
    if digest != pinned:
        print(f"{args.check}: report digest {digest}, pinned {pinned}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
