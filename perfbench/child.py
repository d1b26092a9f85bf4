"""One hard-inputs case: `solhom analyze ...` in its own process.

    python3 perfbench/child.py --stats-out FILE [--trace] analyze --min-poly ... --no-cache --json

After the command ends, whatever its exit code, FILE gets as JSON the
machine-speed samples taken while it ran and, with --trace, the totals
of the same spans as in-process traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from solhom import cli

from calibration import Sampler
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    tracer = Tracer()
    with Sampler() as sampler, tracer if args.trace else contextlib.nullcontext():
        code = cli.main(args.command)
    with open(args.stats_out, "w") as fh:
        json.dump({"samples": sampler.samples, "trace": tracer.totals if args.trace else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
