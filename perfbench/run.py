"""The solhom benchmark: one run of one workload.

From the repository root:

    python3 perfbench/run.py --workload corpus-report --seed 1 --seconds 25 --trace 0

It builds nothing: solhom is stdlib-only Python and is imported from
./src.  A run measures set-up SETUP_SAMPLES times, each in a fresh
interpreter, and reports the median; then it runs the workload in one
more fresh interpreter (worker.py), checks every answer, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Exit code 1 when a process fails, 2 when
the checkout has no solhom sources or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("corpus-report", "cli-cache", "hard-inputs")
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170.0
HASH_SEED = "0"


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _worker(args, tmp: str, env: dict, timeout: float, *extra: str) -> list[str]:
    argv = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp, *extra,
    ]
    # A session of its own, so a timeout also ends a hard case's child.
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return out.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "solhom", "__init__.py")):
        return _fail(2, f"no solhom sources under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(2, f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Every process of the run shares one CPU, so that the calibration the
    # worker times beside each operation runs where the operation runs.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=src)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                lines = _worker(args, tmp, env, deadline - time.monotonic(), "--setup-only")
                setups.append(json.loads(lines[-1])["setup_s"])
        lines = _worker(args, tmp, env, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(1, str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(tmp))

    result = json.loads(lines[-1])
    values = dict(result["metrics"])
    if setups:
        values["setup_s"] = statistics.median(setups)
    print(f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}")
    for line in lines[:-1]:
        print(line)
    print(f"{args.workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, {result['refused']} refused")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return _fail(1, f"the run did not measure {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if args.trace:
        # Measured too, but left out of BENCHMARK.json (see README.md).
        names = {m["name"] for m in wanted}
        for name in sorted(set(values) - names):
            print(f"text only: {name} = {values[name]:.6g}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
