"""Check that the benchmark is steady: two sets of runs of the same
commit must agree within BENCHMARK.json's bounds.

From the repository root:

    python3 perfbench/steadiness.py

It runs SETS sets of seeds 1..RUNS on every workload, with tracing off,
and saves each run's JSON line to .perfbench_runs/set<k>.jsonl (earlier
sets there are removed first).  For every workload and end-to-end
metric it then prints each set's median and spread (the distance
between the first and third quartile as a share of the median) and how
far the second set's median moved from the first's in the worse
direction.  A spread or a shift above the bound fails; a spread above a
third of the bound is flagged as tight.  Exit code 1 on any failure.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
OUT = ".perfbench_runs"
SETS = 2
RUNS = 10


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _run_sets(spec: dict, workloads: list[str]) -> list[dict]:
    os.makedirs(OUT, exist_ok=True)
    for name in os.listdir(OUT):
        if name.startswith("set") and name.endswith(".jsonl"):
            os.remove(os.path.join(OUT, name))
    sets = []
    for k in range(1, SETS + 1):
        runs: dict = {}
        for workload in workloads:
            for seed in range(1, RUNS + 1):
                argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(argv, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                result = json.loads(proc.stdout.splitlines()[-1])
                record = {"workload": workload, "seed": seed, **result}
                runs.setdefault(workload, []).append(record)
                with open(os.path.join(OUT, f"set{k}.jsonl"), "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                values = {m: v["value"] for m, v in result["metrics"].items()}
                print(f"set {k} {workload} seed {seed}: failed {result['failed']} "
                      + " ".join(f"{m}={v:.4g}" for m, v in values.items()), flush=True)
        sets.append(runs)
    return sets


def _report(spec: dict, workloads: list[str], sets: list[dict]) -> int:
    bad = 0
    print(f"{'workload':14} {'metric':12} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}" for i in range(len(sets))
    ) + f" {'worse':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, verdict = [], [], "ok"
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                median, spread = statistics.median(values), _spread(values)
                medians.append(median)
                cells.append(f"{median:11.5g} {spread:8.3f}")
                if spread > bound:
                    verdict = "FAIL spread"
                elif spread > bound / 3 and verdict == "ok":
                    verdict = "tight"
            change = (medians[-1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict = "FAIL shift"
            bad += verdict.startswith("FAIL")
            print(f"{workload:14} {name:12} {bound:6.2f} {' '.join(cells)} {worse:7.3f}  {verdict}")
    return 1 if bad else 0


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    return _report(spec, workloads, _run_sets(spec, workloads))


if __name__ == "__main__":
    sys.exit(main())
