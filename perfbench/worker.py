"""The measuring process of one benchmark run.

run.py starts it in a fresh interpreter with a fixed PYTHONHASHSEED and
PYTHONPATH=src, so no state carries over between runs: qpoly's module
random generator advances on every factor_mod_p call, and nfield keeps
per-object caches.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR [--setup-only]

Its last stdout line is one JSON object for run.py.  Each workload is a
closed loop with one caller: the next operation starts when the last
one has finished, and at most one child process runs at a time.
"""

import time

from calibration import REFERENCE_S, Sampler, calibrate  # stdlib only, not part of set-up

CAL_T0 = calibrate()
T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from solhom import cli, engine, places  # noqa: E402

import answers  # noqa: E402
import corpus  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# About five times the slowest hard case (7 s of wall time on a 2-vCPU
# Xeon VM), so no case flips between finishing and timing out from noise.
HARD_CASE_TIMEOUT_S = 30.0

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def _timed(fn, *args) -> tuple:
    """fn(*args), its time less the speed samples taken while it ran, and
    those samples."""
    with Sampler() as sampler:
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
    return result, elapsed - sum(sampler.samples), sampler.samples


def _analyze_argv(poly: str, lefschetz: int, *extra: str) -> list[str]:
    return ["analyze", "--min-poly", poly, "--lefschetz", str(lefschetz), *extra, "--json"]


class Workload:
    layer_base: str | None = None  # label of the ops per-layer numbers are per; None: all

    def __init__(self, seed: int, tmp: str):
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.answers = answers.load()

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def tracing(self, tracer: Tracer):
        return tracer

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CorpusReport(Workload):
    """Passes of build_report over the report corpus, with two Kunneth
    products of fixtures in each pass, in a seeded order."""

    layer_base = "report"

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.polys = corpus.report_corpus(self.rng)
        self.graded = {name: cli.fixture_graded(name) for name in corpus.KUNNETH_FIXTURES}
        self.pairs = self.rng.sample(corpus.all_kunneth_pairs(), corpus.KUNNETH_PER_PASS)

    def warm_up(self) -> None:
        cli.build_report(places.build_system("x-3/2"), corpus.DEFAULT_LEFSCHETZ)

    def next_pass(self) -> list:
        ops = [("report", p) for p in self.polys] + [("kunneth", a, b) for a, b in self.pairs]
        self.rng.shuffle(ops)
        return ops

    def run(self, op) -> tuple:
        if op[0] == "kunneth":
            _, a, b = op
            product, elapsed, samples = _timed(engine.kunneth_product, self.graded[a], self.graded[b])
            got = {str(d): product.entry(d).pretty() for d in product.degrees()}
            problems = answers.check_kunneth(self.answers, a, b, got)
            return elapsed, samples, _outcome(problems), "kunneth", problems
        poly = op[1]
        report, elapsed, samples = _timed(self.report, poly)
        problems = answers.check_report(self.answers, corpus.input_key(poly), poly, report)
        return elapsed, samples, _outcome(problems), "report", problems

    @staticmethod
    def report(poly: str) -> dict:
        return cli.build_report(places.build_system(poly), corpus.DEFAULT_LEFSCHETZ)


class CliCache(Workload):
    """In-process `solhom analyze --json` with a fresh cache directory per
    pass: one cold call (a miss) per input, then WARM_CALLS hits each,
    shuffled so reads run beside writes."""

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.inputs = corpus.cache_inputs(self.rng)
        self.passes = 0

    def warm_up(self) -> None:
        self.begin_pass()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(_analyze_argv("x-3/2", corpus.DEFAULT_LEFSCHETZ))
        self.end_pass()

    def next_pass(self) -> list:
        order = [p for p in self.inputs for _ in range(1 + corpus.WARM_CALLS)]
        self.rng.shuffle(order)
        seen = set()
        ops = []
        for poly in order:
            ops.append((poly, "hit" if poly in seen else "miss"))
            seen.add(poly)
        return ops

    def begin_pass(self) -> None:
        self.passes += 1
        os.environ["SOLHOM_CACHE_DIR"] = os.path.join(self.tmp, f"cache-{self.passes}")

    def end_pass(self) -> None:
        shutil.rmtree(os.environ["SOLHOM_CACHE_DIR"], ignore_errors=True)

    def run(self, op) -> tuple:
        poly, expect = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, elapsed, samples = _timed(cli.main, _analyze_argv(poly, corpus.DEFAULT_LEFSCHETZ))
        if code != 0:
            return elapsed, samples, answers.FAILED, expect, [f"{poly}: exit {code}"]
        report = json.loads(out.getvalue())
        problems = answers.check_report(self.answers, corpus.input_key(poly), poly, report)
        if report.get("cache") != expect:
            problems.append(f"{poly}: cache {report.get('cache')}, expected {expect}")
        return elapsed, samples, _outcome(problems), expect, problems


class HardInputs(Workload):
    """Passes over the hard cases, each as `solhom analyze --no-cache
    --json` in its own child process under a per-case timeout."""

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.trace_to: Tracer | None = None

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(_analyze_argv("x^3-2", corpus.DEFAULT_LEFSCHETZ, "--no-cache"))

    def next_pass(self) -> list:
        cases = list(corpus.HARD_CASES)
        self.rng.shuffle(cases)
        return cases

    @contextlib.contextmanager
    def tracing(self, tracer: Tracer):
        self.trace_to = tracer
        try:
            yield tracer
        finally:
            self.trace_to = None

    def run(self, op) -> tuple:
        poly, lefschetz = op
        key = corpus.input_key(poly, lefschetz)
        stats_file = os.path.join(self.tmp, "case-stats.json")
        argv = [sys.executable, CHILD, "--stats-out", stats_file]
        if self.trace_to is not None:
            argv.append("--trace")
        argv += _analyze_argv(poly, lefschetz, "--no-cache")
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=HARD_CASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return HARD_CASE_TIMEOUT_S, [], answers.FAILED, "timeout", [f"{key}: timeout"]
        elapsed = time.perf_counter() - start
        with open(stats_file) as fh:
            stats = json.load(fh)
        os.remove(stats_file)
        if self.trace_to is not None:
            self.trace_to.merge(stats["trace"])
        samples = stats["samples"]  # taken inside the child; their time is not the case's
        elapsed -= sum(samples)
        if proc.returncode == 2:
            problems = answers.refusal_problems(self.answers, key, proc.stderr)
            return elapsed, samples, answers.FAILED if problems else answers.REFUSED, "refused", problems
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return elapsed, samples, answers.FAILED, "crash", [f"{key}: exit {proc.returncode}: {tail[0]}"]
        report = json.loads(proc.stdout)
        problems = answers.check_report(self.answers, key, poly, report)
        return elapsed, samples, _outcome(problems), "finished", problems

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _outcome(problems: list[str]) -> str:
    return answers.FAILED if problems else answers.OK


WORKLOADS = {"corpus-report": CorpusReport, "cli-cache": CliCache, "hard-inputs": HardInputs}


class Tally:
    """Operation times at the reference speed, outcomes and pass times."""

    def __init__(self):
        self.durations: list[float] = []
        self.raw: list[float] = []  # wall-clock times as measured
        self.by_label: dict[str, list[float]] = {}
        self.outcomes = {answers.OK: 0, answers.REFUSED: 0, answers.FAILED: 0}
        self.problems: list[str] = []
        self.pass_times: list[float] = []

    def run_pass(self, workload, ops: list) -> None:
        workload.begin_pass()
        busy = 0.0
        cal_before = calibrate()
        for op in ops:
            try:
                raw, samples, outcome, label, problems = workload.run(op)
            except Exception as exc:  # a crash is a failed operation, not a stop
                raw, samples, outcome, label = 0.0, [], answers.FAILED, "crash"
                problems = [f"{op}: {type(exc).__name__}: {exc}"]
            cal_after = calibrate()
            # the speed the operation ran at: sampled inside it, and beside it
            speed = statistics.fmean([cal_before, *samples, cal_after])
            elapsed = raw * REFERENCE_S / speed
            cal_before = cal_after
            busy += elapsed
            self.raw.append(raw)
            self.durations.append(elapsed)
            self.by_label.setdefault(label, []).append(elapsed)
            self.outcomes[outcome] += 1
            self.problems.extend(problems)
        workload.end_pass()
        self.pass_times.append(busy)

    def base(self, label: str | None) -> int:
        return len(self.by_label.get(label, [])) if label else len(self.durations)


def run_passes(workload, tally: Tally, seconds: float) -> list:
    """Whole passes until `seconds` have gone by, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = workload.next_pass()
        tally.run_pass(workload, ops)
        passes.append(ops)
    return passes


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(workload, tally: Tally) -> tuple[dict, list[str]]:
    d = tally.durations
    p95 = _p95(d)
    metrics = {
        "peak_rss_mb": workload.peak_rss_kb() / 1024,
        "wall_s": statistics.median(tally.pass_times),
        "ops_per_s": len(d) / sum(d),
        "op_ms_p50": statistics.median(d) * 1000,
        "op_ms_p95": p95 * 1000,
    }
    lines = [
        f"samples: {len(d)} ops in {len(tally.pass_times)} passes; "
        f"{sum(x > p95 for x in d)} ops above p95",
        f"wall clock: op_ms_p50 = {statistics.median(tally.raw) * 1000:.3f} ms, "
        f"op_ms_p95 = {_p95(tally.raw) * 1000:.3f} ms; times scale by "
        f"{sum(d) / sum(tally.raw):.3f} to the reference speed",
    ]
    for label, values in sorted(tally.by_label.items()):
        lines.append(f"{label}_ms_p50 = {statistics.median(values) * 1000:.3f} ms (n={len(values)})")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    os.environ["SOLHOM_CACHE_DIR"] = os.path.join(args.tmp, "cache")
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        cal = (CAL_T0 + calibrate()) / 2
        print(json.dumps({"setup_s": setup_s * REFERENCE_S / cal}))
        return 0

    tally = Tally()
    if args.trace:
        passes = run_passes(workload, tally, args.seconds / 2)
        traced = Tally()
        tracer = Tracer()
        with workload.tracing(tracer):
            for ops in passes:
                traced.run_pass(workload, ops)
        metrics = layer_metrics(tracer.totals, traced.base(workload.layer_base),
                                sum(traced.durations) / sum(traced.raw))
        metrics["trace.overhead_share"] = sum(traced.durations) / sum(tally.durations) - 1
        lines = [f"traced {len(traced.durations)} ops in {len(passes)} passes; "
                 f"slowest traced op {max(traced.raw):.3f} s wall clock"]
        for key in tally.outcomes:
            tally.outcomes[key] += traced.outcomes[key]
        tally.problems += traced.problems
    else:
        run_passes(workload, tally, args.seconds)
        metrics, lines = end_to_end(workload, tally)

    for line in lines + tally.problems[:20]:
        print(line)
    print(json.dumps({
        "attempted": sum(tally.outcomes.values()),
        "failed": tally.outcomes[answers.FAILED],
        "refused": tally.outcomes[answers.REFUSED],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
