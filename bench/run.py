"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Run from the root of a plethax checkout: the package is imported from
`src/`, nothing needs installing.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: set-up time, cases per second,
median and 90th-percentile case latency, and peak resident size.  Times are
in reference seconds (see REFERENCE_RATE); the wall-clock figures go to
standard error.
--trace 1 reports the per-layer metrics from traced passes over a fixed
list of cases and writes the spans to bench/out/.
"""

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median of SETUP_REPEATS fresh interpreters, started between
# cases at even intervals across the run, so the calibration loop sees the
# machine at the same times as it sees the cases.
SETUP_REPEATS = 45
SETUP_COMMAND = [sys.executable, "-c", "import plethax, plethax.cli"]
# The end-to-end times are reported in reference seconds.  The 2-core VM
# this benchmark was built on changes speed by a third within minutes and
# by more within seconds (a fixed loop ran 74 to 140 times a second in
# successive 1-second windows), far more than a run can average out.  So
# the runner times a fixed calibration loop between cases, about every
# CALIBRATE_EVERY_S seconds, and scales each case's time by the loop's rate
# over that case, widened by CALIBRATE_EVERY_S on both sides, divided by
# REFERENCE_RATE: a reference second is the time the loop takes
# REFERENCE_RATE times.
CALIBRATE_EVERY_S = 0.25
REFERENCE_RATE = 100.0
# Rounds in the fixed case list of a traced pass, chosen so one untraced
# pass takes a few seconds.
TRACE_ROUNDS = {"verify-symbolic": 3, "verify-process": 2, "queries": 40}

# The per-layer metrics, in the order BENCHMARK.json lists them.  A name
# ending in .calls or .self_ms reads the span of that name; the others are
# counts kept by the tracer or ratios of them.
PER_LAYER = [
    "cli.main.calls",
    "cli.main.self_ms",
    "cli.output_bytes",
    "expansion.pmn_expand.calls",
    "expansion.pmn_expand.self_ms",
    "expansion.pmn_expand_iterated.calls",
    "expansion.pmn_expand_iterated.self_ms",
    "expansion.verify_against_oracle.self_ms",
    "expansion.verify_process_identity.self_ms",
    "expansion.terms",
    "partitions.enumerate_supersets.calls",
    "partitions.enumerate_supersets.self_ms",
    "partitions.enumerate_supersets.shapes",
    "partitions.r_decompose.calls",
    "partitions.r_decompose.self_ms",
    "partitions.Partition.constructed",
    "abacus.LabelledAbacus.constructed",
    "abacus.r_move.calls",
    "abacus.r_move.self_ms",
    "abacus.sign.calls",
    "abacus.sign.self_ms",
    "abacus.weight.calls",
    "abacus.all_abaci.self_ms",
    "process.enumerate_pairs.pairs",
    "process.enumerate_pairs.self_ms",
    "process.run_process.calls",
    "process.run_process.self_ms",
    "process.epsilon.calls",
    "process.epsilon.self_ms",
    "process.completed_ratio",
    "process.rerun_ratio",
    "polynomials.a_beta.calls",
    "polynomials.a_beta.self_ms",
    "polynomials.mul.calls",
    "polynomials.mul.self_ms",
    "polynomials.mul.terms_out",
    "polynomials.add.calls",
    "polynomials.add.self_ms",
    "polynomials.a_beta_eval.calls",
    "polynomials.a_beta_eval.self_ms",
    "polynomials.h_eval.calls",
    "polynomials.h_eval.self_ms",
    "trace.overhead_ratio",
]


def use_checkout_program():
    """Import plethax from this checkout's src/; exit 1 if it is not there."""
    if not (SRC / "plethax" / "__init__.py").is_file():
        sys.exit(f"error: no plethax package under {SRC}; run from a plethax checkout")
    sys.path.insert(0, str(SRC))


def calibration_loop():
    """Fixed pure-Python work: tuple-keyed dict updates and int arithmetic."""
    table, total = {}, 0
    for i in range(20_000):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total + len(table)


class Speed:
    """The machine's speed during a run, from the calibration loop."""

    def __init__(self):
        self.mids = []  # mid-point of each timed loop, in perf_counter seconds
        self.ns = []  # duration of each timed loop
        self.due = 0.0

    def sample(self):
        if time.perf_counter() >= self.due:
            start = time.perf_counter_ns()
            calibration_loop()
            end = time.perf_counter_ns()
            self.mids.append((start + end) / 2e9)
            self.ns.append(end - start)
            self.due = time.perf_counter() + CALIBRATE_EVERY_S

    def rate(self, lo=0, hi=None):
        """Loops per second over the timed loops lo to hi."""
        ns = self.ns[lo:hi]
        return len(ns) / (sum(ns) / 1e9)

    def scale(self):
        """Reference seconds per wall-clock second, over the whole run."""
        return self.rate() / REFERENCE_RATE

    def scale_over(self, start, end):
        """Reference seconds per wall-clock second from start to end."""
        lo = bisect.bisect_left(self.mids, start - CALIBRATE_EVERY_S)
        hi = bisect.bisect_right(self.mids, end + CALIBRATE_EVERY_S)
        return (self.rate(lo, hi) if hi > lo else self.rate()) / REFERENCE_RATE


class Setup:
    """Fresh-interpreter import times, taken between cases across a run."""

    def __init__(self, seconds):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.times = []
        self.once()  # the first import also writes the bytecode cache
        self.times.clear()
        self.start = time.perf_counter()
        self.every = seconds / SETUP_REPEATS

    def once(self):
        start = time.perf_counter()
        subprocess.run(SETUP_COMMAND, env=self.env, check=True, stdin=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)

    def sample(self):
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.start + len(self.times) * self.every:
            self.once()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return statistics.median(self.times)


class Tally:
    """Outcomes of the cases of a run: latencies, failures, wrong outputs."""

    def __init__(self, between=()):
        self.latencies_ns = []
        self.starts = []  # perf_counter seconds at the start of each timed case
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.between = between  # samplers to run between cases

    def run(self, case):
        """Time one case from outside the program, then check its output."""
        run, check = case
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            output = run()
        except Exception as exc:  # a program error fails this case, not the run
            self.failed += 1
            print(f"case failed: {exc!r}", file=sys.stderr)
            return
        self.latencies_ns.append(time.perf_counter_ns() - start)
        self.starts.append(start / 1e9)
        try:
            check(output)
        except Exception as exc:  # CheckError, or output that does not parse
            self.failed += 1
            self.wrong += 1
            print(f"wrong output: {exc}", file=sys.stderr)
        for sampler in self.between:
            sampler.sample()

    def busy_ns(self):
        return sum(self.latencies_ns)


def measure(workloads, name, seed, seconds, between=()):
    """Whole rounds of the workload until `seconds` have passed."""
    tally = Tally(between)
    deadline = time.perf_counter() + seconds
    for cases in workloads.WORKLOADS[name](seed):
        for case in cases:
            tally.run(case)
        if time.perf_counter() >= deadline:
            break
    return tally


def end_to_end(workloads, name, seed, seconds):
    speed = Speed()
    setup = Setup(seconds)
    tally = measure(workloads, name, seed, seconds, (speed, setup))
    done = tally.attempted - tally.failed
    latencies_ms = [ns / 1e6 for ns in tally.latencies_ns]
    scaled_ms = [ms * speed.scale_over(t, t + ms / 1e3) for ms, t in zip(latencies_ms, tally.starts)]
    setup_s = setup.median()
    print(
        f"{done} cases; calibration loop at {speed.rate():.2f}/s; wall-clock setup_s {setup_s:.6g}, "
        f"cases_per_s {done / (sum(latencies_ms) / 1e3):.6g}, case_p50_ms {statistics.median(latencies_ms):.6g}, "
        f"case_p90_ms {statistics.quantiles(latencies_ms, n=10)[-1]:.6g}",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (setup_s * speed.scale(), "s"),
        "cases_per_s": (done / (sum(scaled_ms) / 1e3), "1/s"),
        "case_p50_ms": (statistics.median(scaled_ms), "ms"),
        "case_p90_ms": (statistics.quantiles(scaled_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced(workloads, name, seed, seconds):
    """Alternate untraced and traced passes over one fixed list of cases.

    A first untraced pass warms the interpreter and is not timed into the
    overhead ratio.  Every traced pass must count the same work.
    """
    rounds = workloads.WORKLOADS[name](seed)
    cases = [case for cases in islice(rounds, TRACE_ROUNDS[name]) for case in cases]
    tally = Tally()
    for case in cases:
        tally.run(case)
    untraced_ns, traced_ns, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < 2 or time.perf_counter() < deadline:
        before = tally.busy_ns()
        for case in cases:
            tally.run(case)
        untraced_ns.append(tally.busy_ns() - before)
        tracer = Tracer()
        before = tally.busy_ns()
        with tracer.installed():
            for case in cases:
                tally.run(case)
        traced_ns.append(tally.busy_ns() - before)
        tracers.append(tracer)

    def work(t):
        return dict(t.totals()[0]), dict(t.counts)

    if any(work(t) != work(tracers[0]) for t in tracers):
        tally.wrong += 1
        print("traced passes over the same cases counted different work", file=sys.stderr)

    calls, _ = tracers[0].totals()
    counts = tracers[0].counts
    values = {"trace.overhead_ratio": statistics.median(traced_ns) / statistics.median(untraced_ns)}
    values["process.completed_ratio"] = ratio(counts["process.report.completed"], counts["process.report.pairs"])
    values["process.rerun_ratio"] = ratio(calls["process.run_process"], counts["process.enumerate_pairs.pairs"])
    metrics = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if metric in values:
            metrics[metric] = (values[metric], "ratio")
        elif kind == "calls":
            metrics[metric] = (calls[span], "count")
        elif kind == "self_ms":
            metrics[metric] = (statistics.median(t.totals()[1][span] for t in tracers) / 1e6, "ms")
        else:
            metrics[metric] = (counts[metric], "bytes" if metric == "cli.output_bytes" else "count")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "passes": len(tracers), **tracers[0].dump()}, indent=1)
    )
    return tally, metrics


def ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    run = traced if args.trace else end_to_end
    tally, metrics = run(workloads, args.workload, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
