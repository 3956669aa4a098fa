"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py
    python3 bench/steady.py --trace-check
    python3 bench/steady.py --drift

The first form runs every workload of BENCHMARK.json once for each of the
seeds 1 to 10 in each of two sets, for run_seconds each, alternating which
set runs first.  For each end-to-end metric and workload it prints each
set's median and quartiles, the spread (the distance between the quartiles
over the median) and the drift (how much worse the second set's median is
than the first's), both as shares next to the metric's bound.  It also
compares the share of failed operations between the sets.  It exits 1 when
any spread or drift exceeds its bound, or the failed shares differ.

The second form runs each workload traced twice with seed 1 and checks
that every per-layer count is identical; only times may differ.

The third form measures the machine, not plethax: it runs the runner's
calibration loop back to back for three minutes and prints, for windows of
1, 3 and 10 seconds, the range (max/min) and the spread of its rate.

Results go to bench/out/steady-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import calibration_loop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEEDS = range(1, 11)
DRIFT_SECONDS = 180


def run(spec, workload, seed, seconds, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(spec, workloads, seeds, seconds):
    results = {w: {"A": [], "B": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                result = run(spec, workload, seed, seconds, 0)
                results[workload][side].append(result)
                print(f"{workload} seed {seed} set {side}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    rows, ok = [], True
    for workload in workloads:
        sets = results[workload]
        shares = {
            side: sum(r["failed"] for r in sets[side]) / sum(r["attempted"] for r in sets[side])
            for side in "AB"
        }
        if shares["A"] != shares["B"] or not all(r["correct"] for side in "AB" for r in sets[side]):
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for side in "AB":
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in sets[side]])
                stats[side] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            a, b = stats["A"]["median"], stats["B"]["median"]
            drift = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spread = max(stats[side]["spread"] for side in "AB")
            good = drift <= bound and spread <= bound
            ok = ok and good
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"], "bound": bound,
                "A": stats["A"], "B": stats["B"], "drift": drift, "ok": good,
            })
            print(f"{workload:16s} {name:12s} A {a:10.4f} [{stats['A']['q1']:.4f}, {stats['A']['q3']:.4f}] "
                  f"B {b:10.4f} [{stats['B']['q1']:.4f}, {stats['B']['q3']:.4f}] "
                  f"spread {spread:6.2%} drift {drift:+6.2%} bound {bound:.0%} {'ok' if good else 'OUT'}")
        print(f"{workload:16s} failed share A {shares['A']:.6f} B {shares['B']:.6f}")
    return {"seeds": list(seeds), "seconds": seconds, "rows": rows, "runs": results}, ok


def trace_check(spec, workloads, seed, seconds):
    ok, report = True, {}
    for workload in workloads:
        first, second = (run(spec, workload, seed, seconds, 1) for _ in range(2))
        differ = [
            name for name, m in first["metrics"].items()
            if m["unit"] != "ms" and name != "trace.overhead_ratio"
            and m["value"] != second["metrics"][name]["value"]
        ]
        good = not differ and first["correct"] and second["correct"]
        ok = ok and good
        report[workload] = {"differ": differ, "first": first, "second": second}
        print(f"{workload:16s} traced counts {'identical' if good else 'DIFFER: ' + ', '.join(differ)}")
    return report, ok


def drift(seconds):
    ends, start = [], time.perf_counter()
    while not ends or ends[-1] < seconds:
        calibration_loop()
        ends.append(time.perf_counter() - start)
    report = {}
    for window in (1, 3, 10):
        counts = [0] * int(seconds // window)
        for end in ends:
            if end < len(counts) * window:
                counts[int(end // window)] += 1
        rates = [c / window for c in counts]
        if len(rates) < 2:
            continue
        q1, med, q3 = quartiles(rates)
        report[window] = {"rates": rates, "max_over_min": max(rates) / min(rates), "spread": (q3 - q1) / med}
        print(f"{window:3d} s windows: {len(rates)} windows, {min(rates):.1f} to {max(rates):.1f} loops/s, "
              f"max/min {max(rates) / min(rates):.3f}, spread {(q3 - q1) / med:.1%}")
    return report, True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--drift", action="store_true", help="measure the machine's speed drift")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.drift:
        report, ok = drift(DRIFT_SECONDS)
        kind = "drift"
    elif args.trace_check:
        report, ok = trace_check(spec, workloads, SEEDS[0], seconds)
        kind = "trace"
    else:
        report, ok = steadiness(spec, workloads, SEEDS, seconds)
        kind = "runs"
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{kind}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    verdict = "" if kind == "drift" else "steady; " if ok else "NOT steady; "
    print(f"{verdict}details in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
