"""The benchmark's workloads: seeded streams of cases and the check of each.

A case is a pair (run, check).  `run()` makes one call into plethax and
returns what it gave back; the runner times it.  `check(output)` runs
outside the timed part and raises checks.CheckError when the output is
wrong.  Plethax functions are looked up on their modules at call time, so
the tracer's wrappers see every call.

Each workload is a stream of rounds.  A round draws a fixed number of
cases from each stratum of its input space, so every round has the same
make-up and a run's mix of cheap and costly cases does not depend on the
seed.  Each stratum is dealt from a deck the seed shuffles, so a run sweeps
a stratum before it repeats a case.
"""

import contextlib
import io
import json
import random
from math import comb, factorial

import checks
from plethax import cli, expansion
from plethax.partitions import Partition


def partitions(k, cap=None):
    """All partitions of k with parts at most cap, as tuples."""
    cap = k if cap is None else cap
    if k == 0:
        return [()]
    return [
        (p,) + rest
        for p in range(min(k, cap), 0, -1)
        for rest in partitions(k - p, p)
    ]


def text(parts):
    return ",".join(str(p) for p in parts)


class Deck:
    """Deals the items of a stratum in seeded order, reshuffling each lap."""

    def __init__(self, items, rng):
        self.items = list(items)
        self.rng = rng
        self.hand = []

    def deal(self):
        if not self.hand:
            self.hand = self.rng.sample(self.items, len(self.items))
        return self.hand.pop()


def stratified_rounds(strata, plan, seed, make_case):
    """Yield rounds of cases: plan maps each stratum key to its draws per round."""
    rng = random.Random(seed)
    decks = {key: Deck(strata[key], rng) for key in plan}
    while True:
        yield [make_case(decks[key].deal()) for key, draws in plan.items() for _ in range(draws)]


# -- verify-symbolic --------------------------------------------------------

# N! * C(m+N-1, N-1) monomials in the product: past 200k a single case takes
# seconds (N=7 with m >= 3, N=6 with m=6), which would leave too few cases
# in a run for a tail percentile.
SYMBOLIC_MAX_PRODUCT = 200_000
# Draws per round, keyed by N and m.  The four cheaper cases of a round take
# under 30 ms, and the six (6, 1) cases 22 to 49 ms, so the median falls in
# the middle of the (6, 1) block.  The 90th percentile falls 30% of the way
# into the (7, 2) block.  "mid" holds N=6 with m >= 3 and N=7 with m=1, whose
# costs overlap (100 to 450 ms).
SYMBOLIC_PLAN = {4: 2, 5: 2, (6, 1): 6, (6, 2): 1, "mid": 1, (7, 2): 2}


def symbolic_key(n, m):
    if n < 6:
        return n
    if (n, m) in SYMBOLIC_PLAN:
        return (n, m)
    return "mid"


def symbolic_strata():
    strata = {key: [] for key in SYMBOLIC_PLAN}
    for n in range(4, 8):
        for size in (n - 1, n):
            for r in range(1, size + 1):
                for m in range(1, size // r + 1):
                    if factorial(n) * comb(m + n - 1, n - 1) > SYMBOLIC_MAX_PRODUCT:
                        continue
                    strata[symbolic_key(n, m)].extend((mu, r, m, n) for mu in partitions(size - r * m))
    return strata


def symbolic_case(params):
    mu, r, m, n = params
    lam = Partition(mu)
    support = checks.supersets(mu, r, m)

    def run():
        return expansion.verify_against_oracle(lam, r, m, n, mode="symbolic")

    def check(report):
        checks.check_symbolic_report(
            {"ok": report.ok, "terms": report.terms, "detail": report.detail}, support, n
        )

    return run, check


def symbolic_rounds(seed):
    return stratified_rounds(symbolic_strata(), SYMBOLIC_PLAN, seed, symbolic_case)


# -- verify-process ---------------------------------------------------------

# Draws per round, keyed by N (and m).  A (5, 1) case takes 102 to 112 ms,
# and the five cheaper cases of a round all take under 92 ms, so the four
# (5, 1) cases hold the median in the middle of a narrow block.  The 90th
# percentile falls 40% of the way into the (5, 3) block.
PROCESS_PLAN = {"small": 1, 3: 1, (4, 1): 1, (4, 2): 1, (4, 3): 1, (5, 1): 4, (5, 2): 2, (5, 3): 2}


def process_strata():
    strata = {key: [] for key in PROCESS_PLAN}
    for n in range(1, 6):
        for size in range(4):
            for mu in partitions(size):
                if len(mu) > n:
                    continue
                for r in (1, 2, 3):
                    for m in (1, 2, 3):
                        key = "small" if n < 3 else 3 if n == 3 else (n, m)
                        strata[key].append((mu, r, m, n))
    return strata


def process_case(params):
    mu, r, m, n = params
    lam = Partition(mu)
    support = checks.supersets(mu, r, m)

    def run():
        return expansion.verify_process_identity(lam, r, m, n)

    def check(report):
        checks.check_process_report(
            {
                "ok": report.ok,
                "pairs": report.n_pairs,
                "aborted": report.n_aborted,
                "completed": report.n_completed,
                "detail": report.detail,
            },
            support,
            n,
            m,
        )

    return run, check


def process_rounds(seed):
    return stratified_rounds(process_strata(), PROCESS_PLAN, seed, process_case)


# -- queries ----------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_case(argv, check_output):
    def check(result):
        code, out, err = result
        checks.require(code == 0 and not err, f"{argv} exited {code}: {err.strip()}")
        check_output(out)

    return (lambda: run_cli(argv)), check


def expansion_terms(out, fmt):
    if fmt == "json":
        return [(rec["partition"], rec["coeff"]) for rec in json.loads(out)["result"]["terms"]]
    return checks.parse_expansion(out, fmt)


def expand_case(rng, fmt):
    mu = rng.choice(partitions(rng.randint(0, 4)))
    r = rng.randint(1, 4)
    m = rng.randint(1, 3)
    argv = ["expand", "--mu", text(mu), "--r", str(r), "--m", str(m), "--format", fmt]
    return cli_case(argv, lambda out: checks.check_expansion(expansion_terms(out, fmt), mu, [(r, m)]))


def iterated_case(params, fmt):
    mu, rho, nu = params
    factors = [(r, m) for r in rho for m in nu]
    argv = ["expand", "--mu", text(mu), "--rho", text(rho), "--nu", text(nu), "--format", fmt]
    return cli_case(argv, lambda out: checks.check_expansion(expansion_terms(out, fmt), mu, factors))


def sgn_case(rng, fmt):
    inner = rng.choice(partitions(rng.randint(0, 4)))
    r = rng.randint(1, 4)
    support = checks.supersets(inner, r, rng.randint(1, 3))
    outer = rng.choice(sorted(support))
    argv = ["sgn", "--outer", text(outer), "--inner", text(inner), "--r", str(r), "--format", fmt]

    def check_output(out):
        if fmt == "json":
            result = json.loads(out)["result"]
            sign, chain = result["sign"], result["chain"]
        else:
            sign, chain = checks.parse_sgn_plain(out)
        checks.check_chain(outer, inner, r, sign, chain, support[outer])

    return cli_case(argv, check_output)


def trace_case(rng, fmt):
    n = rng.randint(3, 7)
    slots = rng.sample(range(n + 4), n)
    labels = rng.sample(range(1, n + 1), n)
    positions = dict(zip(labels, slots))
    beta = [0] * n
    for _ in range(rng.randint(1, 4)):
        beta[rng.randrange(n)] += 1
    r = rng.randint(1, 3)
    pairs = ",".join(f"{p}:{b}" for p, b in sorted(zip(slots, labels)))
    argv = ["trace", "--abacus", pairs, "--beta", text(beta), "--r", str(r), "--format", fmt]

    def check_output(out):
        if fmt == "json":
            printed = checks.parse_trace_json(json.loads(out)["result"])
        else:
            printed = checks.parse_trace_plain(out)
        checks.check_trace(positions, beta, r, printed)

    return cli_case(argv, check_output)


def verify_argv(mu, r, m, n, mode, fmt, seed=0):
    return [
        "verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", str(n),
        "--mode", mode, "--seed", str(seed), "--format", fmt,
    ]


def verify_report(out, fmt):
    """The verify result as a dict, from JSON or from the plain status line."""
    if fmt == "json":
        return json.loads(out)["result"]
    status, head, detail = out.strip().split(": ", 2)
    report = {"ok": status.startswith("PASS "), "detail": detail}
    for field in ("pairs", "aborted", "completed"):
        if f"{field}=" in head:
            report[field] = int(head.split(f"{field}=")[1].split()[0])
    return report


def modular_case(params, seed, fmt):
    mu, r, m, n = params
    support = checks.supersets(mu, r, m)

    def check_output(out):
        report = verify_report(out, fmt)
        checks.require(report["ok"], f"modular verify failed: {report['detail']}")
        checks.require(report["detail"] == "all 20 seeded points agree", report["detail"])
        if fmt == "json":
            checks.require(report["terms"] == len(support), "modular verify term count")
            checks.require(report["points"] == 20, "modular verify point count")

    return cli_case(verify_argv(mu, r, m, n, "modular", fmt, seed), check_output)


def small_symbolic_case(params, fmt):
    mu, r, m, n = params
    support = checks.supersets(mu, r, m)

    def check_output(out):
        checks.check_symbolic_report(verify_report(out, fmt), support, n)

    return cli_case(verify_argv(mu, r, m, n, "symbolic", fmt), check_output)


def small_process_case(params, fmt):
    mu, r, m, n = params
    support = checks.supersets(mu, r, m)

    def check_output(out):
        checks.check_process_report(verify_report(out, fmt), support, n, m)

    return cli_case(verify_argv(mu, r, m, n, "process", fmt), check_output)


# The costly request kinds are dealt from finite spaces, like the verify
# workloads' strata, so their share of a run does not depend on the seed.
ITERATED_SPACE = [
    (mu, rho, nu)
    for k in range(3)
    for mu in partitions(k)
    for rho in (lam for size in range(2, 6) for lam in partitions(size, cap=3))
    for nu in (lam for size in range(1, 4) for lam in partitions(size))
    if len(rho) * len(nu) >= 2
]
MODULAR_SPACE = [
    (mu, r, m, sum(mu) + r * m + extra)
    for k in range(4)
    for mu in partitions(k)
    for r in range(1, 5)
    for m in range(1, 4)
    for extra in range(3)
    if sum(mu) + r * m + extra <= 14
]
SMALL_SYMBOLIC = [c for key in (4, 5) for c in symbolic_strata()[key]]
SMALL_PROCESS = [c for key in ("small", 3) for c in process_strata()[key]]
THREE_PLAIN_THREE_JSON = ("plain", "plain", "plain", "json", "json", "json")


def query_rounds(seed):
    """Rounds of 21 requests: 3 expand, 3 iterated expand, 6 sgn, 6 trace,
    and one each of modular, symbolic and process verify, shuffled."""
    rng = random.Random(seed)
    iterated = Deck(ITERATED_SPACE, rng)
    modular = Deck(MODULAR_SPACE, rng)
    symbolic = Deck(SMALL_SYMBOLIC, rng)
    process = Deck(SMALL_PROCESS, rng)
    while True:
        cases = [expand_case(rng, fmt) for fmt in ("plain", "json", "latex")]
        cases += [iterated_case(iterated.deal(), fmt) for fmt in ("plain", "json", "latex")]
        cases += [sgn_case(rng, fmt) for fmt in THREE_PLAIN_THREE_JSON]
        cases += [trace_case(rng, fmt) for fmt in THREE_PLAIN_THREE_JSON]
        cases.append(modular_case(modular.deal(), rng.randrange(1000), rng.choice(("plain", "json"))))
        cases.append(small_symbolic_case(symbolic.deal(), rng.choice(("plain", "json"))))
        cases.append(small_process_case(process.deal(), rng.choice(("plain", "json"))))
        rng.shuffle(cases)
        yield cases


WORKLOADS = {
    "verify-symbolic": symbolic_rounds,
    "verify-process": process_rounds,
    "queries": query_rounds,
}
