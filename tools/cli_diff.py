"""Compare the CLI of two plethax checkouts request by request.

    python3 tools/cli_diff.py OLD_ROOT NEW_ROOT

The tool and its servers use only the standard library, and the servers run
under the interpreter that runs the tool, so running it with the oldest
Python that `pyproject.toml` accepts (`requires-python = ">=3.10"`) sends
every request through both checkouts on that floor:

    python3.10 tools/cli_diff.py OLD_ROOT NEW_ROOT

Builds one list of requests and sends it, as JSON lines on stdin, to one
server per checkout: `python -S tools/cli_diff.py --serve` with only that
checkout's `src/` on the path, so no installed plethax can stand in for a
checkout that has none.  Each server runs the requests through its
`plethax.cli.main` and prints stdout, stderr and exit code, which are
compared byte for byte.

The spaces the benchmark draws from are imported from `bench/workloads.py`
(`process_strata()`, `symbolic_strata()`, `MODULAR_SPACE`,
`ITERATED_SPACE`), so the gate covers whatever the benchmark covers, and a
space that is renamed away fails the import.  The requests are:

- `trace`, plain and json: 400 random abaci drawn as the `queries`
  workload draws them, 400 wider ones it never draws (5 to 7 beads, 0 to 6
  moves, r 4 or 5), 200 on 10 to 12 beads (0 to 6 moves, r 1..5), whose
  abaci render space-separated with two-digit labels and whose budgets
  have ten entries or more, and every canonical abacus of a partition of
  at most 3 on 3 or 4 beads with every budget of total 1 or 2 and r 1..3;
- `verify`, plain and json: `--mode process` on `process_strata()` and at
  N=6 on every case with |mu| <= 2 and r, m <= 2; `--mode symbolic` on
  `symbolic_strata()` and on one case whose 9 variables trip the alternant
  guard; `--mode modular` at seeds 0 and 1 on `MODULAR_SPACE` and on nine
  cases past it, with |mu| + r*m from 15 to 24; and failing verifies of
  each mode, with the expansion's first sign flipped or (process) its first
  term dropped, the modular ones at mu=(2,1) r=3 with N=9 and N=20 and at
  N=24 on mu=() r=4 m=6, whose determinants go up to 4x4 closed forms, and
  mu=(1,1,1,1) r=3 m=4, which also eliminates 5x5 to 7x7 ones, so the
  mismatch values of both paths are compared;
- `expand`, plain, json and latex: iterated on `ITERATED_SPACE`, with a
  rho part of 4 or 5, which that space never sends, and on four more cases
  whose factors, taken smallest r*m first, run in another order than
  (i, j) order; single for |mu| <= 4, r <= 4, m <= 3;
- `expand`, plain and json: `WIDE_EXPANDS`, one single and two iterated
  expands whose bead masks are wider than 64 bits;
- `sgn`, plain and json, with each of those single expansions' mu as inner
  and r, on every outer of its support (found by the benchmark's own strip
  search, `bench/checks.py`), and on skews with no strip chain: every outer
  of the same size that contains mu but is outside the support, and for
  r > 1 the outer that lengthens mu's first row by r*m - 1 cells, a size
  that is not a multiple of r;
- `sgn`, plain and json, with outer and inner both equal to mu, for each
  (mu, r) of those single expansions: a skew with no cells, whose chain is
  empty;
- `sgn`, plain and json, with inner (62,3) on each of the 21 outers of
  `WIDE_SGN`'s support (mu = (62,3), r = 5, m = 2), sent with `--r` 5, 2
  and 10, which all divide the size 10, so chains and skews with none
  both come up; the peel's bead masks are 64 to 74 bits wide.
- `usage`, plain and json (`--form` abbreviated, right after the first
  word): `USAGE`, for each subcommand a valid argv with abbreviated
  options, then an unknown option, a missing required option, an option
  with no value, a bad choice and a non-integer `--r`, and argvs the
  top-level parser takes: no command, an unknown command and an option
  before the command, and for `--mu` of expand, trace --canonical and
  verify and `--outer` and `--inner` of sgn, the shapes 1,2, 2,-1, 2,0,1
  and 1.5, which fail Partition's checks or its integer parse.  `-h` is
  not sent, since its SystemExit would end the server.

Prints the number of requests per kind and every mismatch; exits 1 if any.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The strip search and the strip peel hold a shape's bead slots as the bits
# of one int; these expands grow masks of 73 to 115 bits, and the sgn
# requests on WIDE_SGN's support peel masks of 64 to 74 bits.
WIDE_EXPANDS = [
    ["expand", "--mu", "20,10", "--r", "10", "--m", "4"],
    ["expand", "--mu", "30,1", "--rho", "7,5", "--nu", "2,1"],
    ["expand", "--mu", "12", "--rho", "9,8", "--nu", "3"],
]
WIDE_SGN = ((62, 3), 5, 2)  # (mu, r, m)
# Argument parsing, valid and not, on the subcommand and top-level routes.
USAGE = [
    ["expand", "--mu", "2,1", "--r=2", "--m", "1"],
    ["expand", "--mu", "1", "--rh", "2,1", "--n", "1"],
    ["expand", "--mu", "1", "--r", "2", "--m", "1", "--bogus", "1"],
    ["expand", "--r", "2", "--m", "1"],
    ["expand", "--mu"],
    ["expand", "--mu", "1", "--r", "2", "--m", "1", "--format", "xml"],
    ["expand", "--mu", "1", "--r", "x", "--m", "1"],
    ["sgn", "--out", "3,1", "--inn", "1", "--r", "1"],
    ["sgn", "--outer", "3,1", "--inner", "1", "--r", "1", "extra"],
    ["sgn", "--outer", "3,1", "--r", "1"],
    ["sgn", "--outer", "3,1", "--inner", "1", "--r", "1", "--format", "latex"],
    ["sgn", "--outer", "3,1", "--inner", "1", "--r", "x"],
    ["trace", "--can", "--mu", "1", "--N", "2", "--be", "0,1", "--r", "1"],
    ["trace", "--abacus", "0:1", "--beta", "1", "--r", "1", "-x"],
    ["trace", "--abacus", "0:1", "--beta", "1"],
    ["trace", "--abacus", "0:1", "--beta", "1", "--r"],
    ["trace", "--abacus", "0:1", "--beta", "1", "--r", "x"],
    ["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mo", "modular", "--se", "4"],
    ["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--points", "5"],
    ["verify", "--mu", "1", "--r", "2", "--m", "1"],
    ["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "exact"],
    ["verify", "--mu", "1", "--r", "x", "--m", "1", "--N", "3"],
    ["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--seed", "1.5"],
    [],
    ["bogus"],
    ["-x", "sgn", "--outer", "3,1", "--inner", "1", "--r", "1"],
]
# Shapes that fail Partition's checks, or its integer parse, on every
# subcommand that parses one.
USAGE += [
    argv
    for bad in ("1,2", "2,-1", "2,0,1", "1.5")
    for argv in (
        ["expand", "--mu", bad, "--r", "1", "--m", "1"],
        ["sgn", "--outer", bad, "--inner", "", "--r", "1"],
        ["sgn", "--outer", "3", "--inner", bad, "--r", "1"],
        ["trace", "--canonical", "--mu", bad, "--N", "3", "--beta", "0,0,0", "--r", "1"],
        ["verify", "--mu", bad, "--r", "1", "--m", "1", "--N", "4"],
    )
]


def compositions(total, length):
    if length == 1:
        return [(total,)]
    return [(e,) + rest for e in range(total + 1) for rest in compositions(total - e, length - 1)]


def contains(outer, inner):
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def text(parts):
    return ",".join(str(p) for p in parts)


def verify(mu, r, m, n, mode, *extra):
    return [
        "verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", str(n), "--mode", mode, *extra
    ]


def random_trace(rng, beads=(3, 7), moves=(1, 4), shifts=(1, 3)):
    n = rng.randint(*beads)
    slots = rng.sample(range(n + 4), n)
    labels = rng.sample(range(1, n + 1), n)
    beta = [0] * n
    for _ in range(rng.randint(*moves)):
        beta[rng.randrange(n)] += 1
    pairs = ",".join(f"{p}:{b}" for p, b in sorted(zip(slots, labels)))
    return ["trace", "--abacus", pairs, "--beta", text(beta), "--r", str(rng.randint(*shifts))]


def requests():
    """(kind, perturbation, argv) for every request, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.append(str(ROOT / "src"))
    from checks import supersets
    from workloads import ITERATED_SPACE, MODULAR_SPACE, partitions, process_strata, symbolic_strata

    rng = random.Random(0)
    traces = [random_trace(rng) for _ in range(400)]
    wide = random.Random(1)
    traces += [random_trace(wide, beads=(5, 7), moves=(0, 6), shifts=(4, 5)) for _ in range(400)]
    many = random.Random(2)
    traces += [random_trace(many, beads=(10, 12), moves=(0, 6), shifts=(1, 5)) for _ in range(200)]
    traces += [
        ["trace", "--canonical", "--mu", text(mu), "--N", str(n), "--beta", text(beta), "--r", str(r)]
        for n in (3, 4)
        for size in range(4)
        for mu in partitions(size)
        if len(mu) <= n
        for m in (1, 2)
        for beta in compositions(m, n)
        for r in (1, 2, 3)
    ]
    verifies = [
        (None, verify(*case, "process")) for cases in process_strata().values() for case in cases
    ]
    verifies += [
        (None, verify(mu, r, m, 6, "process"))
        for size in range(3)
        for mu in partitions(size)
        for r, m in product((1, 2), repeat=2)
    ]
    verifies += [
        (p, verify((1,), 2, 1, 3, "process")) for p in ("flip-first-sign", "drop-first-term")
    ]
    verifies += [
        (None, verify(*case, "symbolic")) for cases in symbolic_strata().values() for case in cases
    ]
    verifies.append((None, verify((), 3, 3, 9, "symbolic")))
    verifies.append(("flip-first-sign", verify((2, 1), 2, 1, 5, "symbolic")))
    verifies += [
        (None, verify(*case, "modular", "--seed", str(seed)))
        for case in MODULAR_SPACE
        for seed in (0, 1)
    ]
    verifies += [
        (None, verify(mu, r, m, n, "modular", "--seed", str(seed)))
        for mu, r, m in (
            ((), 4, 6), ((), 3, 5), ((2, 1), 3, 5), ((1, 1, 1), 4, 3), ((1, 1, 1), 2, 6),
            ((1,) * 6, 1, 9), ((3, 3), 2, 5), ((4, 1), 5, 2), ((1, 1, 1, 1), 3, 4),
        )
        for n in sorted({sum(mu) + r * m, 20, 24})
        if n >= sum(mu) + r * m
        for seed in (0, 1)
    ]
    verifies += [
        ("flip-first-sign", verify(mu, r, m, n, "modular"))
        for mu, r, m, n in (
            ((2, 1), 3, 2, 9), ((2, 1), 3, 5, 20), ((), 4, 6, 24), ((1, 1, 1, 1), 3, 4, 24),
        )
    ]
    iterated = ITERATED_SPACE + [
        (mu, rho, nu)
        for k in range(3)
        for mu in partitions(k)
        for rho in ((4,), (5,), (4, 1), (5, 1), (4, 2), (4, 1, 1))
        for nu in (lam for size in range(1, 4) for lam in partitions(size))
    ]
    iterated += [
        ((), (3, 2, 1), (2, 2)), ((1,), (3, 1), (3, 1)),
        ((2, 1), (3, 1, 1), (2, 1)), ((), (2, 1), (3, 2)),
    ]
    singles = [
        (mu, r, m)
        for size in range(5)
        for mu in partitions(size)
        for r in range(1, 5)
        for m in range(1, 4)
    ]
    expands = [
        ["expand", "--mu", text(mu), "--rho", text(rho), "--nu", text(nu)] for mu, rho, nu in iterated
    ]
    expands += [["expand", "--mu", text(mu), "--r", str(r), "--m", str(m)] for mu, r, m in singles]
    outers = []
    for mu, r, m in singles:
        support = supersets(mu, r, m)
        outers += [(outer, mu, r) for outer in sorted(support, reverse=True)]
        outers += [
            (outer, mu, r)
            for outer in partitions(sum(mu) + r * m)
            if contains(outer, mu) and outer not in support
        ]
        if r > 1:
            first = mu[0] if mu else 0
            outers.append(((first + r * m - 1,) + mu[1:], mu, r))
    outers += [(mu, mu, r) for mu, r in dict.fromkeys((mu, r) for mu, r, _ in singles)]
    mu, r, m = WIDE_SGN
    outers += [
        (outer, mu, strip)
        for outer in sorted(supersets(mu, r, m), reverse=True)
        for strip in (r, 2, 2 * r)
    ]
    sgns = [
        ["sgn", "--outer", text(outer), "--inner", text(mu), "--r", str(r)] for outer, mu, r in outers
    ]
    out = []
    for fmt in ("plain", "json"):
        out += [("trace", None, argv + ["--format", fmt]) for argv in traces]
        out += [("verify", p, argv + ["--format", fmt]) for p, argv in verifies]
    for fmt in ("plain", "json", "latex"):
        out += [("expand", None, argv + ["--format", fmt]) for argv in expands]
    for fmt in ("plain", "json"):
        out += [("expand", None, argv + ["--format", fmt]) for argv in WIDE_EXPANDS]
        out += [("sgn", None, argv + ["--format", fmt]) for argv in sgns]
        out += [("usage", None, argv[:1] + ["--form", fmt] + argv[1:]) for argv in USAGE]
    return out


def serve():
    """Run each request read from stdin through this interpreter's plethax;
    print one JSON line [exit code, stdout, stderr] per request."""
    from plethax import cli, expansion

    real = expansion.pmn_expand

    def perturbed(how):
        def expand(mu, r, m):
            (lam, c), *rest = real(mu, r, m).items()
            terms = [(lam, -c)] + rest if how == "flip-first-sign" else rest
            return expansion.SchurExpansion(terms)

        return expand

    for line in sys.stdin:
        _, perturbation, argv = json.loads(line)
        expansion.pmn_expand = real if perturbation is None else perturbed(perturbation)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(json.dumps([code, out.getvalue(), err.getvalue()]))


def outcomes(root, reqs):
    """[exit code, stdout, stderr] of each request, run by the plethax under root."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, "-S", __file__, "--serve"],
        input="".join(json.dumps(req) + "\n" for req in reqs),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(old_root, new_root):
    reqs = requests()
    old, new = outcomes(old_root, reqs), outcomes(new_root, reqs)
    if len(old) != len(reqs) or len(new) != len(reqs):
        raise SystemExit(f"expected {len(reqs)} outcomes, got {len(old)} and {len(new)}")
    counts, mismatches = {}, 0
    for (kind, perturbation, argv), a, b in zip(reqs, old, new):
        key = f"{kind} {argv[-1]}"
        if kind == "trace":
            key += " --canonical" * ("--canonical" in argv)
            key += " 10+ beads" * (argv[1] == "--abacus" and argv[2].count(":") >= 10)
            key += " r 4-5" * (int(argv[argv.index("--r") + 1]) > 3)
            key += " aborted" if "unsuccessful" in b[1] else " completed"
        elif kind == "expand":
            if argv[:-2] in WIDE_EXPANDS:
                key += " wide"
            elif "--rho" in argv:
                rho = [int(p) for p in argv[argv.index("--rho") + 1].split(",")]
                key += " iterated" + " rho part 4-5" * (max(rho) > 3)
            else:
                key += " single"
        elif kind == "verify":
            key += f" {argv[argv.index('--mode') + 1]}"
            key += " N 15-24" * (int(argv[argv.index("--N") + 1]) > 14)
            key += f" {perturbation}" * bool(perturbation)
            key += f" exit {b[0]}" * bool(b[0])
        elif kind == "sgn":
            outer, inner = argv[argv.index("--outer") + 1], argv[argv.index("--inner") + 1]
            key += " wide" * (inner == text(WIDE_SGN[0]))
            if outer == inner:
                key += " empty chain"
            else:
                key += " no chain" if b[1] == "0\n" or '"chain": null' in b[1] else " chain"
        elif kind == "usage":
            key = f"usage {argv[argv.index('--form') + 1]}" + f" exit {b[0]}" * bool(b[0])
        counts[key] = counts.get(key, 0) + 1
        if a != b:
            mismatches += 1
            print(f"MISMATCH {key}: {' '.join(argv)}\n  old: {a}\n  new: {b}")
    for key, n in counts.items():
        print(f"{n:5d} {key}")
    print(f"{len(reqs)} requests, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        raise SystemExit(__doc__)
