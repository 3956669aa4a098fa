"""Compare the CLI of two plethax checkouts request by request.

    python3 tools/cli_diff.py OLD_ROOT NEW_ROOT

Runs the same requests through `plethax.cli.main` of each checkout, one
interpreter per checkout with that checkout's `src/` on the path, and
compares stdout, stderr and exit code byte for byte.  The requests are:

- `trace`, plain and json: 400 random abaci drawn as the `queries`
  workload draws them (3 to 7 beads on slots 0..N+3, 1 to 4 moves, r 1..3),
  400 wider ones that workload never draws (5 to 7 beads on slots 0..N+3,
  0 to 6 moves, r 4 or 5), and every canonical abacus of a partition of
  at most 3 on 3 or 4 beads with every budget of total 1 or 2 and r 1..3
  (`--canonical`);
- `verify --mode process`, plain and json, on every case of the
  `verify-process` workload's strata (N <= 5, |mu| <= 3, r, m <= 3), and
  at N=6 on every case with |mu| <= 2 and r, m <= 2;
- two failing process verifies in each format: the expansion with its
  first sign flipped, and with its first term dropped;
- `verify --mode symbolic`, plain and json, on every case of the
  `verify-symbolic` workload's strata (4 <= N <= 7, |mu| + r*m of N - 1 or
  N, N! * C(m+N-1, N-1) at most 200,000), one whose 9 variables trip the
  alternant guard, and one failing symbolic verify per format with the
  expansion's first sign flipped;
- `verify --mode modular`, plain and json, at seeds 0 and 1 on every case
  of the `queries` workload's modular space (|mu| <= 3, r <= 4, m <= 3,
  N from |mu| + r*m to 2 more, N <= 14), and one failing modular verify
  per format with the expansion's first sign flipped;
- `expand`, plain, json and latex: iterated on every case of the `queries`
  workload's iterated space (|mu| <= 2, 2 <= |rho| <= 5 with parts at most
  3, 1 <= |nu| <= 3, at least two factors), iterated with a rho part of 4
  or 5, which that space never sends (|mu| <= 2, rho one of (4), (5),
  (4,1), (5,1), (4,2), (4,1,1), 1 <= |nu| <= 3), and single for |mu| <= 4,
  r <= 4, m <= 3;
- `sgn`, plain, json and latex, with each of those single expansions'
  mu as inner and r, on every outer of its support (found by the
  benchmark's own strip search, `bench/checks.py`), and on skews with no
  strip chain: every outer of the same size that contains mu but is
  outside the support, and for r > 1 the outer that lengthens mu's first
  row by r*m - 1 cells, a size that is not a multiple of r.

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
from math import comb, factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402


def partitions(k, cap=None):
    cap = k if cap is None else cap
    if k == 0:
        return [()]
    return [(p,) + rest for p in range(min(k, cap), 0, -1) for rest in partitions(k - p, p)]


def compositions(total, length):
    if length == 1:
        return [(total,)]
    return [(e,) + rest for e in range(total + 1) for rest in compositions(total - e, length - 1)]


def contains(outer, inner):
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def text(parts):
    return ",".join(str(p) for p in parts)


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
    rng = random.Random(0)
    traces = [random_trace(rng) for _ in range(400)]
    wide = random.Random(1)
    traces += [random_trace(wide, beads=(5, 7), moves=(0, 6), shifts=(4, 5)) for _ in range(400)]
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
        ["verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", str(n), "--mode", "process"]
        for n in range(1, 6)
        for size in range(4)
        for mu in partitions(size)
        if len(mu) <= n
        for r, m in product((1, 2, 3), repeat=2)
    ]
    verifies += [
        ["verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", "6", "--mode", "process"]
        for size in range(3)
        for mu in partitions(size)
        for r, m in product((1, 2), repeat=2)
    ]
    symbolic = [
        ["verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", str(n), "--mode", "symbolic"]
        for n in range(4, 8)
        for size in (n - 1, n)
        for r in range(1, size + 1)
        for m in range(1, size // r + 1)
        if factorial(n) * comb(m + n - 1, n - 1) <= 200_000
        for mu in partitions(size - r * m)
    ]
    symbolic.append(["verify", "--mu", "", "--r", "3", "--m", "3", "--N", "9", "--mode", "symbolic"])
    modular = [
        ["verify", "--mu", text(mu), "--r", str(r), "--m", str(m), "--N", str(n),
         "--mode", "modular", "--seed", str(seed)]
        for size in range(4)
        for mu in partitions(size)
        for r in range(1, 5)
        for m in range(1, 4)
        for n in range(size + r * m, size + r * m + 3)
        if n <= 14
        for seed in (0, 1)
    ]
    iterated = [
        ["expand", "--mu", text(mu), "--rho", text(rho), "--nu", text(nu)]
        for k in range(3)
        for mu in partitions(k)
        for rho in (lam for size in range(2, 6) for lam in partitions(size, cap=3))
        for nu in (lam for size in range(1, 4) for lam in partitions(size))
        if len(rho) * len(nu) >= 2
    ]
    iterated += [
        ["expand", "--mu", text(mu), "--rho", text(rho), "--nu", text(nu)]
        for k in range(3)
        for mu in partitions(k)
        for rho in ((4,), (5,), (4, 1), (5, 1), (4, 2), (4, 1, 1))
        for nu in (lam for size in range(1, 4) for lam in partitions(size))
    ]
    singles = [
        (mu, r, m)
        for size in range(5)
        for mu in partitions(size)
        for r in range(1, 5)
        for m in range(1, 4)
    ]
    expands = iterated + [
        ["expand", "--mu", text(mu), "--r", str(r), "--m", str(m)] for mu, r, m in singles
    ]
    outers = []
    for mu, r, m in singles:
        support = checks.supersets(mu, r, m)
        outers += [(outer, mu, r) for outer in sorted(support, reverse=True)]
        outers += [
            (outer, mu, r)
            for outer in partitions(sum(mu) + r * m)
            if contains(outer, mu) and outer not in support
        ]
        if r > 1:
            first = mu[0] if mu else 0
            outers.append(((first + r * m - 1,) + mu[1:], mu, r))
    sgns = [
        ["sgn", "--outer", text(outer), "--inner", text(mu), "--r", str(r)]
        for outer, mu, r in outers
    ]
    failing = [["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "process"]]
    failing_modular = ["verify", "--mu", "2,1", "--r", "3", "--m", "2", "--N", "9", "--mode", "modular"]
    failing_symbolic = ["verify", "--mu", "2,1", "--r", "2", "--m", "1", "--N", "5", "--mode", "symbolic"]
    out = []
    for fmt in ("plain", "json"):
        out += [("trace", None, argv + ["--format", fmt]) for argv in traces]
        out += [("verify", None, argv + ["--format", fmt]) for argv in verifies]
        for perturbation in ("flip-first-sign", "drop-first-term"):
            out += [("verify", perturbation, argv + ["--format", fmt]) for argv in failing]
        out += [("verify", None, argv + ["--format", fmt]) for argv in symbolic]
        out.append(("verify", "flip-first-sign", failing_symbolic + ["--format", fmt]))
        out += [("verify", None, argv + ["--format", fmt]) for argv in modular]
        out.append(("verify", "flip-first-sign", failing_modular + ["--format", fmt]))
    for fmt in ("plain", "json", "latex"):
        out += [("expand", None, argv + ["--format", fmt]) for argv in expands]
        out += [("sgn", None, argv + ["--format", fmt]) for argv in sgns]
    return out


def serve():
    """Run every request through this interpreter's plethax; print JSON lines."""
    from plethax import cli, expansion

    real = expansion.pmn_expand

    def perturbed(how):
        def expand(mu, r, m):
            (lam, c), *rest = real(mu, r, m).items()
            terms = [(lam, -c)] + rest if how == "flip-first-sign" else rest
            return expansion.SchurExpansion(terms)

        return expand

    for kind, perturbation, argv in requests():
        expansion.pmn_expand = real if perturbation is None else perturbed(perturbation)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(json.dumps([code, out.getvalue(), err.getvalue()]))


def outcomes(root):
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--serve"], env=env, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(old_root, new_root):
    reqs = requests()
    old, new = outcomes(old_root), outcomes(new_root)
    if len(old) != len(reqs) or len(new) != len(reqs):
        raise SystemExit(f"expected {len(reqs)} outcomes, got {len(old)} and {len(new)}")
    counts, mismatches = {}, 0
    for (kind, perturbation, argv), a, b in zip(reqs, old, new):
        key = f"{kind} {argv[-1]}"
        if kind == "trace":
            key += " --canonical" * ("--canonical" in argv)
            key += " r 4-5" * (int(argv[argv.index("--r") + 1]) > 3)
            key += " aborted" if "unsuccessful" in b[1] else " completed"
        elif kind == "expand":
            if "--rho" in argv:
                rho = [int(p) for p in argv[argv.index("--rho") + 1].split(",")]
                key += " iterated" + " rho part 4-5" * (max(rho) > 3)
            else:
                key += " single"
        elif kind == "verify":
            key += f" {argv[argv.index('--mode') + 1]}"
            key += f" {perturbation}" * bool(perturbation)
            key += f" exit {b[0]}" * bool(b[0])
        elif kind == "sgn":
            key += " no chain" if b[1] == "0\n" or '"chain": null' in b[1] else " chain"
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
