"""Compare the CLI of two plethax checkouts request by request.

    python3 tools/cli_diff.py OLD_ROOT NEW_ROOT

Runs the same requests through `plethax.cli.main` of each checkout, one
interpreter per checkout with that checkout's `src/` on the path, and
compares stdout, stderr and exit code byte for byte.  The requests are:

- `trace`, plain and json: 400 random abaci drawn as the `queries`
  workload draws them (3 to 7 beads on slots 0..N+3, 1 to 4 moves, r 1..3),
  and every canonical abacus of a partition of at most 3 on 3 or 4 beads
  with every budget of total 1 or 2 and r 1..3 (`--canonical`);
- `verify --mode process`, plain and json, on every case of the
  `verify-process` workload's strata (N <= 5, |mu| <= 3, r, m <= 3);
- two failing process verifies in each format: the expansion with its
  first sign flipped, and with its first term dropped;
- `verify --mode modular`, plain and json, at seeds 0 and 1 on every case
  of the `queries` workload's modular space (|mu| <= 3, r <= 4, m <= 3,
  N from |mu| + r*m to 2 more, N <= 14), and one failing modular verify
  per format with the expansion's first sign flipped.

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


def partitions(k, cap=None):
    cap = k if cap is None else cap
    if k == 0:
        return [()]
    return [(p,) + rest for p in range(min(k, cap), 0, -1) for rest in partitions(k - p, p)]


def compositions(total, length):
    if length == 1:
        return [(total,)]
    return [(e,) + rest for e in range(total + 1) for rest in compositions(total - e, length - 1)]


def text(parts):
    return ",".join(str(p) for p in parts)


def random_trace(rng):
    n = rng.randint(3, 7)
    slots = rng.sample(range(n + 4), n)
    labels = rng.sample(range(1, n + 1), n)
    beta = [0] * n
    for _ in range(rng.randint(1, 4)):
        beta[rng.randrange(n)] += 1
    pairs = ",".join(f"{p}:{b}" for p, b in sorted(zip(slots, labels)))
    return ["trace", "--abacus", pairs, "--beta", text(beta), "--r", str(rng.randint(1, 3))]


def requests():
    """(kind, perturbation, argv) for every request, in a fixed order."""
    rng = random.Random(0)
    traces = [random_trace(rng) for _ in range(400)]
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
    failing = [["verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "process"]]
    failing_modular = ["verify", "--mu", "2,1", "--r", "3", "--m", "2", "--N", "9", "--mode", "modular"]
    out = []
    for fmt in ("plain", "json"):
        out += [("trace", None, argv + ["--format", fmt]) for argv in traces]
        out += [("verify", None, argv + ["--format", fmt]) for argv in verifies]
        for perturbation in ("flip-first-sign", "drop-first-term"):
            out += [("verify", perturbation, argv + ["--format", fmt]) for argv in failing]
        out += [("verify", None, argv + ["--format", fmt]) for argv in modular]
        out.append(("verify", "flip-first-sign", failing_modular + ["--format", fmt]))
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
            key += " aborted" if "unsuccessful" in b[1] else " completed"
        else:
            key += f" {argv[argv.index('--mode') + 1]}"
            key += f" {perturbation}" * bool(perturbation)
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
