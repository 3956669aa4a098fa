"""Command-line front end: expand, sgn, trace, verify.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a verification
ran and failed.  Output is byte-stable for fixed inputs; JSON records carry
a schema version for downstream parsing.
"""

import argparse
import functools
import json
import sys

from .abacus import LabelledAbacus, canonical_abacus
from .expansion import (
    SchurExpansion,
    pmn_expand,
    pmn_expand_iterated,
    verify_against_oracle,
    verify_process_identity,
)
from .partitions import Partition, SkewPartition, r_decompose
from .polynomials import GuardError
# epsilon is not used here; it stays bound because the benchmark
# (bench/tracing.py) reaches it by name in this module.
from .process import Composition, _partner, epsilon, run_process  # noqa: F401

SCHEMA_VERSION = 1
FORMATS = ("plain", "json", "latex")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_partition(text: str) -> Partition:
    tokens = [tok.strip() for tok in text.strip().split(",") if tok.strip()]
    try:
        return Partition(int(tok) for tok in tokens)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_entries(text: str) -> tuple[int, ...]:
    tokens = [tok.strip() for tok in text.strip().split(",") if tok.strip()]
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def parse_abacus(text: str) -> LabelledAbacus:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        pos, sep, label = chunk.partition(":")
        if not sep:
            raise UsageError(f"expected position:label, got {chunk!r}")
        try:
            pairs.append((int(pos), int(label)))
        except ValueError as exc:
            raise UsageError(f"expected position:label, got {chunk!r}") from exc
    return LabelledAbacus.from_positions(pairs)


def render_expansion(expansion: SchurExpansion, fmt: str) -> str:
    items = expansion.items()
    if not items:
        return "0"
    chunks = []
    for index, (lam, coeff) in enumerate(items):
        if fmt == "latex":
            body = "s_{(" + ",".join(str(p) for p in lam.parts) + ")}"
            if abs(coeff) != 1:
                body = f"{abs(coeff)}\\,{body}"
        else:
            body = "s[" + ",".join(str(p) for p in lam.parts) + "]"
            if abs(coeff) != 1:
                body = f"{abs(coeff)}*{body}"
        if index == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def _record(command: str, inputs: dict, result: dict) -> str:
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "result": result,
        }
    )


def _cmd_expand(args) -> int:
    mu = parse_partition(args.mu)
    iterated = args.rho is not None or args.nu is not None
    if iterated:
        if args.rho is None or args.nu is None:
            raise UsageError("--rho and --nu go together")
        if args.r is not None or args.m is not None:
            raise UsageError("use either --r/--m or --rho/--nu, not both")
        rho = parse_partition(args.rho)
        nu = parse_partition(args.nu)
        if len(rho) == 0 or len(nu) == 0:
            raise UsageError("--rho and --nu must be non-empty partitions")
        expansion = pmn_expand_iterated(mu, rho, nu)
        inputs = {
            "mu": list(mu.parts),
            "rho": list(rho.parts),
            "nu": list(nu.parts),
        }
    else:
        if args.r is None or args.m is None:
            raise UsageError("expand needs --r and --m (or --rho and --nu)")
        if args.r < 1 or args.m < 1:
            raise UsageError("--r and --m must be positive")
        expansion = pmn_expand(mu, args.r, args.m)
        inputs = {"mu": list(mu.parts), "r": args.r, "m": args.m}
    if args.format == "json":
        print(_record("expand", inputs, {"terms": expansion.to_records()}))
    else:
        print(render_expansion(expansion, args.format))
    return 0


def _format_sign(s: int) -> str:
    return f"{s:+d}" if s else "0"


def _cmd_sgn(args) -> int:
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    if args.r < 1:
        raise UsageError("--r must be positive")
    chain = r_decompose(SkewPartition(outer, inner), args.r)
    if args.format == "json":
        chain_record = None
        if chain is not None:
            chain_record = {
                "shapes": [list(s.parts) for s in chain.shapes],
                "tops": list(chain.tops),
                "bottoms": list(chain.bottoms),
                "strip_signs": list(chain.strip_signs),
            }
        result = {
            "sign": 0 if chain is None else chain.sign,
            "chain": chain_record,
        }
        print(
            _record(
                "sgn",
                {
                    "outer": list(outer.parts),
                    "inner": list(inner.parts),
                    "r": args.r,
                },
                result,
            )
        )
        return 0
    if chain is None:
        print("0")
        return 0
    print(_format_sign(chain.sign))
    if chain.d == 0:
        print("chain: empty")
        return 0
    print("chain: " + " -> ".join(str(s) for s in chain.shapes))
    for k in range(chain.d):
        print(
            f"strip {k + 1}: top {chain.tops[k]} "
            f"bottom {chain.bottoms[k]} sign {_format_sign(chain.strip_signs[k])}"
        )
    return 0


def _cmd_trace(args) -> int:
    if args.r < 1:
        raise UsageError("--r must be positive")
    if args.abacus is not None:
        if args.canonical or args.mu is not None or args.n_beads is not None:
            raise UsageError("--abacus replaces --canonical/--mu/--N")
        w = parse_abacus(args.abacus)
    elif args.canonical:
        if args.mu is None or args.n_beads is None:
            raise UsageError("--canonical needs --mu and --N")
        w = canonical_abacus(parse_partition(args.mu), args.n_beads)
    else:
        raise UsageError("trace needs --abacus or --canonical with --mu/--N")
    entries = parse_entries(args.beta)
    if len(entries) != w.n_beads:
        raise UsageError(
            f"--beta has {len(entries)} entries for {w.n_beads} beads"
        )
    beta = Composition(entries)
    trace = run_process(w, beta, args.r)

    partner = None
    if not trace.successful:
        partner = _partner(w, beta, args.r, trace.outcome)

    if args.format == "json":
        steps = [
            {
                "i": s.position,
                "bead": s.bead,
                "action": s.action,
                "alpha": list(s.alpha),
                **({"strip_top": s.strip_top} if s.strip_top else {}),
            }
            for s in trace.steps
        ]
        result = {
            "outcome": "successful" if trace.successful else "unsuccessful",
            "steps": steps,
            "shapes": [list(s.parts) for s in trace.shapes()],
        }
        if trace.successful:
            result["final"] = trace.outcome.abacus.render_pairs()
        else:
            result["collision"] = {
                "bead": trace.outcome.bead,
                "blocker": trace.outcome.blocker,
                "position": trace.outcome.position,
            }
            result["epsilon"] = {
                "abacus": partner[0].render_pairs(),
                "beta": list(partner[1].entries),
            }
        print(
            _record(
                "trace",
                {
                    "abacus": w.render_pairs(),
                    "beta": list(beta.entries),
                    "r": args.r,
                },
                result,
            )
        )
        return 0

    print(f"initial: {w.render()}")
    print(f"beta: {beta}  r: {args.r}")
    for s in trace.steps:
        if s.action == "skip-empty":
            print(f"i={s.position}  slot empty")
        elif s.action == "skip-exhausted":
            print(f"i={s.position}  bead {s.bead} has no moves left")
        elif s.action == "moved":
            print(
                f"i={s.position}  bead {s.bead} moves to {s.position + args.r}; "
                f"shape now {s.abacus.shape()}"
            )
        else:
            print(f"i={s.position}  bead {s.bead} collides")
    if trace.successful:
        print("outcome: successful")
        print(f"final: {trace.outcome.abacus.render()}")
        print("shapes: " + " -> ".join(str(s) for s in trace.shapes()))
    else:
        out = trace.outcome
        print(
            f"outcome: unsuccessful at i={out.position}: "
            f"bead {out.bead} collides with bead {out.blocker}"
        )
        print(f"epsilon abacus: {partner[0].render()}")
        print(f"epsilon beta: {partner[1]}")
    return 0


def _cmd_verify(args) -> int:
    mu = parse_partition(args.mu)
    if args.r < 1 or args.m < 1:
        raise UsageError("--r and --m must be positive")
    if args.n_beads < 1:
        raise UsageError("--N must be positive")
    inputs = {
        "mu": list(mu.parts),
        "r": args.r,
        "m": args.m,
        "N": args.n_beads,
        "mode": args.mode,
    }
    if args.mode == "process":
        report = verify_process_identity(mu, args.r, args.m, args.n_beads)
        # Counts shown on the status line, in the order the JSON lists them.
        shown = {
            "pairs": report.n_pairs,
            "aborted": report.n_aborted,
            "completed": report.n_completed,
        }
        result = {"ok": report.ok, **shown, "detail": report.detail}
    else:
        try:
            report = verify_against_oracle(
                mu, args.r, args.m, args.n_beads, mode=args.mode, seed=args.seed
            )
        except GuardError as exc:
            raise UsageError(f"{exc.what}; use --mode modular for this N") from exc
        result = {"ok": report.ok, "terms": report.terms, "detail": report.detail}
        shown = {}
        if args.mode == "modular":
            inputs["seed"] = args.seed
            result["points"] = report.points
            shown = {"seed": args.seed, "points": report.points}
    if args.format == "json":
        print(_record("verify", inputs, result))
    else:
        status = "PASS" if report.ok else "FAIL"
        tail = "".join(f" {key}={value}" for key, value in shown.items())
        print(
            f"{status} {args.mode}: mu={mu} r={args.r} m={args.m} "
            f"N={args.n_beads}{tail}: {report.detail}"
        )
    return 0 if report.ok else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plethax",
        description="Schur expansions of s_mu * (p_r o h_m) with abacus-level checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    p_expand = sub.add_parser("expand", help="expand s_mu * (p_r o h_m)")
    p_expand.add_argument("--mu", required=True, help='partition, e.g. "5,3,1" ("" for empty)')
    p_expand.add_argument("--r", type=int, default=None)
    p_expand.add_argument("--m", type=int, default=None)
    p_expand.add_argument("--rho", default=None, help="iterate over p_rho factors")
    p_expand.add_argument("--nu", default=None, help="iterate over h_nu factors")
    add_format(p_expand)
    p_expand.set_defaults(handler=_cmd_expand)

    p_sgn = sub.add_parser("sgn", help="strip-chain sign of outer/inner")
    p_sgn.add_argument("--outer", required=True)
    p_sgn.add_argument("--inner", required=True)
    p_sgn.add_argument("--r", type=int, required=True)
    add_format(p_sgn)
    p_sgn.set_defaults(handler=_cmd_sgn)

    p_trace = sub.add_parser("trace", help="replay the scanning process")
    p_trace.add_argument("--abacus", default=None, help='"pos:label,..." pairs')
    p_trace.add_argument("--canonical", action="store_true")
    p_trace.add_argument("--mu", default=None)
    p_trace.add_argument("--N", dest="n_beads", type=int, default=None)
    p_trace.add_argument("--beta", required=True, help='move budget, e.g. "0,2,0,0,1,0"')
    p_trace.add_argument("--r", type=int, required=True)
    add_format(p_trace)
    p_trace.set_defaults(handler=_cmd_trace)

    p_verify = sub.add_parser("verify", help="check the expansion identity")
    p_verify.add_argument("--mu", required=True)
    p_verify.add_argument("--r", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--N", dest="n_beads", type=int, required=True)
    p_verify.add_argument(
        "--mode", choices=("symbolic", "modular", "process"), default="symbolic"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
