"""Tests of the benchmark itself: each check accepts plethax's output and
rejects a corrupted copy of it, tracing counts repeat, and BENCHMARK.json
matches what the runner prints.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from plethax import LabelledAbacus, Partition, SkewPartition, epsilon, r_decompose, run_process  # noqa: E402
from plethax.expansion import (  # noqa: E402
    pmn_expand,
    pmn_expand_iterated,
    verify_against_oracle,
    verify_process_identity,
)
from plethax.partitions import enumerate_supersets  # noqa: E402
from tracing import Tracer  # noqa: E402

CASES = [((), 2, 2), ((2, 1), 2, 2), ((1,), 3, 2), ((3, 1), 1, 3), ((2, 2), 4, 1)]


def terms_of(expansion):
    return [(lam.parts, c) for lam, c in expansion.items()]


@pytest.mark.parametrize("mu,r,m", CASES)
def test_supersets_match_the_program_and_pass_the_expansion_check(mu, r, m):
    ours = checks.supersets(mu, r, m)
    theirs = {lam.parts: c for lam, c in enumerate_supersets(Partition(mu), r, m)}
    assert ours == theirs
    checks.check_expansion(ours.items(), mu, [(r, m)])


@pytest.mark.parametrize("mu,r,m", CASES)
def test_expansion_check_rejects_each_flipped_sign_and_dropped_term(mu, r, m):
    terms = terms_of(pmn_expand(Partition(mu), r, m))
    checks.check_expansion(terms, mu, [(r, m)])
    for i in range(len(terms)):
        flipped = terms[:i] + [(terms[i][0], -terms[i][1])] + terms[i + 1:]
        with pytest.raises(CheckError):
            checks.check_expansion(flipped, mu, [(r, m)])
        with pytest.raises(CheckError):
            checks.check_expansion(terms[:i] + terms[i + 1:], mu, [(r, m)])


def test_expansion_check_rejects_moved_coefficients_and_foreign_shapes():
    mu, r, m = (2, 1), 2, 2
    terms = terms_of(pmn_expand(Partition(mu), r, m))
    i = next(k for k in range(1, len(terms)) if terms[k][1] != terms[0][1])
    swapped = list(terms)
    swapped[0], swapped[i] = (terms[0][0], terms[i][1]), (terms[i][0], terms[0][1])
    with pytest.raises(CheckError):
        checks.check_expansion(swapped, mu, [(r, m)])
    with pytest.raises(CheckError):
        checks.check_expansion(terms + [((7,), 1)], mu, [(r, m)])
    with pytest.raises(CheckError):
        checks.check_expansion([(p, 2 * c) for p, c in terms], mu, [(r, m)])


def test_hook_length_sum_alone_catches_a_scaled_r1_expansion():
    # At r = 1 every coefficient is +1; doubling one term leaves the degree
    # and shapes valid, so the specializations must catch it.
    terms = terms_of(pmn_expand(Partition((1,)), 1, 2))
    doubled = [(terms[0][0], 2)] + terms[1:]
    with pytest.raises(CheckError, match="specialization|hook-length"):
        checks.check_expansion(doubled, (1,), [(1, 2)])


def test_iterated_expansion_check():
    mu, rho, nu = (1,), (2, 1), (2, 1)
    terms = terms_of(pmn_expand_iterated(Partition(mu), Partition(rho), Partition(nu)))
    factors = [(r, m) for r in rho for m in nu]
    checks.check_expansion(terms, mu, factors)
    with pytest.raises(CheckError):
        checks.check_expansion(terms, mu, [(2, 2), (2, 1), (2, 1), (1, 1)])
    with pytest.raises(CheckError):
        checks.check_expansion([(terms[0][0], -terms[0][1])] + terms[1:], mu, factors)


def test_printed_expansions_parse_to_the_same_terms():
    for fmt in ("plain", "latex", "json"):
        code, out, _ = workloads.run_cli(["expand", "--mu", "2,1", "--r", "2", "--m", "2", "--format", fmt])
        assert code == 0
        terms = workloads.expansion_terms(out, fmt)
        assert [(tuple(p), c) for p, c in terms] == terms_of(pmn_expand(Partition((2, 1)), 2, 2))


def chain_record(outer, inner, r):
    chain = r_decompose(SkewPartition(Partition(outer), Partition(inner)), r)
    return chain.sign, {
        "shapes": [list(s.parts) for s in chain.shapes],
        "tops": list(chain.tops),
        "bottoms": list(chain.bottoms),
        "strip_signs": list(chain.strip_signs),
    }


def test_chain_check_accepts_every_support_shape():
    for mu, r, m in CASES:
        for outer, sign in checks.supersets(mu, r, m).items():
            got, chain = chain_record(outer, mu, r)
            checks.check_chain(outer, mu, r, got, chain, sign)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s, c: (-s, c),
        lambda s, c: (s, {**c, "tops": c["tops"][::-1]}),
        lambda s, c: (s, {**c, "bottoms": [b + 1 for b in c["bottoms"]]}),
        lambda s, c: (-s, {**c, "strip_signs": [-c["strip_signs"][0]] + c["strip_signs"][1:]}),
        lambda s, c: (s, {**c, "shapes": c["shapes"][:1] + [[5, 3]] + c["shapes"][2:]}),
        lambda s, c: (s, {**c, "shapes": [[2]] + c["shapes"][1:]}),
        lambda s, c: (0, None),
    ],
)
def test_chain_check_rejects_corrupted_chains(corrupt):
    # (3,2,1,1)/(1) by 3-strips: tops 2 then 1, so reversing them breaks the order.
    outer, inner, r = (3, 2, 1, 1), (1,), 3
    sign, chain = chain_record(outer, inner, r)
    assert chain["tops"] == [2, 1]
    checks.check_chain(outer, inner, r, sign, chain, sign)
    bad_sign, bad_chain = corrupt(sign, chain)
    with pytest.raises(CheckError):
        checks.check_chain(outer, inner, r, bad_sign, bad_chain, sign)


def test_chain_check_rejects_a_two_by_two_block():
    # (2,2)/() as one 4-cell step is connected but not a ribbon.
    chain = {"shapes": [[], [2, 2]], "tops": [1], "bottoms": [2], "strip_signs": [-1]}
    with pytest.raises(CheckError, match="2x2"):
        checks.check_chain((2, 2), (), 4, -1, chain, -1)


def test_sgn_plain_output_parses():
    code, out, _ = workloads.run_cli(["sgn", "--outer", "3,2,1,1", "--inner", "1", "--r", "3"])
    assert code == 0
    assert checks.parse_sgn_plain(out) == chain_record((3, 2, 1, 1), (1,), 3)


def printed_trace(positions, beta, r):
    w = LabelledAbacus.from_positions((p, b) for b, p in positions.items())
    trace = run_process(w, beta, r)
    if trace.successful:
        final = trace.outcome.abacus
        return {"outcome": "successful", "final": {b: final.position(b) for b in positions}}
    partner, partner_beta = epsilon(w, beta, r)
    out = trace.outcome
    return {
        "outcome": "collided",
        "collision": (out.bead, out.blocker, out.position),
        "epsilon": ({b: partner.position(b) for b in positions}, partner_beta.entries),
    }


def test_trace_check_accepts_random_traces_and_rejects_corrupted_ones():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 6)
        positions = dict(zip(rng.sample(range(1, n + 1), n), rng.sample(range(n + 4), n)))
        beta = [rng.randint(0, 2) for _ in range(n)]
        r = rng.randint(1, 3)
        printed = printed_trace(positions, beta, r)
        checks.check_trace(positions, beta, r, printed)
        seen.add(printed["outcome"])
        if printed["outcome"] == "successful":
            final = dict(printed["final"])
            bead = next(iter(final))
            final[bead] += 1
            corrupted = [{**printed, "final": final}, {"outcome": "collided", "epsilon": ({}, ())}]
        else:
            partner, partner_beta = printed["epsilon"]
            swapped = dict(positions)  # the unswapped abacus keeps the sign
            bead, blocker, _ = printed["collision"]
            corrupted = [
                {**printed, "epsilon": (swapped, partner_beta)},
                {**printed, "epsilon": (partner, tuple(beta))},
                {**printed, "collision": (blocker, bead, printed["collision"][2])},
                {**printed, "outcome": "successful"},
            ]
        for bad in corrupted:
            with pytest.raises((CheckError, KeyError)):
                checks.check_trace(positions, beta, r, bad)
    assert seen == {"successful", "collided"}


def test_printed_traces_parse_in_both_formats():
    argv = ["trace", "--abacus", "0:2,1:1,3:3", "--beta", "1,1,0", "--r", "2"]
    code, plain, _ = workloads.run_cli(argv)
    code_json, js, _ = workloads.run_cli(argv + ["--format", "json"])
    assert code == code_json == 0
    assert checks.parse_trace_plain(plain) == checks.parse_trace_json(json.loads(js)["result"])


def test_report_checks_reject_wrong_counts():
    mu, r, m, n = (1,), 2, 2, 4
    support = checks.supersets(mu, r, m)
    report = verify_process_identity(Partition(mu), r, m, n)
    good = {"ok": report.ok, "pairs": report.n_pairs, "aborted": report.n_aborted, "completed": report.n_completed}
    checks.check_process_report(good, support, n, m)
    for bad in ({"ok": False}, {"pairs": good["pairs"] - 1}, {"completed": good["completed"] + 1},
                {"aborted": good["aborted"] - 1, "completed": good["completed"] + 1}):
        with pytest.raises(CheckError):
            checks.check_process_report({**good, **bad}, support, n, m)
    report = verify_against_oracle(Partition(mu), r, m, 5)
    good = {"ok": report.ok, "terms": report.terms, "detail": report.detail}
    checks.check_symbolic_report(good, support, 5)
    for bad in ({"ok": False}, {"terms": good["terms"] + 1}, {"detail": "exact match on 1 monomials"}):
        with pytest.raises(CheckError):
            checks.check_symbolic_report({**good, **bad}, support, 5)


def test_request_checks_reject_a_failed_request():
    run_case, check = workloads.expand_case(random.Random(1), "plain")
    code, out, err = run_case()
    check((code, out, err))
    for bad in ((1, out, err), (0, out, "error: something went wrong\n"), (2, "", "usage: plethax\n")):
        with pytest.raises(CheckError):
            check(bad)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_modular_verify_check_rejects_wrong_reports(fmt):
    params = ((1,), 2, 2, 6)
    run_case, check = workloads.modular_case(params, 5, fmt)
    code, out, err = run_case()
    check((code, out, err))
    corrupted = [
        out.replace("PASS", "FAIL") if fmt == "plain" else out.replace('"ok": true', '"ok": false'),
        out.replace("all 20 seeded points", "all 19 seeded points"),
    ]
    if fmt == "json":
        result = json.loads(out)
        for field, delta in (("terms", 1), ("points", -1)):
            bad = json.loads(out)
            bad["result"][field] = result["result"][field] + delta
            corrupted.append(json.dumps(bad))
    for bad in corrupted:
        assert bad != out
        with pytest.raises(CheckError):
            check((code, bad, err))


def test_every_workload_round_passes_its_checks():
    for name, rounds in workloads.WORKLOADS.items():
        tally = run.Tally()
        first = next(rounds(3))
        cheap = first if name == "queries" else first[:4]
        for case in cheap:
            tally.run(case)
        assert (tally.failed, tally.wrong) == (0, 0), name


def test_traced_counts_repeat_and_wrappers_come_off():
    from plethax import cli, expansion

    main, add = cli.main, expansion.SparsePolynomial.__add__
    cases = [case for cases in islice(workloads.query_rounds(5), 2) for case in cases]
    work = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            for run_case, check in cases:
                check(run_case())
        work.append((dict(tracer.totals()[0]), dict(tracer.counts)))
    assert work[0] == work[1]
    assert work[0][0]["cli.main"] == len(cases)
    assert cli.main is main and expansion.SparsePolynomial.__add__ is add


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "cases_per_s", "case_p50_ms", "case_p90_ms", "peak_rss_mb",
    ]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout
