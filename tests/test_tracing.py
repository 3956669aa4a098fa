"""The benchmark's tracer (bench/tracing.py) wraps package functions and
methods by name and raises KeyError on a name that is gone.  Running it
here, read-only, makes a removed or renamed tracer-bound name fail the
package's own suite and not only `python -m pytest bench`.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from plethax import abacus, cli, expansion, partitions, polynomials, process

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (
    abacus,
    cli,
    expansion,
    partitions,
    polynomials,
    process,
    abacus.LabelledAbacus,
    partitions.Partition,
    polynomials.SparsePolynomial,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def bindings():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_wraps_each_verify_route_and_comes_off():
    before = bindings()
    tracer = load_tracer()()
    requests = [
        ("expand", "--mu", "2,1", "--r", "2", "--m", "2"),
        ("verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3"),
        ("verify", "--mu", "1", "--r", "2", "--m", "2", "--N", "5", "--mode", "modular"),
        ("verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "process"),
    ]
    outputs = []
    with tracer.installed():
        assert cli.main is not before[cli, "main"]
        for argv in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(list(argv)) == 0
            outputs.append(out.getvalue())
    assert outputs[0] == "s[6,1] - s[4,1,1,1] + s[2,2,2,1]\n"
    assert [out.split()[:2] for out in outputs[1:]] == [
        ["PASS", "symbolic:"], ["PASS", "modular:"], ["PASS", "process:"],
    ]
    calls, _ = tracer.totals()
    for name in (
        "cli.main",
        "expansion.pmn_expand",
        "expansion.verify_against_oracle",
        "expansion.verify_process_identity",
        "polynomials.h_poly",
        "polynomials.plethysm_pr",
        "polynomials.seeded_points",
        "polynomials.h_eval",
        "process.enumerate_pairs",
        "process.epsilon",
        "abacus.all_abaci",
    ):
        assert calls[name] > 0, name
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
