import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import plethax.cli as cli
import plethax.process as process
from plethax import Partition, SchurExpansion, pmn_expand, pmn_expand_iterated
from plethax.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_plain_goldens(capsys):
    code, out, err = run_cli(capsys, "expand", "--mu", "", "--r", "2", "--m", "2")
    assert (code, err) == (0, "")
    assert out == "s[4] - s[3,1] + s[2,2]\n"
    code, out, _ = run_cli(capsys, "expand", "--mu", "1", "--r", "1", "--m", "1")
    assert code == 0
    assert out == "s[2] + s[1,1]\n"


def test_expand_latex(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--mu", "", "--r", "2", "--m", "2", "--format", "latex"
    )
    assert code == 0
    assert out == "s_{(4)} - s_{(3,1)} + s_{(2,2)}\n"
    code, out, _ = run_cli(
        capsys,
        "expand", "--mu", "", "--rho", "2,2", "--nu", "1",
        "--format", "latex",
    )
    assert code == 0
    assert "2\\,s_{(2,2)}" in out


def test_expand_coefficient_rendering(capsys):
    code, out, _ = run_cli(capsys, "expand", "--mu", "", "--rho", "2,2", "--nu", "1")
    assert code == 0
    assert out == "s[4] - s[3,1] + 2*s[2,2] - s[2,1,1] + s[1,1,1,1]\n"


def test_expand_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--mu", "2,1", "--r", "2", "--m", "1",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["command"] == "expand"
    assert record["inputs"] == {"mu": [2, 1], "r": 2, "m": 1}
    assert record["result"]["terms"] == pmn_expand(Partition((2, 1)), 2, 1).to_records()


def test_expand_iterated_json(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--mu", "1", "--rho", "2,1", "--nu", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == pmn_expand_iterated(
        Partition((1,)), Partition((2, 1)), Partition((2,))
    ).to_records()


@pytest.mark.parametrize("fmt", ["plain", "latex"])
def test_render_expansion_of_zero(fmt):
    assert cli.render_expansion(SchurExpansion(), fmt) == "0"


def test_sgn_chain_output(capsys):
    code, out, _ = run_cli(
        capsys, "sgn", "--outer", "8,6,6,5,5,1", "--inner", "5,3,3,2,2,1",
        "--r", "5",
    )
    assert code == 0
    assert out.splitlines() == [
        "+1",
        "chain: (5,3,3,2,2,1) -> (5,4,4,4,3,1) -> (5,5,5,5,5,1) -> (8,6,6,5,5,1)",
        "strip 1: top 2 bottom 5 sign -1",
        "strip 2: top 2 bottom 5 sign -1",
        "strip 3: top 1 bottom 3 sign +1",
    ]


def test_sgn_zero_and_empty_chain(capsys):
    code, out, _ = run_cli(capsys, "sgn", "--outer", "2,1,1", "--inner", "", "--r", "2")
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(capsys, "sgn", "--outer", "3,1", "--inner", "3,1", "--r", "2")
    assert code == 0
    assert out.splitlines() == ["+1", "chain: empty"]


def test_sgn_json(capsys):
    code, out, _ = run_cli(
        capsys, "sgn", "--outer", "2,2", "--inner", "", "--r", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["sign"] == 1
    assert record["result"]["chain"]["tops"] == [1, 1]
    assert record["result"]["chain"]["shapes"] == [[], [1, 1], [2, 2]]


def test_trace_successful_plain(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--abacus", "1:4,3:2,4:5,6:1,7:6,10:3",
        "--beta", "0,2,0,0,1,0", "--r", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "initial: .4.25.16..3"
    assert lines[1] == "beta: (0,2,0,0,1,0)  r: 5"
    assert "i=3  bead 2 moves to 8; shape now (5,4,4,4,3,1)" in lines
    assert "i=4  bead 5 moves to 9; shape now (5,5,5,5,5,1)" in lines
    assert "i=8  bead 2 moves to 13; shape now (8,6,6,5,5,1)" in lines
    assert "outcome: successful" in lines
    assert "final: .4....16.53..2" in lines
    assert lines[-1] == (
        "shapes: (5,3,3,2,2,1) -> (5,4,4,4,3,1) -> "
        "(5,5,5,5,5,1) -> (8,6,6,5,5,1)"
    )


def test_trace_unsuccessful_plain(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--abacus", "1:4,3:2,4:5,6:1,7:6,10:3",
        "--beta", "0,2,0,1,0,0", "--r", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert "outcome: unsuccessful at i=1: bead 4 collides with bead 1" in lines
    assert lines[-2] == "epsilon abacus: .1.25.46..3"
    assert lines[-1] == "epsilon beta: (1,2,0,0,0,0)"


def test_aborted_trace_runs_the_process_once(capsys, monkeypatch):
    runs = []
    run = process.run_process

    def counting(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(process, "run_process", counting)
    monkeypatch.setattr(cli, "run_process", counting)
    code, out, _ = run_cli(
        capsys, "trace", "--abacus", "1:4,3:2,4:5,6:1,7:6,10:3",
        "--beta", "0,2,0,1,0,0", "--r", "5",
    )
    assert code == 0
    assert out.splitlines()[-1] == "epsilon beta: (1,2,0,0,0,0)"
    assert len(runs) == 1


def test_trace_canonical(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--canonical", "--mu", "1", "--N", "2",
        "--beta", "0,1", "--r", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "initial: 2.1"
    assert "outcome: successful" in lines
    assert "final: .21" in lines


def test_trace_json_collision(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--abacus", "1:4,3:2,4:5,6:1,7:6,10:3",
        "--beta", "0,2,0,1,0,0", "--r", "5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["outcome"] == "unsuccessful"
    assert record["result"]["collision"] == {"bead": 4, "blocker": 1, "position": 1}
    assert record["result"]["epsilon"] == {
        "abacus": "1:1,3:2,4:5,6:4,7:6,10:3",
        "beta": [1, 2, 0, 0, 0, 0],
    }


def test_trace_json_successful_steps(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--abacus", "1:4,3:2,4:5,6:1,7:6,10:3",
        "--beta", "0,2,0,0,1,0", "--r", "5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    moved = [s for s in record["result"]["steps"] if s["action"] == "moved"]
    assert [s["i"] for s in moved] == [3, 4, 8]
    assert [s["strip_top"] for s in moved] == [2, 2, 1]
    assert record["result"]["final"] == "1:4,6:1,7:6,9:5,10:3,13:2"
    assert record["result"]["shapes"][0] == [5, 3, 3, 2, 2, 1]


def test_verify_pass_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mu", "", "--r", "2", "--m", "2", "--N", "4"
    )
    assert code == 0
    assert out.startswith("PASS symbolic: mu=() r=2 m=2 N=4:")
    code, out, _ = run_cli(
        capsys, "verify", "--mu", "2,1", "--r", "3", "--m", "2", "--N", "9",
        "--mode", "modular", "--seed", "42",
    )
    assert code == 0
    assert out.startswith("PASS modular: mu=(2,1) r=3 m=2 N=9 seed=42 points=20:")
    code, out, _ = run_cli(
        capsys, "verify", "--mu", "1", "--r", "2", "--m", "2", "--N", "5",
        "--mode", "process",
    )
    assert code == 0
    assert out.startswith(
        "PASS process: mu=(1) r=2 m=2 N=5 pairs=1800 aborted=1440 completed=360:"
    )


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mu", "", "--r", "2", "--m", "2", "--N", "4",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["ok"] is True
    assert record["result"]["terms"] == 3


def test_verify_failure_exits_2(capsys, monkeypatch):
    real = cli.verify_against_oracle

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        return type(report)(
            ok=False, mode=report.mode, mu=report.mu, r=report.r, m=report.m,
            n_vars=report.n_vars, seed=report.seed, points=report.points,
            terms=report.terms, detail="forced failure",
        )

    monkeypatch.setattr(cli, "verify_against_oracle", broken)
    code, out, _ = run_cli(
        capsys, "verify", "--mu", "", "--r", "1", "--m", "1", "--N", "1"
    )
    assert code == 2
    assert out.startswith("FAIL symbolic:")
    assert "forced failure" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--mu", "bogus", "--r", "1", "--m", "1"),
        ("expand", "--mu", ""),
        ("expand", "--mu", "", "--r", "1", "--m", "1", "--rho", "1", "--nu", "1"),
        ("expand", "--mu", "", "--rho", "1"),
        ("expand", "--mu", "", "--r", "0", "--m", "1"),
        ("expand", "--mu", "1,2", "--r", "1", "--m", "1"),
        ("sgn", "--outer", "1", "--inner", "2", "--r", "1"),
        ("sgn", "--outer", "2", "--inner", "1", "--r", "0"),
        ("trace", "--beta", "0,1", "--r", "1"),
        ("trace", "--canonical", "--mu", "1", "--beta", "0,1", "--r", "1"),
        ("trace", "--abacus", "1-4", "--beta", "1", "--r", "1"),
        ("trace", "--abacus", "0:1", "--beta", "1,0", "--r", "1"),
        ("trace", "--abacus", "0:1", "--canonical", "--beta", "1", "--r", "1"),
        ("verify", "--mu", "", "--r", "2", "--m", "2", "--N", "2"),
        ("verify", "--mu", "", "--r", "1", "--m", "1", "--N", "1", "--mode", "bad"),
        ("nonsense",),
        # latex is an expand format only
        ("sgn", "--outer", "4", "--inner", "", "--r", "2", "--format", "latex"),
        ("trace", "--canonical", "--mu", "1", "--N", "2", "--beta", "1,0", "--r", "1",
         "--format", "latex"),
        ("verify", "--mu", "", "--r", "1", "--m", "1", "--N", "1", "--format", "latex"),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


# Per subcommand: a valid argv, an abbreviated option, an unknown option, a
# missing required option, a bad choice and a non-integer --r.
PARSE_CASES = {
    "expand": [
        ("--mu", "2,1", "--r", "2", "--m", "1"),
        ("--mu", "1", "--rho", "2,1", "--nu", "1", "--form", "json"),
        ("--mu", "1", "--r", "2", "--m", "1", "--bogus", "1"),
        ("--r", "2", "--m", "1"),
        ("--mu", "1", "--r", "2", "--m", "1", "--format", "xml"),
        ("--mu", "1", "--r", "x", "--m", "1"),
    ],
    "sgn": [
        ("--outer", "3,1", "--inner", "1", "--r", "1"),
        ("--out", "3,1", "--inn", "1", "--r", "1", "--form", "json"),
        ("--outer", "3,1", "--inner", "1", "--r", "1", "--bogus"),
        ("--outer", "3,1", "--r", "1"),
        ("--outer", "3,1", "--inner", "1", "--r", "1", "--format", "latex"),
        ("--outer", "3,1", "--inner", "1", "--r", "x"),
    ],
    "trace": [
        ("--abacus", "0:1,2:2", "--beta", "1,0", "--r", "1"),
        ("--can", "--mu", "1", "--N", "2", "--be", "0,1", "--r", "1", "--form", "json"),
        ("--abacus", "0:1", "--beta", "1", "--r", "1", "-x"),
        ("--abacus", "0:1", "--beta", "1"),
        ("--abacus", "0:1", "--beta", "1", "--r", "1", "--format", "xml"),
        ("--abacus", "0:1", "--beta", "1", "--r", "x"),
    ],
    "verify": [
        ("--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "modular"),
        ("--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mo", "process", "--form", "json"),
        ("--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--points", "5"),
        ("--mu", "1", "--r", "2", "--m", "1"),
        ("--mu", "1", "--r", "2", "--m", "1", "--N", "3", "--mode", "exact"),
        ("--mu", "1", "--r", "x", "--m", "1", "--N", "3"),
    ],
}


def _parse_and_run(monkeypatch, capsys, argv, top_level):
    """(namespaces parsed, exit code, stdout, stderr) of main(argv); with
    top_level, main finds no subcommand parser and takes the top level."""
    namespaces = []
    parse = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        namespaces.append(parse(self, *args, **kwargs))
        return namespaces[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "parse_args", recording)
        if top_level:
            parser, _ = cli._build_parser()
            patch.setattr(cli, "_build_parser", lambda: (parser, {}))
        code = main(list(argv))
    captured = capsys.readouterr()
    return namespaces, code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [(command,) + case for command, cases in PARSE_CASES.items() for case in cases]
    + [(), ("bogus",), ("--format", "json", "sgn"), ("expand", "--mu", "1", "--", "x")],
)
def test_subcommand_parse_matches_the_top_level(monkeypatch, capsys, argv):
    direct = _parse_and_run(monkeypatch, capsys, argv, top_level=False)
    assert direct == _parse_and_run(monkeypatch, capsys, argv, top_level=True)
    namespaces, code, out, err = direct
    if namespaces:
        assert namespaces[0].command == argv[0]
    assert (code == 1) == bool(err)


def test_subcommand_help_matches_the_top_level(monkeypatch, capsys):
    helps = []
    for top_level in (False, True):
        with pytest.raises(SystemExit) as exc:
            _parse_and_run(monkeypatch, capsys, ("expand", "-h"), top_level)
        helps.append((exc.value.code, capsys.readouterr()))
    assert helps[0] == helps[1]
    code, captured = helps[0]
    assert code == 0 and captured.err == ""
    assert captured.out.startswith("usage: plethax expand")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sgn", "--outer", "1", "--inner", "2", "--r", "1"),
         "(2) is not contained in (1)"),
        (("trace", "--canonical", "--mu", "2,1", "--N", "1", "--beta", "0", "--r", "1"),
         "(2,1) needs at least 2 beads, got 1"),
        (("trace", "--abacus", "0:1,0:2", "--beta", "0,0", "--r", "1"),
         "two beads on slot 0"),
        # the CLI's own argument checks, before any library call
        (("trace", "--abacus", "0:1", "--beta", "1", "--r", "0"),
         "--r must be positive"),
        (("verify", "--mu", "1", "--r", "0", "--m", "1", "--N", "3"),
         "--r and --m must be positive"),
        (("verify", "--mu", "1", "--r", "1", "--m", "1", "--N", "0"),
         "--N must be positive"),
        (("expand", "--mu", "1", "--rho", "", "--nu", "1"),
         "--rho and --nu must be non-empty partitions"),
        (("trace", "--abacus", "0:a", "--beta", "1", "--r", "1"),
         "expected position:label, got '0:a'"),
        # the scan pads r slots per move, guarded before the padding is built
        (("trace", "--abacus", "0:1", "--beta", "99999999999999999999", "--r", "1"),
         "99999999999999999999 scan slots exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        (("trace", "--abacus", "5:1", "--beta", "1", "--r", "999999999999"),
         "999999999999 scan slots exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        # the modular route's e tables, guarded before the strip search
        (("verify", "--mu", "", "--r", "1", "--m", "1", "--N", "20000", "--mode", "modular"),
         "8000000000 modular table entries exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        (("verify", "--mu", "", "--r", "1", "--m", "1", "--N", "708", "--mode", "modular",
          "--format", "json"),
         "10025280 modular table entries exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        # shapes that fail Partition's checks
        (("expand", "--mu", "1,2", "--r", "1", "--m", "1"),
         "bad partition '1,2': partition entries must be weakly decreasing: 1 before 2"),
        (("sgn", "--outer", "2,-1", "--inner", "1", "--r", "1"),
         "bad partition '2,-1': partition entries must be nonnegative: [2, -1]"),
        (("verify", "--mu", "2,0,1", "--r", "1", "--m", "1", "--N", "4"),
         "bad partition '2,0,1': partition entries must be weakly decreasing: 0 before 1"),
        # the abacus slot list, guarded before it is built
        (("trace", "--abacus", "1000000000:1", "--beta", "0", "--r", "1"),
         "1000000001 abacus slots exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        (("trace", "--canonical", "--mu", "1000000000", "--N", "1", "--beta", "0", "--r", "1"),
         "1000000001 abacus slots exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        # the peel's strips, guarded before the first bead mask is built
        (("sgn", "--outer", "1000000000", "--inner=", "--r", "1"),
         "1000000000 strips exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
        (("sgn", "--outer", "1000000000", "--inner", "", "--r", "1", "--format", "json"),
         "1000000000 strips exceeds the enumeration budget 10000000; "
         "set PLETHAX_BUDGET higher to proceed"),
    ],
)
def test_input_errors_print_the_library_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("expand", "--mu", "3,,1", "--r", "1", "--m", "1"),
         "bad partition '3,,1': invalid literal for int() with base 10: ''"),
        (("expand", "--mu", "2,1,", "--r", "1", "--m", "1"),
         "bad partition '2,1,': invalid literal for int() with base 10: ''"),
        (("expand", "--mu", "", "--rho", "2,,1", "--nu", "1"),
         "bad partition '2,,1': invalid literal for int() with base 10: ''"),
        (("sgn", "--outer", ",3", "--inner", "1", "--r", "1"),
         "bad partition ',3': invalid literal for int() with base 10: ''"),
        (("verify", "--mu", "1, ,", "--r", "1", "--m", "1", "--N", "3"),
         "bad partition '1, ,': invalid literal for int() with base 10: ''"),
        (("trace", "--canonical", "--mu", "1,,1", "--N", "3", "--beta", "1,0,0", "--r", "1"),
         "bad partition '1,,1': invalid literal for int() with base 10: ''"),
        (("trace", "--abacus", "0:1,2:2,3:3", "--beta", "1,,2", "--r", "1"),
         "bad integer list '1,,2'"),
        (("trace", "--abacus", "0:1,,2:2", "--beta", "1,0", "--r", "1"),
         "expected position:label, got ''"),
    ],
)
def test_empty_list_entries_are_rejected(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_blank_lists_are_empty(capsys):
    assert run_cli(capsys, "expand", "--mu", " ", "--r", "1", "--m", "1") == (0, "s[1]\n", "")
    code, out, _ = run_cli(capsys, "trace", "--abacus", "", "--beta", "", "--r", "1")
    assert code == 0 and "outcome: successful" in out


def test_trace_rejects_a_bead_labelled_zero(capsys):
    assert run_cli(
        capsys, "trace", "--abacus", "0:1,1:0,2:2", "--beta", "1,0", "--r", "1"
    ) == (1, "", "error: bead labels must be at least 1, got 0\n")


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_pair_budget_names_the_variable(capsys, monkeypatch, raw):
    monkeypatch.setenv("PLETHAX_BUDGET", raw)
    assert run_cli(
        capsys, "verify", "--mu", "", "--r", "1", "--m", "1", "--N", "2",
        "--mode", "process",
    ) == (1, "", f"error: PLETHAX_BUDGET must be a positive integer, got '{raw}'\n")


def test_process_budget_error_names_plethax_budget_not_modular_mode(capsys, monkeypatch):
    monkeypatch.setenv("PLETHAX_BUDGET", "10")
    assert run_cli(
        capsys, "verify", "--mu", "", "--r", "1", "--m", "1", "--N", "3",
        "--mode", "process",
    ) == (
        1,
        "",
        "error: 18 pairs exceeds the enumeration budget 10; "
        "set PLETHAX_BUDGET higher to proceed\n",
    )


def test_symbolic_guard_points_cli_users_at_modular_mode(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--mu", "", "--r", "3", "--m", "3", "--N", "9"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "--mode modular" in err
    assert "max_vars" not in err
    with pytest.raises(ValueError, match="max_vars=9"):
        cli.verify_against_oracle(Partition(), 3, 3, 9)


def test_output_is_stable_across_runs(capsys):
    first = run_cli(capsys, "expand", "--mu", "3,1", "--r", "2", "--m", "2")
    second = run_cli(capsys, "expand", "--mu", "3,1", "--r", "2", "--m", "2")
    assert first == second
    a = run_cli(
        capsys, "verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3",
        "--mode", "modular", "--seed", "5", "--format", "json",
    )
    b = run_cli(
        capsys, "verify", "--mu", "1", "--r", "2", "--m", "1", "--N", "3",
        "--mode", "modular", "--seed", "5", "--format", "json",
    )
    assert a == b


def test_console_script_is_installed(tmp_path):
    """The `plethax` command declared in pyproject.toml runs as its own process.

    An install would write the launcher below onto PATH; writing it here
    checks the same entry point from a checkout, with nothing installed.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["plethax"]
    module, func = entry.split(":")
    launcher = tmp_path / "plethax"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    exe = shutil.which("plethax", path=str(tmp_path))
    assert exe is not None

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )

    def run(*argv):
        return subprocess.run(
            [exe, *argv], capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=60,
        )

    done = run("expand", "--mu", "", "--r", "2", "--m", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "s[4] - s[3,1] + s[2,2]\n"
    done = run("expand")
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "plethax", "expand", "--mu", "", "--r", "2", "--m", "2"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "s[4] - s[3,1] + s[2,2]\n", ""
    )


def test_importing_the_package_skips_dataclasses(tmp_path):
    """The records are NamedTuples, so starting the CLI needs no
    dataclasses (and none of the inspect, ast, dis it pulls in)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import plethax, plethax.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_star_import_binds_exactly_the_public_names():
    import plethax

    namespace = {}
    exec("from plethax import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == plethax.__all__
    assert not [name for name in namespace if name.startswith("_")]
    assert not [name for name, value in namespace.items() if isinstance(value, type(os))]
