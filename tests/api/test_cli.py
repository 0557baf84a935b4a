"""CLI smoke tests: ``python -m repro`` subcommands end to end."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.api.cli import UsageError, build_parser, main
from repro.multicore.simulator import CycleLimitExceeded

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro <argv>`` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestSubprocessSmoke:
    def test_list_simulators(self):
        proc = _run_module("list-simulators")
        assert proc.returncode == 0, proc.stderr
        for name in ("interval", "detailed", "oneipc"):
            assert name in proc.stdout
        assert "use_old_window" in proc.stdout

    def test_compare_interval_detailed(self):
        proc = _run_module(
            "compare",
            "--simulators", "interval,detailed",
            "--benchmark", "gcc",
            "--instructions", "4000",
            "--warmup", "1000",
        )
        assert proc.returncode == 0, proc.stderr
        assert "interval" in proc.stdout and "detailed" in proc.stdout
        assert "cycles err %" in proc.stdout


class TestInProcessCli:
    def test_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main([
            "run",
            "--simulator", "interval",
            "--benchmark", "mcf",
            "--instructions", "4000",
            "--warmup", "1000",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "IPC" in captured.out
        document = json.loads(out.read_text())
        assert document["simulator"] == "interval"
        assert document["stats"]["total_instructions"] > 0

    def test_run_with_option_override(self, capsys):
        code = main([
            "run",
            "--simulator", "interval",
            "--benchmark", "gcc",
            "--instructions", "4000",
            "--warmup", "1000",
            "-o", "use_old_window=false",
        ])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_compare_saves_to_results_path(self, tmp_path, capsys):
        results_path = tmp_path / "compare.json"
        code = main([
            "compare",
            "--simulators", "interval,oneipc",
            "--benchmark", "gcc",
            "--instructions", "4000",
            "--warmup", "1000",
            "--workers", "2",
            "--results", str(results_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert str(results_path) in captured.out
        document = json.loads(results_path.read_text())
        assert [r["simulator"] for r in document["results"]] == ["interval", "oneipc"]

    def test_unknown_simulator_exits_nonzero(self, capsys):
        code = main(["run", "--simulator", "flux_capacitor", "--instructions", "1000"])
        assert code == 2
        assert "unknown simulator" in capsys.readouterr().err

    def test_bad_option_exits_nonzero(self, capsys):
        code = main([
            "run",
            "--simulator", "interval",
            "--benchmark", "gcc",
            "--instructions", "1000",
            "-o", "no_such_option=1",
        ])
        assert code == 2
        assert "no option" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--max-cycles", "0", "max_cycles"),
            ("--max-cycles", "-1", "max_cycles"),
            ("--warmup", "-1", "warmup"),
        ],
    )
    def test_out_of_range_budget_is_a_one_line_error(self, flag, value, named, capsys):
        code = main([
            "run",
            "--simulator", "interval",
            "--benchmark", "gcc",
            "--instructions", "1000",
            flag, value,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "workload",
        [
            ["--kind", "single", "--benchmark", "gcc"],
            ["--kind", "multiprogram", "--benchmark", "gcc", "--copies", "2"],
            ["--kind", "multithreaded", "--benchmark", "blackscholes", "--copies", "2"],
        ],
    )
    @pytest.mark.parametrize("instructions", ["0", "-5"])
    def test_non_positive_instructions_is_a_one_line_error(
        self, workload, instructions, capsys
    ):
        code = main(["run", "--simulator", "interval", *workload,
                     "--instructions", instructions])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "instructions must be at least 1" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--simulator", "interval"],
            ["compare", "--simulators", "interval,detailed"],
            ["compare", "--simulators", "interval,detailed", "--workers", "2"],
        ],
        ids=["run", "compare", "compare-workers"],
    )
    def test_cycle_limit_is_a_one_line_error(self, command, capsys):
        # The overrun crosses the worker pool intact and prints one line.
        code = main([*command, "--benchmark", "gcc", "--instructions", "4000",
                     "--warmup", "1000", "--max-cycles", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: simulation exceeded 10 cycles (possible deadlock in 'gcc')\n"
        )

    def test_cycle_limit_reraises_under_debug(self):
        with pytest.raises(CycleLimitExceeded, match="exceeded 10 cycles"):
            main(["--debug", "run", "--simulator", "interval", "--benchmark", "gcc",
                  "--instructions", "4000", "--max-cycles", "10"])

    def test_figure_smoke(self, capsys):
        code = main(["figure", "5", "--preset", "quick", "--benchmarks", "gcc"])
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out


class TestUsageErrors:
    """Malformed flags exit 2 with exactly one ``error:`` line, no traceback."""

    CASES = {
        "copies-on-single": ["run", "--simulator", "interval", "--kind", "single",
                             "--benchmark", "gcc", "--copies", "3"],
        "malformed-option": ["run", "--simulator", "interval", "--benchmark", "gcc",
                             "--instructions", "1000", "-o", "use_old_window"],
        "empty-simulators": ["compare", "--simulators", " , ", "--benchmark", "gcc"],
        "empty-figure-benchmarks": ["figure", "5", "--benchmarks", " , "],
        "zero-workers": ["compare", "--simulators", "interval", "--benchmark", "gcc",
                         "--workers", "0"],
        "negative-workers": ["compare", "--simulators", "interval", "--benchmark", "gcc",
                             "--workers", "-3"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_in_process_raises_exit_code_2(self, case, capsys):
        with pytest.raises(UsageError) as raised:
            main(self.CASES[case])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err == f"error: {raised.value}\n"

    @pytest.mark.parametrize(
        "case",
        ["copies-on-single", "empty-figure-benchmarks", "zero-workers", "negative-workers"],
    )
    def test_subprocess_exits_2_with_one_line(self, case):
        proc = _run_module(*self.CASES[case])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestArgparseErrors:
    """argparse's own errors are one ``error:`` line and exit 2, like ours."""

    CASES = {
        "bad-int": ["run", "--warmup", "abc"],
        "bad-figure": ["figure", "99"],
        "missing-subcommand": [],
        "unknown-subcommand": ["bogus"],
        "removed-serve": ["serve"],
        "removed-bench": ["bench"],
        "removed-submit": ["submit"],
        "removed-worker": ["worker"],
        "unrecognized-flag": ["run", "--port", "8000"],
        "bad-kind": ["run", "--kind", "bogus"],
        "missing-value": ["run", "--simulator"],
        "bad-preset": ["figure", "5", "--preset", "bogus"],
        "bad-workers": ["compare", "--workers", "two"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_in_process_exits_2_with_one_line(self, case, capsys):
        with pytest.raises(SystemExit) as raised:
            main(self.CASES[case])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repro") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["bad-int", "removed-serve", "removed-bench"])
    def test_subprocess_exits_2_with_one_line(self, case):
        proc = _run_module(*self.CASES[case])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "case,prog,offender",
        [
            ("bad-int", "repro run", "'abc'"),
            ("bad-figure", "repro figure", "'99'"),
            ("missing-subcommand", "repro", "command"),
            ("unknown-subcommand", "repro", "'bogus'"),
            ("removed-serve", "repro", "'serve'"),
            ("removed-bench", "repro", "'bench'"),
            ("unrecognized-flag", "repro", "--port 8000"),
            ("bad-kind", "repro run", "'bogus'"),
            ("missing-value", "repro run", "--simulator"),
            ("bad-preset", "repro figure", "'bogus'"),
            ("bad-workers", "repro compare", "'two'"),
        ],
    )
    def test_the_one_line_names_the_command_and_the_input(
        self, case, prog, offender, capsys
    ):
        # Folding the usage block away must not lose what was wrong, or where.
        with pytest.raises(SystemExit):
            main(self.CASES[case])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prog}: ")
        assert offender in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["run", "--help"],
            ["list-simulators", "--help"],
            ["compare", "--help"],
            ["figure", "--help"],
        ],
    )
    def test_help_still_prints_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")


class TestFaultPlanFlagErrors:
    """A ``--faults`` plan that cannot be read is one ``error:`` line, exit 2."""

    CASES = {
        "malformed-json": ("{not json", "Expecting property name"),
        "missing-file": ("no-such-plan.json", "No such file"),
        "unknown-kind": ('{"seed": 1, "specs": [{"kind": "bogus"}]}',
                         "unknown fault kind 'bogus'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_in_process_exits_2_with_one_line(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        plan, named = self.CASES[case]
        code = main(["run", "--simulator", "interval", "--benchmark", "gcc",
                     "--instructions", "1000", "--faults", plan])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


def test_subcommands_are_the_local_ones():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == {
        "list-simulators", "run", "compare", "figure",
    }


class TestUnknownNameErrors:
    """Unknown simulator/benchmark → exit 2 + valid names listed."""

    def test_run_unknown_simulator(self):
        proc = _run_module("run", "--simulator", "nope")
        assert proc.returncode == 2
        assert "unknown simulator 'nope'" in proc.stderr
        for name in ("interval", "detailed", "oneipc"):
            assert name in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_unknown_benchmark(self):
        proc = _run_module(
            "run", "--benchmark", "nope", "--instructions", "1000"
        )
        assert proc.returncode == 2
        assert "unknown benchmark" in proc.stderr and "gcc" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_compare_unknown_simulator(self):
        proc = _run_module("compare", "--simulators", "nope", "--benchmark", "gcc")
        assert proc.returncode == 2
        assert "unknown simulator 'nope'" in proc.stderr
        for name in ("interval", "detailed", "oneipc"):
            assert name in proc.stderr
        assert "Traceback" not in proc.stderr
