"""``python -m repro`` — command-line front end for the session layer.

Subcommands:

``list-simulators``
    Show every registered timing model and its option schema.
``run``
    Run one simulator on one workload and print its statistics
    (optionally saving the serialized result with ``--json``).
``compare``
    Run several simulators on the same workload (in parallel with
    ``--workers``), persist the results to a shared JSON path, reload them
    and print a comparison table.
``figure``
    Reproduce one paper artifact (Figures 4–10 or the ablations) at a
    chosen budget preset.
Everything funnels through the same :mod:`repro.api` layer the programmatic
interface uses; the CLI adds only argument parsing and rendering.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from ..common.config import default_machine_config
from ..common.metrics import percentage_error
from ..experiments.presets import PRESET_NAMES
from ..multicore.simulator import CycleLimitExceeded
from .registry import (
    InvalidOptionError,
    UnknownSimulatorError,
    get_simulator,
    list_simulators,
)
from .results import load_results, save_results
from .session import run_spec, run_specs
from .spec import SweepSpec, WorkloadSpec

__all__ = ["main", "build_parser"]


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line and exit 2.

    argparse's own errors (a malformed value, an unknown or missing
    subcommand) otherwise print a multi-line usage block first; ``--help``
    still prints the full usage.
    """

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro`` argument parser."""
    parser = _ArgumentParser(
        prog="repro",
        description="Interval simulation reproduction (Genbrugge, Eyerman & "
        "Eeckhout, HPCA 2010): run simulators, sweeps and paper figures.",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of one-line error messages",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    subparsers.add_parser(
        "list-simulators", help="list registered timing models and their options"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one simulator on one workload"
    )
    _add_workload_arguments(run_parser)
    run_parser.add_argument(
        "--simulator", default="interval", help="registry name (default: interval)"
    )
    run_parser.add_argument(
        "-o",
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="simulator option (repeatable), e.g. -o use_old_window=false",
    )
    run_parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the RunResult as JSON"
    )

    compare_parser = subparsers.add_parser(
        "compare", help="run several simulators on the same workload"
    )
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--simulators",
        default="interval,detailed",
        help="comma-separated registry names (default: interval,detailed)",
    )
    compare_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the sweep"
    )
    compare_parser.add_argument(
        "--results",
        metavar="PATH",
        default=None,
        help="shared result path; results are saved there and the table is "
        "rendered from the reloaded file (default: a temporary file)",
    )

    figure_parser = subparsers.add_parser(
        "figure", help="reproduce one paper artifact"
    )
    figure_parser.add_argument(
        "artifact",
        choices=["4", "5", "6", "7", "8", "9", "10", "ablation"],
        help="figure number or 'ablation'",
    )
    figure_parser.add_argument(
        "--preset",
        choices=list(PRESET_NAMES),
        default="quick",
        help="budget preset (default: quick)",
    )
    figure_parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset overriding the preset's",
    )
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """Workload/budget flags shared by ``run`` and ``compare``."""
    parser.add_argument("--benchmark", default="gcc", help="benchmark name")
    parser.add_argument(
        "--kind",
        choices=["single", "multiprogram", "multithreaded"],
        default="single",
        help="workload shape (default: single)",
    )
    parser.add_argument(
        "--copies",
        type=int,
        default=1,
        help="copies (multiprogram) or threads (multithreaded)",
    )
    parser.add_argument(
        "--cores", type=int, default=None, help="cores (default: fit the workload)"
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=60_000,
        help="instructions per program copy (total across threads for "
        "--kind multithreaded)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None, help="warm-up instructions (default: half)"
    )
    parser.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    parser.add_argument(
        "--max-cycles", type=int, default=200_000_000, help="simulated-time bound"
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="deterministic fault schedule: a path to a FaultPlan JSON file, "
        'or the JSON inline (e.g. \'{"seed": 1, "specs": [...]}\')',
    )


class UsageError(SystemExit):
    """Malformed command-line input: exit status 2 with a one-line message.

    :func:`main` prints ``error: <message>`` to stderr and re-raises, so the
    interpreter exits 2 without printing anything further.  ``str()`` is the
    message itself.
    """

    def __init__(self, message: str) -> None:
        super().__init__(2)
        self.message = message

    def __str__(self) -> str:
        return self.message


def _parse_options(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse repeated ``-o key=value`` flags into a dictionary."""
    options: Dict[str, str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise UsageError(f"option {pair!r} is not of the form KEY=VALUE")
        options[key.strip()] = value.strip()
    return options


def _parse_fault_plan(value: Optional[str]):
    """Parse a ``--faults`` argument: inline JSON or a path to a JSON file."""
    if value is None:
        return None
    import json

    from ..faults.plan import FaultPlan

    if value.lstrip().startswith("{"):
        data = json.loads(value)
    else:
        with open(value, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    plan = FaultPlan.from_dict(data)
    # An empty plan is the same job as no plan: normalize so the spec's
    # content hash matches the fault-free submission byte for byte.
    return None if plan.is_empty else plan


def _spec_from_args(args: argparse.Namespace, simulator: str, options=None) -> SweepSpec:
    """Build a SweepSpec from the shared workload/budget flags."""
    if args.kind == "single" and args.copies != 1:
        raise UsageError(
            "--copies only applies to --kind multiprogram/multithreaded"
        )
    workload = WorkloadSpec(
        kind=args.kind,
        benchmark=args.benchmark,
        copies=args.copies,
        instructions=args.instructions,
        seed=args.seed,
    )
    cores = args.cores if args.cores is not None else workload.num_threads
    warmup = args.warmup if args.warmup is not None else args.instructions // 2
    return SweepSpec(
        simulator=simulator,
        workload=workload,
        machine=default_machine_config(num_cores=cores),
        options=dict(options or {}),
        warmup_instructions=warmup,
        max_cycles=args.max_cycles,
        faults=_parse_fault_plan(args.faults),
    )


def _render_table(headers: Sequence[str], rows, title: str = "") -> str:
    from ..experiments.runner import render_table

    return render_table(headers, rows, title=title)


# -- subcommand implementations ---------------------------------------------------


def _cmd_list_simulators(_args: argparse.Namespace) -> int:
    for entry in list_simulators():
        print(f"{entry.name:12s} {entry.description}")
        for option in entry.options:
            print(
                f"    --option {option.name}=<{option.type.__name__}>"
                f"  (default {option.default!r})  {option.help}"
            )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    entry = get_simulator(args.simulator)  # fail early on unknown names
    options = entry.validate_options(dict(_parse_options(args.option)))
    result = run_spec(_spec_from_args(args, args.simulator, options))

    stats = result.stats
    print(
        f"{result.simulator} on {result.workload}: "
        f"IPC {stats.aggregate_ipc:.3f}, {stats.total_cycles} cycles, "
        f"{stats.total_instructions} instructions, "
        f"{stats.wall_clock_seconds:.2f}s wall clock"
    )
    for core in stats.cores:
        print(
            f"  core {core.core_id}: IPC {core.ipc:.3f}  "
            f"branch MPKI {core.branch_mispredictions / max(core.instructions, 1) * 1000:.1f}  "
            f"L1D misses {core.l1d_misses}"
        )
    cpi_stack = stats.cores[0].cpi_stack() if stats.cores else {}
    if cpi_stack:
        print("  CPI stack (core 0):")
        for component, value in cpi_stack.items():
            print(f"    {component:12s} {value:6.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2))
            handle.write("\n")
        print(f"result written to {args.json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.simulators.split(",") if name.strip()]
    if not names:
        raise UsageError("--simulators needs at least one name")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    specs: List[SweepSpec] = []
    for name in names:
        get_simulator(name)  # fail early on unknown names
        specs.append(_spec_from_args(args, name))

    results = run_specs(specs, workers=args.workers)

    # Persist to the shared result path and render from the reloaded file so
    # the on-disk representation is what the user sees.
    if args.results:
        results_path = args.results
        save_results(results, results_path)
        reloaded = load_results(results_path)
        print(f"results written to {results_path}")
    else:
        with tempfile.TemporaryDirectory(prefix="repro-") as tmpdir:
            results_path = os.path.join(tmpdir, "results.json")
            save_results(results, results_path)
            reloaded = load_results(results_path)

    reference = next(
        (r for r in reloaded if r.simulator == "detailed"), reloaded[0]
    )
    rows = []
    for result in reloaded:
        stats = result.stats
        rows.append(
            (
                result.simulator,
                stats.aggregate_ipc,
                stats.total_cycles,
                stats.total_instructions,
                percentage_error(stats.total_cycles, reference.stats.total_cycles),
                stats.wall_clock_seconds,
            )
        )
    print(
        _render_table(
            ["simulator", "IPC", "cycles", "instructions",
             f"cycles err % vs {reference.simulator}", "wall s"],
            rows,
            title=f"Comparison on {reloaded[0].workload} "
            f"({specs[0].workload.instructions} instructions)",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from ..experiments import (
        build_preset_configs,
        run_figure4,
        run_figure5,
        run_figure6,
        run_figure7,
        run_figure8,
        run_figure9_spec_speedup,
        run_figure10_parsec_speedup,
        run_old_window_ablation,
        run_overlap_ablation,
    )
    from dataclasses import replace

    configs = build_preset_configs(args.preset)
    if args.benchmarks is not None:
        subset = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
        if not subset:
            raise UsageError("--benchmarks needs at least one name")
        configs = {key: replace(cfg, benchmarks=subset) for key, cfg in configs.items()}

    if args.artifact == "4":
        print(run_figure4(configs["fig4"]).render())
    elif args.artifact == "5":
        print(run_figure5(configs["fig5"]).render())
    elif args.artifact == "6":
        print(run_figure6(configs["fig6"]).render())
    elif args.artifact == "7":
        print(run_figure7(configs["fig7"]).render())
    elif args.artifact == "8":
        print(run_figure8(configs["fig8"]).render())
    elif args.artifact == "9":
        print(run_figure9_spec_speedup(configs["fig9"]).render())
    elif args.artifact == "10":
        print(run_figure10_parsec_speedup(configs["fig10"]).render())
    else:
        print(run_old_window_ablation(configs["ablation"]).render())
        print()
        print(run_overlap_ablation(configs["ablation"]).render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-simulators": _cmd_list_simulators,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise
    except CycleLimitExceeded as exc:
        # A run that hits --max-cycles is a result, not a crash: one line,
        # exit 1.  The simulator's invariant errors keep their tracebacks.
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnknownSimulatorError, InvalidOptionError, ValueError, KeyError, OSError) as exc:
        # ValueError/KeyError are how the workload and figure layers report
        # bad user input (unknown benchmark, wrong suite for a figure); they
        # can also hide genuine bugs, so --debug re-raises with a traceback.
        if args.debug:
            raise
        unwrap = (
            isinstance(exc, KeyError)
            and not isinstance(exc, UnknownSimulatorError)
            and exc.args
        )
        message = exc.args[0] if unwrap else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
