"""Throughput benchmark harness: the repository's performance trajectory.

The paper's headline is simulation *speed* ("tens to hundreds of KIPS"), so
the repository tracks its own: :func:`run_throughput_suite` times every
registered timing model on a fixed seeded workload and reports simulated
KIPS (thousand simulated instructions per host second) together with the
model-level quantity that explains it, miss events per instruction — the
interval-at-a-time kernel pays real work only at events.

The trajectory is a **multi-workload** one: :data:`BENCH_SHAPES` defines
canonical shapes that stress different kernel paths — ``gcc`` (compute-bound
single thread, the historical default), ``mcf`` (memory-bound single thread:
the D-side probe and DRAM paths dominate), ``sync`` (PARSEC-like sync-heavy
multithreaded: barriers, locks and the multi-core event heap dominate),
``mcf64`` (memory-bound many-core with a shared hot region: the D-side
memo under coherence traffic) and the many-core scale-out shapes
``sync64``/``sync256`` (64 and 256 simulated cores: the parked-barrier
driver dominates — blocked cores leave the event heap entirely).
:func:`run_multi_shape_suite` measures every model on every shape.

The suite powers three front ends:

* ``repro bench`` (and ``benchmarks/run_bench.py``) writes the JSON report —
  by convention ``BENCH_throughput.json`` at the repository root — so the
  perf trajectory is versioned alongside the code; ``--shape`` selects the
  shapes (default: all);
* ``--baseline`` compares the measured throughput per (model, shape) pair
  against checked-in floors and fails the run on a regression, which is what
  the CI benchmark job enforces;
* ``benchmarks/test_simulator_throughput.py`` measures the same shapes under
  pytest-benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..common.config import default_machine_config
from ..common.stats import Stopwatch
from ..faults.plan import FaultPlan, FaultSpec
from ..trace.workloads import (
    manycore_workload,
    multithreaded_workload,
    single_threaded_workload,
)
from .registry import DEFAULT_REGISTRY, SimulatorRegistry

__all__ = [
    "DEFAULT_BENCH_FILENAME",
    "BENCH_SHAPES",
    "BenchShape",
    "run_throughput_suite",
    "run_multi_shape_suite",
    "check_baseline",
    "write_report",
    "render_report",
    "add_bench_arguments",
    "run_bench_command",
]

#: Conventional report path (relative to the invoking directory, which for
#: repository workflows is the repository root).
DEFAULT_BENCH_FILENAME = "BENCH_throughput.json"

#: Report schema version for one-shape reports, and for the multi-shape
#: trajectory report (the latter nests one-shape fragments under "shapes").
BENCH_FORMAT_VERSION = 1
MULTI_SHAPE_FORMAT_VERSION = 2


@dataclass(frozen=True)
class BenchShape:
    """One canonical benchmark workload shape.

    Attributes
    ----------
    name:
        Shape key used in reports, baselines and the ``--shape`` flag.
    description:
        What the shape stresses.
    kind:
        ``"single"`` (one thread, one core), ``"multithreaded"`` or
        ``"manycore"`` (weak-scaling many-core family).
    benchmark:
        Profile name resolved through :mod:`repro.trace.workloads`.
    threads:
        Thread (= core) count for multithreaded/manycore shapes.
    """

    name: str
    description: str
    kind: str
    benchmark: str
    threads: int = 1
    #: Manycore only: overrides the profile's shared-data fraction (gives
    #: SPEC-like profiles, which default to no sharing, coherence traffic).
    shared_fraction: Optional[float] = None
    #: Optional deterministic fault schedule armed for every timed round
    #: (the ``faulty-*`` shapes exercise the fault-hardened kernel paths).
    faults: Optional[FaultPlan] = None

    def build_workload(self, instructions: int, seed: int):
        """Instantiate the shape's deterministic workload.

        ``instructions`` is the *total* instruction budget for every kind —
        for ``"manycore"`` it is divided evenly across the threads (floored,
        at least one instruction each) so a 64-core run costs the same
        simulated work as the 4-core ``sync`` shape, not 16x more.
        """
        if self.kind == "multithreaded":
            return multithreaded_workload(
                self.benchmark,
                self.threads,
                total_instructions=instructions,
                seed=seed,
            )
        if self.kind == "manycore":
            return manycore_workload(
                self.benchmark,
                self.threads,
                instructions_per_thread=max(1, instructions // self.threads),
                seed=seed,
                shared_fraction=self.shared_fraction,
            )
        return single_threaded_workload(
            self.benchmark, instructions=instructions, seed=seed
        )


#: The canonical multi-workload trajectory: each shape stresses a different
#: part of the execution kernel.
BENCH_SHAPES: Dict[str, BenchShape] = {
    "gcc": BenchShape(
        name="gcc",
        description="gcc-like compute-bound, single thread (front-end and "
        "plain-run paths)",
        kind="single",
        benchmark="gcc",
    ),
    "mcf": BenchShape(
        name="mcf",
        description="mcf-like memory-bound, single thread (D-side probes, "
        "DRAM and long-latency events)",
        kind="single",
        benchmark="mcf",
    ),
    "sync": BenchShape(
        name="sync",
        description="PARSEC-like sync-heavy (fluidanimate), 4 threads with "
        "barriers/locks (multi-core event heap and coherence)",
        kind="multithreaded",
        benchmark="fluidanimate",
        threads=4,
    ),
    "mcf64": BenchShape(
        name="mcf64",
        description="many-core memory-bound (mcf), 64 threads sharing a hot "
        "region (D-side memo under coherence traffic)",
        kind="manycore",
        benchmark="mcf",
        threads=64,
        shared_fraction=0.2,
    ),
    "sync64": BenchShape(
        name="sync64",
        description="many-core sync-heavy (fluidanimate), 64 threads with "
        "barriers/locks (parked-barrier event driver at scale)",
        kind="manycore",
        benchmark="fluidanimate",
        threads=64,
    ),
    "sync256": BenchShape(
        name="sync256",
        description="many-core smoke (fluidanimate), 256 threads "
        "(parked-driver scale-out ceiling)",
        kind="manycore",
        benchmark="fluidanimate",
        threads=256,
    ),
    "faulty-mcf": BenchShape(
        name="faulty-mcf",
        description="mcf-like memory-bound under flaky DRAM and periodic "
        "L1d line drops (fault-hardened D-side fast paths)",
        kind="single",
        benchmark="mcf",
        faults=FaultPlan(
            seed=7,
            specs=(
                FaultSpec(kind="flaky_dram", rate=0.05, max_retries=3, backoff=16),
                FaultSpec(kind="drop_line", period=500),
            ),
        ),
    ),
    "faulty-sync": BenchShape(
        name="faulty-sync",
        description="sync-heavy 4-thread fluidanimate under a degraded "
        "interconnect and periodic line corruption (faults on the "
        "coherence and parked-driver paths)",
        kind="multithreaded",
        benchmark="fluidanimate",
        threads=4,
        faults=FaultPlan(
            seed=11,
            specs=(
                FaultSpec(kind="degraded_link", multiplier=2.0, loss_rate=0.1),
                FaultSpec(kind="corrupt_line", period=800),
            ),
        ),
    ),
}


def _resolve_shape(shape: Union[str, BenchShape, None], benchmark: str) -> BenchShape:
    """Resolve a shape argument (name, object or None→ad-hoc single)."""
    if shape is None:
        return BenchShape(
            name=benchmark,
            description=f"{benchmark} single thread",
            kind="single",
            benchmark=benchmark,
        )
    if isinstance(shape, BenchShape):
        return shape
    try:
        return BENCH_SHAPES[shape]
    except KeyError:
        raise KeyError(
            f"unknown bench shape {shape!r}; known shapes: {sorted(BENCH_SHAPES)}"
        ) from None


def _profile_round(
    registry: SimulatorRegistry,
    name: str,
    machine,
    workload,
    warmup: int,
    fault_plan: Optional[FaultPlan] = None,
) -> str:
    """cProfile one extra (untimed) round and return the top-20 cumulative dump.

    The profiled round runs *after* the timed repeats so profiler overhead
    never contaminates the reported KIPS; the dump goes into the JSON report
    so the bench artifact carries measured hotspots for the next perf pass.
    """
    import cProfile
    import io
    import pstats

    simulator = registry.create(name, machine)
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(workload, warmup_instructions=warmup, fault_plan=fault_plan)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
    return stream.getvalue()


def run_throughput_suite(
    benchmark: str = "gcc",
    instructions: int = 20_000,
    warmup_instructions: Optional[int] = None,
    simulators: Sequence[str] = ("interval", "detailed", "oneipc"),
    repeats: int = 3,
    seed: int = 0,
    registry: Optional[SimulatorRegistry] = None,
    shape: Union[str, BenchShape, None] = None,
    profile: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, object]:
    """Time every requested simulator on one seeded workload shape.

    Each simulator runs ``repeats`` times on the *same* workload object (the
    columnar batch is pre-built so every round measures steady state) and the
    fastest round is reported, which filters scheduler noise the way
    pytest-benchmark's ``min`` column does.  ``shape`` selects one of
    :data:`BENCH_SHAPES` (or a custom :class:`BenchShape`); without it the
    suite measures an ad-hoc single-threaded ``benchmark``.  With
    ``profile`` each simulator also runs one extra cProfile round whose
    top-20 cumulative dump lands in the report.  Returns the JSON-safe
    report.
    """
    if instructions <= 0:
        raise ValueError("instructions must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    active_registry = registry if registry is not None else DEFAULT_REGISTRY
    warmup = (
        warmup_instructions if warmup_instructions is not None else instructions // 2
    )
    bench_shape = _resolve_shape(shape, benchmark)
    # An explicit fault_plan overrides the shape's canonical schedule (the
    # --faults flag); otherwise faulty-* shapes bring their own.
    active_faults = fault_plan if fault_plan is not None else bench_shape.faults
    if active_faults is not None and active_faults.is_empty:
        active_faults = None
    workload = bench_shape.build_workload(instructions, seed)
    for trace in workload.traces:
        trace.batch()  # steady state: the batch is per-trace, built once
    machine = default_machine_config(num_cores=max(1, workload.num_threads))

    results: Dict[str, Dict[str, object]] = {}
    for name in simulators:
        entry = active_registry.get(name)  # fail early on unknown names
        best_wall: Optional[float] = None
        stats = None
        for _ in range(repeats):
            simulator = active_registry.create(name, machine)
            stopwatch = Stopwatch()
            stopwatch.start()
            round_stats = simulator.run(
                workload, warmup_instructions=warmup, fault_plan=active_faults
            )
            wall = stopwatch.stop()
            if best_wall is None or wall < best_wall:
                best_wall = wall
                stats = round_stats
        assert stats is not None and best_wall is not None
        timed_instructions = stats.total_instructions
        results[name] = {
            "description": entry.description,
            "best_wall_seconds": best_wall,
            # Whole-run throughput: warm-up + timed instructions over the
            # fastest wall time (the figure the acceptance bars use).
            "whole_run_kips": instructions / best_wall / 1000.0 if best_wall else 0.0,
            # Timed-region throughput, comparable to the paper's KIPS quotes:
            # the simulator's own stopwatch starts after functional warm-up,
            # so this is timed instructions over timed wall time.
            "simulated_kips": stats.simulated_kips(),
            "timed_instructions": timed_instructions,
            "total_miss_events": stats.total_miss_events,
            "events_per_instruction": stats.events_per_instruction,
            "aggregate_ipc": stats.aggregate_ipc,
            # Host-only counters of the fastest round (bit-identical across
            # rounds, so any round's counters describe the run).
            **stats.host_counters(),
        }
        if profile:
            results[name]["profile_top20"] = _profile_round(
                active_registry, name, machine, workload, warmup,
                fault_plan=active_faults,
            )

    speedups: Dict[str, float] = {}
    reference = results.get("detailed")
    if reference and reference["best_wall_seconds"]:
        for name, row in results.items():
            if name == "detailed" or not row["best_wall_seconds"]:
                continue
            speedups[name] = (
                float(reference["best_wall_seconds"]) / float(row["best_wall_seconds"])
            )

    return {
        "format_version": BENCH_FORMAT_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workload": {
            "shape": bench_shape.name,
            "benchmark": bench_shape.benchmark,
            "kind": bench_shape.kind,
            "threads": bench_shape.threads,
            "instructions": instructions,
            "warmup_instructions": warmup,
            "seed": seed,
            "faults": (
                active_faults.describe() if active_faults is not None else "no-faults"
            ),
        },
        "repeats": repeats,
        "results": results,
        "speedup_vs_detailed": speedups,
    }


def run_multi_shape_suite(
    shapes: Sequence[Union[str, BenchShape]] = ("gcc", "mcf", "sync"),
    instructions: int = 20_000,
    warmup_instructions: Optional[int] = None,
    simulators: Sequence[str] = ("interval", "detailed", "oneipc"),
    repeats: int = 3,
    seed: int = 0,
    registry: Optional[SimulatorRegistry] = None,
    profile: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, object]:
    """Measure every requested simulator on every requested shape.

    Returns the multi-shape trajectory report: the per-shape fragments of
    :func:`run_throughput_suite` nested under ``"shapes"``.
    """
    if not shapes:
        raise ValueError("need at least one bench shape")
    fragments: Dict[str, Dict[str, object]] = {}
    for shape in shapes:
        fragment = run_throughput_suite(
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            simulators=simulators,
            repeats=repeats,
            seed=seed,
            registry=registry,
            shape=shape,
            profile=profile,
            fault_plan=fault_plan,
        )
        name = fragment["workload"]["shape"]  # type: ignore[index]
        fragments[name] = {
            "workload": fragment["workload"],
            "results": fragment["results"],
            "speedup_vs_detailed": fragment["speedup_vs_detailed"],
        }
    return {
        "format_version": MULTI_SHAPE_FORMAT_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "repeats": repeats,
        "shapes": fragments,
    }


def _check_floors(
    results: Mapping[str, object],
    floors: Mapping[str, object],
    tolerance: float,
    label: str = "",
) -> List[str]:
    """Compare one shape's results against flat ``<simulator>_kips`` floors."""
    failures: List[str] = []
    prefix = f"{label}/" if label else ""
    for key, floor in floors.items():
        if not isinstance(key, str) or not key.endswith("_kips"):
            continue
        simulator = key[: -len("_kips")]
        row = results.get(simulator)
        if row is None:
            failures.append(
                f"baseline names {prefix}{simulator!r} but it was not measured"
            )
            continue
        measured = float(row["whole_run_kips"])  # type: ignore[index,call-overload]
        threshold = float(floor) * (1.0 - tolerance)  # type: ignore[arg-type]
        if measured < threshold:
            failures.append(
                f"{prefix}{simulator}: {measured:.1f} KIPS is below the baseline "
                f"floor {float(floor):.1f} KIPS - {tolerance:.0%} = "  # type: ignore[arg-type]
                f"{threshold:.1f} KIPS"
            )
    return failures


def check_baseline(
    report: Mapping[str, object],
    baseline: Mapping[str, object],
    tolerance: float = 0.2,
) -> List[str]:
    """Compare a report against checked-in throughput floors.

    For a one-shape report, ``baseline`` maps ``"<simulator>_kips"`` keys
    (e.g. ``interval_kips``) to minimum acceptable whole-run KIPS.  For a
    multi-shape report, ``baseline["shapes"]`` nests those flat floors per
    shape name and every (simulator, shape) pair is gated independently; a
    flat baseline against a multi-shape report applies to the ``gcc`` shape
    only (legacy format).  A measured value below ``floor * (1 - tolerance)``
    is a regression.  Returns the list of failure messages (empty when
    everything passes).  Baselines are deliberately coarse — CI machines
    vary — so the gate catches order-of-magnitude kernel regressions, not
    scheduler noise.
    """
    shapes = report.get("shapes")
    if isinstance(shapes, Mapping):
        baseline_shapes = baseline.get("shapes")
        failures: List[str] = []
        if isinstance(baseline_shapes, Mapping):
            for shape_name, floors in baseline_shapes.items():
                if not isinstance(floors, Mapping):
                    continue
                fragment = shapes.get(shape_name)
                if fragment is None:
                    # The caller measured a subset of shapes (--shape): only
                    # gate what was measured (a shape that fails to *run*
                    # aborts the suite before the gate).
                    continue
                results = fragment.get("results", {})  # type: ignore[union-attr]
                assert isinstance(results, Mapping)
                failures.extend(
                    _check_floors(results, floors, tolerance, label=shape_name)
                )
            return failures
        # Legacy flat baseline against a multi-shape report: gate gcc only.
        fragment = shapes.get("gcc")
        if fragment is None:
            return ["flat baseline requires the 'gcc' shape in the report"]
        results = fragment.get("results", {})  # type: ignore[union-attr]
        assert isinstance(results, Mapping)
        return _check_floors(results, baseline, tolerance, label="gcc")

    results = report.get("results", {})
    assert isinstance(results, Mapping)
    floors = baseline.get("shapes")
    if isinstance(floors, Mapping):
        # Per-shape baseline against a one-shape report: pick its shape.
        workload = report.get("workload", {})
        assert isinstance(workload, Mapping)
        shape_name = str(workload.get("shape", "gcc"))
        shape_floors = floors.get(shape_name)
        if not isinstance(shape_floors, Mapping):
            return [f"baseline has no floors for shape {shape_name!r}"]
        return _check_floors(results, shape_floors, tolerance, label=shape_name)
    return _check_floors(results, baseline, tolerance)


def write_report(
    report: Mapping[str, object], path: Union[str, os.PathLike]
) -> None:
    """Write a throughput report as an indented JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _render_shape(workload: Mapping[str, object], fragment: Mapping[str, object]) -> str:
    """One shape's table."""
    from ..experiments.runner import render_table

    rows = []
    results = fragment.get("results", {})
    assert isinstance(results, Mapping)
    speedups = fragment.get("speedup_vs_detailed", {})
    assert isinstance(speedups, Mapping)
    for name, row in results.items():
        rows.append(
            (
                name,
                float(row["whole_run_kips"]),
                float(row["simulated_kips"]),
                float(row["events_per_instruction"]),
                float(row["aggregate_ipc"]),
                int(row.get("events_popped", 0)),
                int(row.get("issue_wakeups", 0)),
                int(row.get("faults_injected", 0)),
                float(row["best_wall_seconds"]) * 1000.0,
                float(speedups.get(name, 1.0)) if name != "detailed" else 1.0,
            )
        )
    shape = workload.get("shape", workload.get("benchmark"))
    threads = workload.get("threads", 1)
    thread_note = f", {threads} threads" if threads and int(str(threads)) > 1 else ""
    return render_table(
        [
            "simulator",
            "whole-run KIPS",
            "timed KIPS",
            "events/instr",
            "IPC",
            "heap pops",
            "issue wakeups",
            "faults",
            "best ms",
            "speedup vs detailed",
        ],
        rows,
        title=(
            f"Simulator throughput on shape {shape!r} "
            f"({workload.get('benchmark')}{thread_note}, "
            f"{workload.get('instructions')} instructions, "
            f"{workload.get('warmup_instructions')} warm-up)"
        ),
    )


def render_report(report: Mapping[str, object]) -> str:
    """Human-readable table(s) for a one-shape or multi-shape report."""
    shapes = report.get("shapes")
    if isinstance(shapes, Mapping):
        blocks = []
        for fragment in shapes.values():
            assert isinstance(fragment, Mapping)
            workload = fragment.get("workload", {})
            assert isinstance(workload, Mapping)
            blocks.append(_render_shape(workload, fragment))
        return "\n\n".join(blocks)
    workload = report.get("workload", {})
    assert isinstance(workload, Mapping)
    return _render_shape(workload, report)


# -- CLI plumbing shared by `repro bench` and benchmarks/run_bench.py ------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the benchmark flags to an argparse parser."""
    parser.add_argument(
        "--shape",
        default="all",
        help="comma-separated bench shapes to measure "
        f"({', '.join(BENCH_SHAPES)}; default: all)",
    )
    parser.add_argument(
        "--benchmark",
        default=None,
        help="measure one ad-hoc single-threaded benchmark instead of the "
        "canonical shapes",
    )
    parser.add_argument(
        "--instructions", type=int, default=20_000, help="instructions to simulate"
    )
    parser.add_argument(
        "--warmup", type=int, default=None, help="warm-up instructions (default: half)"
    )
    parser.add_argument(
        "--simulators",
        default="interval,detailed,oneipc",
        help="comma-separated registry names",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing rounds per simulator (best wins)"
    )
    parser.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    parser.add_argument(
        "-o",
        "--output",
        default=DEFAULT_BENCH_FILENAME,
        help=f"report path (default: ./{DEFAULT_BENCH_FILENAME})",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="checked-in baseline JSON; exit non-zero when interval throughput "
        "regresses beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fraction below the baseline floor (default: 0.2)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one extra round per (simulator, shape) and embed the "
        "top-20 cumulative dump in the report (untimed, so KIPS are clean)",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="arm a fault schedule on every measured shape: a FaultPlan JSON "
        "file path or inline JSON (overrides the faulty-* shapes' canonical "
        "schedules)",
    )


def run_bench_command(args: argparse.Namespace) -> int:
    """Execute the benchmark suite described by parsed CLI flags."""
    from .cli import UsageError, _parse_fault_plan

    simulators = [name.strip() for name in args.simulators.split(",") if name.strip()]
    if not simulators:
        raise UsageError("--simulators needs at least one name")
    fault_plan = _parse_fault_plan(getattr(args, "faults", None))
    if args.benchmark:
        # Ad-hoc single-threaded benchmark: one-shape (legacy) report.
        report = run_throughput_suite(
            benchmark=args.benchmark,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
            simulators=simulators,
            repeats=args.repeats,
            seed=args.seed,
            profile=getattr(args, "profile", False),
            fault_plan=fault_plan,
        )
    else:
        shape_arg = args.shape.strip()
        if shape_arg == "all":
            shapes: Sequence[str] = tuple(BENCH_SHAPES)
        else:
            shapes = tuple(
                name.strip() for name in shape_arg.split(",") if name.strip()
            )
            if not shapes:
                raise UsageError("--shape needs at least one shape name")
            for name in shapes:
                if name not in BENCH_SHAPES:
                    raise UsageError(
                        f"unknown bench shape {name!r} "
                        f"(known: {', '.join(BENCH_SHAPES)})"
                    )
        report = run_multi_shape_suite(
            shapes=shapes,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
            simulators=simulators,
            repeats=args.repeats,
            seed=args.seed,
            profile=getattr(args, "profile", False),
            fault_plan=fault_plan,
        )
    print(render_report(report))
    if args.output:
        write_report(report, args.output)
        print(f"report written to {args.output}")
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_baseline(report, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"BASELINE REGRESSION: {failure}")
            return 1
        print(f"baseline check passed ({args.baseline}, tolerance {args.tolerance:.0%})")
    return 0
