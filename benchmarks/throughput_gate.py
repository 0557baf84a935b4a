#!/usr/bin/env python3
"""Throughput gate: every timing model on eight workload shapes, against floors.

Times the interval, detailed and one-IPC models on eight seeded shapes of
8,000 instructions each (warm-up: half of that), keeps the best of two
rounds per (shape, model) pair, prints one table and exits 1 when any pair's
whole-run KIPS falls below 80% of its floor in ``baseline_throughput.json``.
The trace batches are built before the first round, so only the simulator
is timed; ``bench/`` is the benchmark of record that times the whole job.
It takes no arguments.  From the repository root::

    PYTHONPATH=src python benchmarks/throughput_gate.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api.registry import DEFAULT_REGISTRY  # noqa: E402
from repro.common.config import default_machine_config  # noqa: E402
from repro.faults.plan import FaultPlan, FaultSpec  # noqa: E402
from repro.trace.workloads import (  # noqa: E402
    manycore_workload,
    multithreaded_workload,
    single_threaded_workload,
)

INSTRUCTIONS = 8_000
SEED = 0
ROUNDS = 2
MODELS = ("interval", "detailed", "oneipc")
FLOOR_FRACTION = 0.8
FLOORS_PATH = os.path.join(HERE, "baseline_throughput.json")

FAULTY_MCF = FaultPlan(
    seed=7,
    specs=(
        FaultSpec(kind="flaky_dram", rate=0.05, max_retries=3, backoff=16),
        FaultSpec(kind="drop_line", period=500),
    ),
)
FAULTY_SYNC = FaultPlan(
    seed=11,
    specs=(
        FaultSpec(kind="degraded_link", multiplier=2.0, loss_rate=0.1),
        FaultSpec(kind="corrupt_line", period=800),
    ),
)


def shapes():
    """Yield ``(name, workload, fault plan)`` for each shape, built lazily.

    ``INSTRUCTIONS`` is the total budget of every shape; the many-core
    shapes split it evenly across their threads.
    """
    n = INSTRUCTIONS
    yield "gcc", single_threaded_workload("gcc", n, SEED), None
    yield "mcf", single_threaded_workload("mcf", n, SEED), None
    yield "sync", multithreaded_workload("fluidanimate", 4, n, SEED), None
    yield "mcf64", manycore_workload(
        "mcf", 64, n // 64, SEED, shared_fraction=0.2
    ), None
    yield "sync64", manycore_workload("fluidanimate", 64, n // 64, SEED), None
    yield "sync256", manycore_workload("fluidanimate", 256, n // 256, SEED), None
    yield "faulty-mcf", single_threaded_workload("mcf", n, SEED), FAULTY_MCF
    yield "faulty-sync", multithreaded_workload(
        "fluidanimate", 4, n, SEED
    ), FAULTY_SYNC


def best_wall_seconds(model, workload, faults):
    """The fastest of ``ROUNDS`` fresh runs of ``model`` on ``workload``."""
    machine = default_machine_config(num_cores=workload.num_threads)
    best = float("inf")
    for _ in range(ROUNDS):
        simulator = DEFAULT_REGISTRY.create(model, machine)
        start = time.perf_counter()
        simulator.run(
            workload, warmup_instructions=INSTRUCTIONS // 2, fault_plan=faults
        )
        best = min(best, time.perf_counter() - start)
    return best


def below_floor(measured, floors):
    """Failure lines for every floored pair measured below ``floor × 0.8``.

    ``measured`` maps ``(shape, model)`` to whole-run KIPS; ``floors`` is the
    ``"shapes"`` table of the floors file.
    """
    failures = []
    for shape, models in floors.items():
        for key, floor in models.items():
            model = key[: -len("_kips")]
            kips = measured.get((shape, model))
            threshold = floor * FLOOR_FRACTION
            if kips is None:
                failures.append(f"{shape}/{model}: not measured")
            elif kips < threshold:
                failures.append(
                    f"{shape}/{model}: {kips:.1f} KIPS < {threshold:.1f} "
                    f"(floor {floor:.1f} x {FLOOR_FRACTION})"
                )
    return failures


def main():
    with open(FLOORS_PATH, "r", encoding="utf-8") as handle:
        floors = json.load(handle)["shapes"]
    measured = {}
    print(f"{'shape':12s} {'model':9s} {'best ms':>8s} {'KIPS':>7s} "
          f"{'threshold':>9s} {'ratio':>6s}")
    for shape, workload, faults in shapes():
        for trace in workload.traces:
            trace.batch()
        for model in MODELS:
            wall = best_wall_seconds(model, workload, faults)
            kips = measured[shape, model] = INSTRUCTIONS / wall / 1000.0
            threshold = floors[shape][f"{model}_kips"] * FLOOR_FRACTION
            print(f"{shape:12s} {model:9s} {wall * 1000:8.1f} {kips:7.1f} "
                  f"{threshold:9.1f} {kips / threshold:6.2f}")
    failures = below_floor(measured, floors)
    for failure in failures:
        print(f"BELOW FLOOR: {failure}")
    if failures:
        return 1
    print(f"all {len(measured)} pairs at or above {FLOOR_FRACTION:.0%} of their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
