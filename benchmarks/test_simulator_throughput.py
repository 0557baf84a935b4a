"""The throughput gate's shapes, floors and check, without timing anything.

``throughput_gate.py`` times every model on eight shapes and fails on a pair
below 80% of its floor; these tests pin what it measures and how it judges,
so a wrong shape or a lost floor shows up in tier-1 rather than as a gate
that silently checks less.
"""

from __future__ import annotations

import inspect
import json
from types import SimpleNamespace

import pytest

import throughput_gate as gate
from repro.common.config import default_machine_config
from repro.trace.workloads import (
    manycore_workload,
    multithreaded_workload,
    single_threaded_workload,
)

SHAPE_THREADS = {
    "gcc": 1, "mcf": 1, "sync": 4, "mcf64": 64, "sync64": 64, "sync256": 256,
    "faulty-mcf": 1, "faulty-sync": 4,
}


@pytest.fixture(scope="module")
def built():
    """Every shape at the gate's own budget: ``{name: (workload, faults)}``."""
    return {name: (workload, faults) for name, workload, faults in gate.shapes()}


def test_floors_name_exactly_the_eight_shapes_and_three_models():
    with open(gate.FLOORS_PATH, "r", encoding="utf-8") as handle:
        floors = json.load(handle)["shapes"]
    assert set(floors) == set(SHAPE_THREADS)
    for shape, models in floors.items():
        assert set(models) == {f"{model}_kips" for model in gate.MODELS}, shape
        assert all(floor > 0 for floor in models.values()), shape


def test_shapes_build_their_threads_and_fault_plans(built):
    assert list(built) == list(SHAPE_THREADS)
    for name, (workload, faults) in built.items():
        assert workload.num_threads == SHAPE_THREADS[name], name
        if name.startswith("faulty-"):
            assert faults is not None and not faults.is_empty, name
        else:
            assert faults is None, name
    assert built["faulty-mcf"][1] == gate.FAULTY_MCF
    assert built["faulty-sync"][1] == gate.FAULTY_SYNC


def test_sync64_divides_the_total_budget_across_its_threads(built):
    sync64, _ = built["sync64"]
    per_thread = gate.INSTRUCTIONS // 64
    expected = manycore_workload("fluidanimate", 64, instructions_per_thread=per_thread)
    assert [len(t) for t in sync64.traces] == [len(t) for t in expected.traces]
    # Sync pseudo-instructions and the init sweep add a little on top of the
    # per-thread share; the whole budget per thread would be 64x larger.
    total = sum(len(t) for t in sync64.traces)
    assert gate.INSTRUCTIONS <= total < 2 * gate.INSTRUCTIONS


def test_check_flags_a_pair_below_the_threshold_and_passes_one_at_it():
    floors = {"gcc": {"interval_kips": 100.0, "oneipc_kips": 50.0}}
    at = {("gcc", "interval"): 80.0, ("gcc", "oneipc"): 40.0}
    assert gate.below_floor(at, floors) == []
    below = dict(at)
    below["gcc", "oneipc"] = 39.9
    (failure,) = gate.below_floor(below, floors)
    assert failure.startswith("gcc/oneipc: 39.9 KIPS < 40.0")


def test_check_flags_a_floored_pair_that_was_not_measured():
    floors = {"mcf": {"detailed_kips": 10.0}}
    assert gate.below_floor({}, floors) == ["mcf/detailed: not measured"]


def test_every_floor_passes_when_measured_exactly_at_its_threshold():
    with open(gate.FLOORS_PATH, "r", encoding="utf-8") as handle:
        floors = json.load(handle)["shapes"]
    at = {
        (shape, key[: -len("_kips")]): floor * gate.FLOOR_FRACTION
        for shape, models in floors.items()
        for key, floor in models.items()
    }
    assert len(at) == len(SHAPE_THREADS) * len(gate.MODELS)
    assert gate.below_floor(at, floors) == []


def test_check_ignores_a_measured_pair_that_has_no_floor():
    floors = {"gcc": {"interval_kips": 100.0}}
    measured = {("gcc", "interval"): 90.0, ("sync", "detailed"): 0.001}
    assert gate.below_floor(measured, floors) == []


def test_check_reports_every_failing_pair_in_floor_order():
    floors = {
        "gcc": {"interval_kips": 100.0, "detailed_kips": 50.0},
        "sync": {"oneipc_kips": 10.0},
    }
    measured = {("gcc", "interval"): 1.0, ("gcc", "detailed"): 45.0, ("sync", "oneipc"): 2.0}
    failures = gate.below_floor(measured, floors)
    assert [line.split(":")[0] for line in failures] == ["gcc/interval", "sync/oneipc"]


def test_floors_file_comment_names_the_gate():
    with open(gate.FLOORS_PATH, "r", encoding="utf-8") as handle:
        comment = json.load(handle)["comment"]
    assert "throughput_gate.py" in comment


def _expected_shape(name):
    """The shape the floors were set against, built straight from its builder."""
    n = gate.INSTRUCTIONS
    return {
        "gcc": lambda: single_threaded_workload("gcc", n, 0),
        "mcf": lambda: single_threaded_workload("mcf", n, 0),
        "sync": lambda: multithreaded_workload("fluidanimate", 4, n, 0),
        "mcf64": lambda: manycore_workload("mcf", 64, n // 64, 0, shared_fraction=0.2),
        "sync64": lambda: manycore_workload("fluidanimate", 64, n // 64, 0),
        "sync256": lambda: manycore_workload("fluidanimate", 256, n // 256, 0),
        "faulty-mcf": lambda: single_threaded_workload("mcf", n, 0),
        "faulty-sync": lambda: multithreaded_workload("fluidanimate", 4, n, 0),
    }[name]()


@pytest.mark.parametrize("name", list(SHAPE_THREADS))
def test_each_shape_is_its_benchmark_at_the_gate_budget_and_seed(built, name):
    workload, _ = built[name]
    expected = _expected_shape(name)
    assert workload.name == expected.name
    assert workload.kind == expected.kind
    assert [len(t) for t in workload.traces] == [len(t) for t in expected.traces]
    assert list(workload.traces[0].batch().pc) == list(expected.traces[0].batch().pc)


def test_mcf64_shares_lines_across_threads_where_plain_mcf_does_not(built):
    def lines_touched_by_two_threads(workload):
        seen, shared = set(), set()
        for trace in workload.traces:
            lines = {a >> 6 for a in trace.batch().mem_addr if a is not None}
            shared |= seen & lines
            seen |= lines
        return shared

    mcf64, _ = built["mcf64"]
    assert lines_touched_by_two_threads(mcf64)
    unshared = manycore_workload("mcf", 64, gate.INSTRUCTIONS // 64, 0)
    assert not lines_touched_by_two_threads(unshared)


@pytest.mark.parametrize(
    "plan, seed, specs",
    [
        ("FAULTY_MCF", 7, [
            {"kind": "flaky_dram", "rate": 0.05, "max_retries": 3, "backoff": 16},
            {"kind": "drop_line", "period": 500},
        ]),
        ("FAULTY_SYNC", 11, [
            {"kind": "degraded_link", "multiplier": 2.0, "loss_rate": 0.1},
            {"kind": "corrupt_line", "period": 800},
        ]),
    ],
)
def test_fault_plans_are_the_floored_schedules(plan, seed, specs):
    plan = getattr(gate, plan)
    assert plan.seed == seed
    assert len(plan.specs) == len(specs)
    for spec, fields in zip(plan.specs, specs):
        for field, value in fields.items():
            assert getattr(spec, field) == value, (spec, field)


@pytest.mark.parametrize("model", gate.MODELS)
@pytest.mark.parametrize(
    "plan, build",
    [
        ("FAULTY_MCF", lambda: single_threaded_workload("mcf", 2000, 0)),
        ("FAULTY_SYNC", lambda: multithreaded_workload("fluidanimate", 4, 2000, 0)),
    ],
    ids=["faulty-mcf", "faulty-sync"],
)
def test_every_model_injects_the_gate_fault_plans(model, plan, build):
    workload = build()
    machine = default_machine_config(num_cores=workload.num_threads)
    stats = gate.DEFAULT_REGISTRY.create(model, machine).run(
        workload, warmup_instructions=1000, fault_plan=getattr(gate, plan)
    )
    assert sum(core.faults_injected for core in stats.cores) > 0
    assert sum(core.refetches_forced for core in stats.cores) > 0
    if plan == "FAULTY_MCF":
        assert sum(core.dram_retries for core in stats.cores) > 0


class _RecordingRegistry:
    """Stands in for the model registry: records each simulator it makes."""

    def __init__(self):
        self.created = []

    def create(self, model, machine):
        simulator = SimpleNamespace(model=model, machine=machine, runs=[])
        simulator.run = lambda workload, **kwargs: simulator.runs.append(
            (workload, kwargs)
        )
        self.created.append(simulator)
        return simulator


def test_each_round_runs_a_fresh_simulator_with_the_gate_warmup(built, monkeypatch):
    registry = _RecordingRegistry()
    monkeypatch.setattr(gate, "DEFAULT_REGISTRY", registry)
    workload, faults = built["faulty-sync"]
    best = gate.best_wall_seconds("detailed", workload, faults)
    assert 0 <= best < float("inf")
    assert len(registry.created) == gate.ROUNDS
    for simulator in registry.created:
        assert simulator.model == "detailed"
        assert simulator.machine.num_cores == 4
        assert simulator.runs == [
            (workload, {"warmup_instructions": gate.INSTRUCTIONS // 2,
                        "fault_plan": faults}),
        ]


def _fake_gate(monkeypatch, slow_pair=None):
    """Point ``main`` at empty workloads and walls read off the floors.

    Every pair measures a hair (0.1%) above its threshold, so the round trip
    through a wall time cannot dip it below; ``slow_pair`` measures half.
    """
    with open(gate.FLOORS_PATH, "r", encoding="utf-8") as handle:
        floors = json.load(handle)["shapes"]
    monkeypatch.setattr(gate, "shapes", lambda: (
        (name, SimpleNamespace(name=name, traces=[]), None) for name in SHAPE_THREADS
    ))

    def wall(model, workload, faults):
        kips = floors[workload.name][f"{model}_kips"] * gate.FLOOR_FRACTION * 1.001
        if (workload.name, model) == slow_pair:
            kips /= 2
        return gate.INSTRUCTIONS / kips / 1000.0

    monkeypatch.setattr(gate, "best_wall_seconds", wall)


def test_main_prints_every_pair_and_exits_0_at_the_floors(monkeypatch, capsys):
    _fake_gate(monkeypatch)
    assert gate.main() == 0
    out = capsys.readouterr().out.splitlines()
    pairs = len(SHAPE_THREADS) * len(gate.MODELS)
    assert out[0].split() == ["shape", "model", "best", "ms", "KIPS", "threshold", "ratio"]
    assert len(out) == 1 + pairs + 1
    assert [row.split()[:2] for row in out[1:-1]] == [
        [shape, model] for shape in SHAPE_THREADS for model in gate.MODELS
    ]
    assert all(row.split()[-1] == "1.00" for row in out[1:-1])
    assert out[-1] == f"all {pairs} pairs at or above 80% of their floors"


@pytest.mark.parametrize(
    "slow_pair", [("gcc", "interval"), ("sync256", "detailed"), ("faulty-sync", "oneipc")]
)
def test_main_names_the_pair_below_its_floor_and_exits_1(slow_pair, monkeypatch, capsys):
    _fake_gate(monkeypatch, slow_pair=slow_pair)
    assert gate.main() == 1
    below = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("BELOW FLOOR: ")
    ]
    assert len(below) == 1
    assert below[0].startswith(f"BELOW FLOOR: {slow_pair[0]}/{slow_pair[1]}: ")


def test_the_gate_takes_no_arguments():
    assert not inspect.signature(gate.main).parameters
