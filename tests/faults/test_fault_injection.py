"""Fault injection under fire: cross-model identity and hardened fast paths.

The whole point of driving faults through the event heap is that a fault
schedule is a pure function of *simulated time*, never of host state or of
which optimized kernel happened to execute.  These tests attack that claim
from the angles most likely to break it:

* a ~50-schedule randomized fuzz sweeps seeded fault plans (every kind, in
  combination) across all three timing models and asserts the optimized
  fast paths (parked event driver, event-driven issue queues) stay
  **bit-identical** to the per-cycle reference paths under every schedule;
* an adversarial schedule uses MRU line targeting to land drops on the line
  a crafted same-line workload keeps memoized — every drop invalidates the
  D-side epoch memo under the running core;
* the observability counters: they flow to ``RunResult`` metrics, they are
  reproducible run to run, and they are *excluded* from the deterministic
  comparison dict;
* the service-layer property: a faulted spec rebuilt through
  ``from_dict(to_dict())`` reruns bit-identically, so fault runs cache and
  resume like any other job.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.api.session import run_spec
from repro.common.isa import Instruction, InstructionClass
from repro.detailed.ooo_core import DetailedCore
from repro.faults import FaultPlan, FaultSpec
from repro.multicore.simulator import MulticoreSimulator
from repro.trace.stream import ThreadTrace, Workload

MODELS = ("interval", "oneipc", "detailed")

#: Sync-capable benchmarks the fuzzer draws multithreaded workloads from.
BENCHMARKS = ("fluidanimate", "streamcluster", "dedup", "vips")


def _random_plan(rng: random.Random) -> FaultPlan:
    """One seeded fault plan: a random non-empty subset of every fault kind."""
    specs = []
    if rng.random() < 0.7:
        specs.append(
            FaultSpec(
                kind="drop_line",
                period=rng.randrange(80, 600),
                level=rng.choice(("l1d", "l1i", "l2")),
                core=rng.choice((None, 0)),
                start=rng.randrange(0, 500),
            )
        )
    if rng.random() < 0.5:
        specs.append(
            FaultSpec(
                kind="corrupt_line",
                period=rng.randrange(150, 900),
                level=rng.choice(("l1d", "l2")),
            )
        )
    if rng.random() < 0.6:
        specs.append(
            FaultSpec(
                kind="flaky_dram",
                rate=rng.uniform(0.05, 0.5),
                max_retries=rng.randrange(1, 5),
                backoff=rng.choice((4, 16, 64)),
                stop=rng.choice((None, 4000)),
            )
        )
    if rng.random() < 0.6:
        specs.append(
            FaultSpec(
                kind="degraded_link",
                multiplier=rng.uniform(1.0, 3.0),
                loss_rate=rng.uniform(0.0, 0.4),
            )
        )
    if not specs:
        specs.append(FaultSpec(kind="drop_line", period=rng.randrange(80, 600)))
    return FaultPlan(seed=rng.randrange(1 << 16), specs=tuple(specs))


def _fuzz_schedules():
    """50 (model, benchmark, threads, budget, plan) tuples, process-stable."""
    rng = random.Random(0xFA17)
    schedules = []
    for index in range(50):
        model = MODELS[index % len(MODELS)]
        # The detailed model is an order of magnitude slower per instruction;
        # shrink its budget so the sweep stays inside the tier-1 time budget.
        total = rng.randrange(2000, 3500) if model != "detailed" else 1500
        schedules.append(
            (
                index,
                model,
                rng.choice(BENCHMARKS),
                rng.choice((2, 3, 4)),
                total,
                rng.choice((0, 500)),
                _random_plan(rng),
            )
        )
    return schedules


def _run_faulted(model, benchmark, threads, total, warmup, plan):
    return (
        Session()
        .simulator(model)
        .multithreaded(benchmark, threads=threads, total_instructions=total, seed=0)
        .warmup(warmup)
        .max_cycles(50_000_000)
        .faults(plan)
        .run()
    )


class TestFuzzFastVsReference:
    """The load-bearing robustness guarantee, attacked 50 random ways."""

    @pytest.mark.parametrize(
        "index,model,bench,threads,total,warmup,plan",
        _fuzz_schedules(),
        ids=lambda value: str(value) if isinstance(value, (int, str)) else None,
    )
    def test_fast_paths_match_reference_under_faults(
        self, index, model, bench, threads, total, warmup, plan, monkeypatch
    ):
        fast = _run_faulted(model, bench, threads, total, warmup, plan)
        monkeypatch.setattr(MulticoreSimulator, "park_blocked_cores", False)
        monkeypatch.setattr(DetailedCore, "event_driven_issue", False)
        reference = _run_faulted(model, bench, threads, total, warmup, plan)
        assert (
            fast.stats.deterministic_dict() == reference.stats.deterministic_dict()
        ), f"schedule {index}: {model}/{bench} diverged under {plan.describe()}"


# ---------------------------------------------------------------------------
# Adversarial: faults landing on the memoized line
# ---------------------------------------------------------------------------


def _same_line_trace(count: int) -> ThreadTrace:
    """ALU/memory mix whose memory ops all share one L1d line.

    Nearly every memory op is a D-side memo hit, so MRU-targeted drops are
    guaranteed to land on the line the memo vouches for.
    """
    base = 0x8000
    instructions = []
    for seq in range(count):
        pc = 0x1000 + 4 * (seq % 64)
        if seq % 2 == 0:
            instructions.append(
                Instruction(seq=seq, pc=pc, klass=InstructionClass.INT_ALU, dst_reg=1)
            )
        else:
            klass = InstructionClass.STORE if seq % 16 == 7 else InstructionClass.LOAD
            instructions.append(
                Instruction(seq=seq, pc=pc, klass=klass, mem_addr=base + 4 * (seq % 8))
            )
    return ThreadTrace(instructions, thread_id=0)


#: Empty ``lines`` means adversarial MRU targeting: every drop lands on the
#: victim core's most-recently-accessed L1d line — exactly the line the
#: crafted workload keeps memoized.
MRU_DROPS = FaultPlan(
    seed=3, specs=(FaultSpec(kind="drop_line", period=60, core=0),)
)


def _run_same_line(model: str, plan: FaultPlan):
    workload = Workload(name="same-line", traces=[_same_line_trace(4000)])
    return (
        Session()
        .simulator(model)
        .workload(workload)
        .max_cycles(50_000_000)
        .faults(plan)
        .run()
    )


class TestMruDropsOnMemoizedLine:
    @pytest.mark.parametrize("model", MODELS)
    def test_mru_drops_fire_and_fast_matches_reference(self, model, monkeypatch):
        fast = _run_same_line(model, MRU_DROPS)
        assert fast.stats.host_counters()["faults_injected"] > 0
        monkeypatch.setattr(MulticoreSimulator, "park_blocked_cores", False)
        monkeypatch.setattr(DetailedCore, "event_driven_issue", False)
        reference = _run_same_line(model, MRU_DROPS)
        assert fast.stats.deterministic_dict() == reference.stats.deterministic_dict()


# ---------------------------------------------------------------------------
# Observability counters and the service-layer contract
# ---------------------------------------------------------------------------

COMBINED_PLAN = FaultPlan(
    seed=21,
    specs=(
        FaultSpec(kind="drop_line", period=200),
        FaultSpec(kind="flaky_dram", rate=0.3, max_retries=3, backoff=16),
        FaultSpec(kind="degraded_link", multiplier=2.0, loss_rate=0.2),
    ),
)

FAULT_COUNTERS = (
    "faults_injected",
    "refetches_forced",
    "dram_retries",
    "retry_cycles",
)


def _combined_session():
    return (
        Session()
        .simulator("interval")
        .multithreaded("fluidanimate", threads=2, total_instructions=4000, seed=0)
        .warmup(500)
        .max_cycles(50_000_000)
        .faults(COMBINED_PLAN)
    )


class TestCounters:
    @pytest.fixture(scope="class")
    def faulted_result(self):
        return _combined_session().run()

    def test_counters_flow_to_result_metrics(self, faulted_result):
        metrics = faulted_result.as_dict()["metrics"]
        for name in FAULT_COUNTERS:
            assert name in metrics
        assert metrics["faults_injected"] > 0
        assert metrics["dram_retries"] > 0
        assert metrics["retry_cycles"] > 0

    def test_counters_excluded_from_deterministic_dict(self, faulted_result):
        pinned = faulted_result.stats.deterministic_dict()
        for core in pinned["cores"]:
            for name in FAULT_COUNTERS:
                assert name not in core

    def test_fault_free_runs_report_zero(self):
        result = (
            Session()
            .simulator("interval")
            .workload("gcc", instructions=2000, seed=0)
            .run()
        )
        metrics = result.as_dict()["metrics"]
        assert all(metrics[name] == 0 for name in FAULT_COUNTERS)

    def test_identical_runs_reproduce_counters_exactly(self, faulted_result):
        repeat = _combined_session().run()
        assert repeat.stats.deterministic_dict() == faulted_result.stats.deterministic_dict()
        counters = repeat.stats.host_counters()
        expected = faulted_result.stats.host_counters()
        for name in FAULT_COUNTERS:
            assert counters[name] == expected[name], name


class TestServiceContract:
    def test_faulted_spec_round_trip_reruns_bit_identically(self):
        spec = _combined_session().spec()
        rebuilt = type(spec).from_dict(spec.to_dict())
        assert rebuilt.content_hash() == spec.content_hash()
        assert run_spec(rebuilt).stats.deterministic_dict() == run_spec(
            spec
        ).stats.deterministic_dict()

    def test_run_records_the_plan_in_parameters(self):
        result = _combined_session().run()
        assert result.parameters["faults"] == COMBINED_PLAN.as_dict()
