"""Fused event-driven cycle loop: equivalence with the per-stage reference.

The detailed model's default cycle is one fused loop
(``DetailedCore.simulate_interval``) whose issue stage is event-driven:
instead of rescanning the ROB every cycle, each entry subscribes to its
unissued producers and enters a ready-at-cycle bucket the moment its last
constraint resolves, and dormant spans are skipped in one step.  The
reference is the whole per-stage cycle — one method per stage, the
per-cycle unissued-window scan, no skipped cycles — behind
``DetailedCore.event_driven_issue = False`` (test-only).  These tests hold
the two to bit-identical simulated statistics on the detailed members of the
golden corpus (single- and multi-threaded), swim (whose dormant spans charge
dispatch stalls) and an 8-thread run whose tied cores get one-cycle
``simulate_interval`` calls, exercise the wakeup machinery on targeted
microbenchmarks (producer chains across a long memory stall,
functional-unit contention re-wakes, address 0), and check the issue-queue
observability counters end to end (stats → RunResult metrics), including
their exclusion from the deterministic statistics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session
from repro.branch import create_branch_predictor
from repro.common.config import PerfectStructures, default_machine_config
from repro.common.isa import Instruction, InstructionClass
from repro.common.stats import CoreStats
from repro.detailed import DetailedCore
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.stream import ThreadTrace, Workload

#: The detailed members of the golden corpus (same budgets) plus swim and one
#: 8-thread run: every workload shape the fused loop must reproduce bit for
#: bit against the per-stage reference cycle.
EQUIVALENCE_COMBOS = [
    ("gcc", None, 4000, 1000),
    ("mcf", None, 4000, 1000),
    # swim fills the back end, so its dormant spans back-fill the dispatch
    # stall charge; gcc and mcf never stall dispatch at this budget.
    ("swim", None, 4000, 1000),
    ("fluidanimate", 2, 6000, 1000),
    ("streamcluster", 2, 6000, 1000),
    # Eight threads tie often on the event heap, so the fused loop is
    # entered for single cycles far more than with two.
    ("fluidanimate", 8, 8000, 1000),
]


def _run_detailed(bench, threads, total, warmup, event_driven):
    """One detailed-model run under the requested issue back end."""
    previous = DetailedCore.event_driven_issue
    DetailedCore.event_driven_issue = event_driven
    try:
        session = Session().simulator("detailed")
        if threads is None:
            session = session.workload(bench, instructions=total, seed=0)
        else:
            session = session.multithreaded(
                bench, threads=threads, total_instructions=total, seed=0
            )
        return session.warmup(warmup).max_cycles(50_000_000).run()
    finally:
        DetailedCore.event_driven_issue = previous


@pytest.mark.parametrize(
    # NB: not named "benchmark" — that collides with pytest-benchmark's fixture.
    "bench,threads,total,warmup",
    EQUIVALENCE_COMBOS,
    ids=[
        f"{b}-{'single' if t is None else f'mt{t}'}"
        for b, t, _, _ in EQUIVALENCE_COMBOS
    ],
)
def test_event_issue_matches_scan_reference(bench, threads, total, warmup):
    """The fused loop and the per-stage reference produce identical statistics."""
    scan = _run_detailed(bench, threads, total, warmup, False)
    event = _run_detailed(bench, threads, total, warmup, True)
    assert (
        event.stats.deterministic_dict() == scan.stats.deterministic_dict()
    ), f"event-driven issue diverged from the scan reference on {bench}"
    # The scan never notifies waiters; the event back end must have done so
    # (every register dependence resolves through a wakeup).
    assert scan.stats.host_counters()["issue_wakeups"] == 0
    assert event.stats.host_counters()["issue_wakeups"] > 0


def test_observability_counters_reach_run_result():
    """Issue-queue counters flow into RunResult metrics but not golden stats."""
    event = _run_detailed("gcc", None, 3000, 500, True)
    scan = _run_detailed("gcc", None, 3000, 500, False)

    metrics = event.as_dict()["metrics"]
    counters = event.stats.host_counters()
    for name in ("issue_wakeups", "ready_bucket_peak", "issue_scans_skipped"):
        assert metrics[name] == counters[name] > 0, name

    # The scan reference only reports skipped scans (its scan-needed latch);
    # wakeups and bucket depth are event-queue concepts.
    scan_counters = scan.stats.host_counters()
    assert scan_counters["issue_wakeups"] == 0
    assert scan_counters["ready_bucket_peak"] == 0
    assert scan_counters["issue_scans_skipped"] > 0

    # Host-dependent-free but *mode*-dependent: the counters must stay out of
    # the deterministic statistics or the two back ends could never match.
    for core_dict in event.stats.deterministic_dict()["cores"]:
        assert "issue_wakeups" not in core_dict
        assert "issue_scans_skipped" not in core_dict
        assert "ready_bucket_peak" not in core_dict


# -- targeted microbenchmarks -----------------------------------------------------


def _alu(seq, dst, srcs=(), klass=InstructionClass.INT_ALU):
    return Instruction(
        seq=seq,
        pc=0x400000 + 4 * seq,
        klass=klass,
        src_regs=tuple(srcs),
        dst_reg=dst,
    )


def _load(seq, addr, dst, srcs=()):
    return Instruction(
        seq=seq,
        pc=0x400000 + 4 * seq,
        klass=InstructionClass.LOAD,
        src_regs=tuple(srcs),
        dst_reg=dst,
        mem_addr=addr,
    )


def _run_core(instructions, machine, event_driven, limit=500_000):
    """Drive one DetailedCore to completion under the requested back end."""
    previous = DetailedCore.event_driven_issue
    DetailedCore.event_driven_issue = event_driven
    try:
        stats = CoreStats()
        core = DetailedCore(
            core_id=0,
            config=machine,
            hierarchy=MemoryHierarchy(machine),
            predictor=create_branch_predictor(
                perfect=machine.perfect.branch_predictor
            ),
            stats=stats,
        )
        core.bind_thread(ThreadTrace(instructions).cursor(), thread_id=0)
        time = 0
        while not core.finished and time < limit:
            core.simulate_cycle(time)
            time += 1
        assert core.finished, "detailed core did not finish"
        return stats
    finally:
        DetailedCore.event_driven_issue = previous


#: Everything perfect except the data side: loads take real miss latencies,
#: so dependents park in the issue queue across the whole memory stall.
_MEM_STALL = default_machine_config(1).with_perfect(
    PerfectStructures(branch_predictor=True, l1i=True, itlb=True, dtlb=True)
)

_IDEAL = default_machine_config(1).with_perfect(
    PerfectStructures(
        branch_predictor=True, l1i=True, l1d=True, l2=True, itlb=True, dtlb=True
    )
)


def test_producer_chain_wakes_across_memory_stall():
    """A chain behind a long-latency load resumes only via producer wakeups."""
    instructions = []
    seq = 0
    for block in range(24):
        # Cold page far from everything previous: a long-latency miss.
        instructions.append(
            _load(seq, addr=0x50_0000_0000 + block * (1 << 21), dst=1)
        )
        seq += 1
        for _ in range(8):
            # Dependent chain: each consumes the previous result.
            instructions.append(_alu(seq, dst=1, srcs=(1,)))
            seq += 1
    event = _run_core(instructions, _MEM_STALL, True)
    scan = _run_core(instructions, _MEM_STALL, False)

    assert event.instructions == scan.instructions == len(instructions)
    assert event.cycles == scan.cycles
    assert event.long_latency_loads == scan.long_latency_loads > 0
    # Each stalled chain resumes via producer wakeups (consumers whose
    # producer already completed before they dispatched never subscribe, so
    # the count is below the raw link count but at least one per chain);
    # the stall itself shows up as cycles with no due bucket.
    assert event.issue_wakeups >= 24
    assert event.issue_scans_skipped > 0


def test_fu_contention_rewakes_denied_candidates():
    """Candidates denied a functional unit re-enter the next cycle's bucket."""
    # One FP unit, many independent FP ops: each cycle all remaining ready
    # ops contend, one wins, the rest must be rescheduled — repeatedly.
    machine = dataclasses.replace(
        _IDEAL, core=dataclasses.replace(_IDEAL.core, fp_units=1)
    )
    instructions = [
        _alu(i, dst=(i % 40) + 1, klass=InstructionClass.FP_ALU)
        for i in range(600)
    ]
    event = _run_core(instructions, machine, True)
    scan = _run_core(instructions, machine, False)

    assert event.instructions == scan.instructions == len(instructions)
    assert event.cycles == scan.cycles
    # With one unit the core issues at most one FP op per cycle.
    assert event.ipc <= 1.0 + 1e-9
    # The denied candidates pile up in the merged bucket each cycle.
    assert event.ready_bucket_peak > 1


def test_address_zero_is_a_valid_memory_address():
    """A load and a store at address 0 commit under both cycle paths."""
    instructions = [
        _load(0, addr=0, dst=1),
        _alu(1, dst=2, srcs=(1,)),
        Instruction(
            seq=2,
            pc=0x400008,
            klass=InstructionClass.STORE,
            src_regs=(2,),
            mem_addr=0,
        ),
        _alu(3, dst=3, srcs=(2,)),
    ]

    def run(event_driven):
        previous = DetailedCore.event_driven_issue
        DetailedCore.event_driven_issue = event_driven
        try:
            workload = Workload(name="address-zero", traces=[ThreadTrace(instructions)])
            return Session().simulator("detailed").workload(workload).run().stats
        finally:
            DetailedCore.event_driven_issue = previous

    event, scan = run(True), run(False)
    assert event.deterministic_dict() == scan.deterministic_dict()
    core = event.cores[0]
    assert core.instructions == len(instructions)
    assert core.committed_loads == 1
    assert core.committed_stores == 1
