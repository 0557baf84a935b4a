"""Optional-numpy fast path: the vectorized and pure-python builders agree.

The columnar batch precomputes three derived columns — plain-run ends,
fetch-line runs and the fetch-skip flag template — through numpy when the
``[fast]`` extra is installed, and through pure-python loops otherwise.  The
contract is *bit-identical results either way*; only host time differs.
These tests build the same batch under both implementations and compare the
columns exactly, and pin an end-to-end run to identical deterministic
statistics with the fallback forced.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.common import fastpath
from repro.common.isa import Instruction, InstructionClass, SyncKind
from repro.trace.columnar import TraceBatch
from repro.trace.workloads import forget_last_build

numpy_required = pytest.mark.skipif(
    fastpath.numpy is None,
    reason="numpy not installed (or disabled via REPRO_NO_NUMPY)",
)


def _mixed_instructions(count, seed=0):
    """A randomized batch covering every class the builders care about."""
    rng = random.Random(seed)
    classes = [
        InstructionClass.INT_ALU,
        InstructionClass.FP_ALU,
        InstructionClass.LOAD,
        InstructionClass.STORE,
        InstructionClass.BRANCH,
        InstructionClass.SYNC,
    ]
    instructions = []
    pc = 0x400000
    for seq in range(count):
        klass = rng.choice(classes)
        kwargs = {}
        if klass in (InstructionClass.LOAD, InstructionClass.STORE):
            kwargs["mem_addr"] = rng.randrange(0, 1 << 32) & ~0x3
        if klass is InstructionClass.SYNC:
            kwargs["sync"] = SyncKind.BARRIER
            kwargs["sync_object"] = rng.randrange(4)
        instructions.append(
            Instruction(seq=seq, pc=pc, klass=klass, dst_reg=1, **kwargs)
        )
        # Mostly sequential fetch with occasional far jumps, so line runs
        # have both long stretches and single-instruction transitions.
        pc = rng.randrange(0, 1 << 30) & ~0x3 if rng.random() < 0.05 else pc + 4
    return instructions


def _fallback_batch(monkeypatch, instructions):
    """Build a batch with the pure-python builders forced."""
    monkeypatch.setattr(fastpath, "numpy", None)
    return TraceBatch(instructions)


@numpy_required
def test_builders_agree_with_and_without_numpy(monkeypatch):
    instructions = _mixed_instructions(5000)
    fast = TraceBatch(instructions)
    fast_plain = fast.plain_run_ends()
    fast_runs = {bits: fast.fetch_line_runs(bits) for bits in (6, 12)}

    slow = _fallback_batch(monkeypatch, instructions)
    assert slow.plain_run_ends() == fast_plain
    for bits, expected in fast_runs.items():
        assert slow.fetch_line_runs(bits) == expected
    assert slow.fetch_skip_template == fast.fetch_skip_template


def test_fetch_line_runs_semantics(monkeypatch):
    """Each run entry points one past the last instruction on the same line."""
    instructions = _mixed_instructions(800, seed=7)
    for use_numpy in (True, False):
        if use_numpy and fastpath.numpy is None:
            continue
        with monkeypatch.context() as patch:
            if not use_numpy:
                patch.setattr(fastpath, "numpy", None)
            batch = TraceBatch(instructions)
            for bits in (6, 12):
                runs = batch.fetch_line_runs(bits)
                assert len(runs) == len(batch)
                for index, end in enumerate(runs):
                    assert index < end <= len(batch)
                    base = batch.pc[index] >> bits
                    # Everything inside the run shares the line ...
                    assert all(
                        batch.pc[pos] >> bits == base
                        for pos in range(index, end)
                    )
                    # ... and the run is maximal.
                    if end < len(batch):
                        assert batch.pc[end] >> bits != base
                # Cached per shift: the same list object comes back.
                assert batch.fetch_line_runs(bits) is runs


def test_fallback_run_is_bit_identical(monkeypatch):
    """An end-to-end interval run matches exactly with the fallback forced."""
    def run():
        return (
            Session()
            .simulator("interval")
            .workload("gcc", instructions=3000, seed=0)
            .warmup(500)
            .max_cycles(50_000_000)
            .run()
        )

    reference = run()
    monkeypatch.setattr(fastpath, "numpy", None)
    # A reused workload would bring the run columns numpy already built.
    forget_last_build()
    fallback = run()
    assert (
        fallback.stats.deterministic_dict()
        == reference.stats.deterministic_dict()
    )
