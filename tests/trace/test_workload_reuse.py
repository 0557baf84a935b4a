"""The workload builders reuse their last workload.

A study runs several timing models over one synthesized stream, so the
builders in :mod:`repro.trace.workloads` keep the last workload they built
and hand its sealed traces out again when the same one is asked for.  These
tests pin what a hit shares and what it does not, which requests hit, that
the kept workload is let go before the next synthesis, and that no
simulated number depends on whether a run's traces were reused.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Session, SweepSpec, WorkloadSpec, run_specs
from repro.common.config import default_machine_config
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import (
    forget_last_build,
    heterogeneous_multiprogram_workload,
    homogeneous_multiprogram_workload,
    manycore_workload,
    multithreaded_workload,
    single_threaded_workload,
)

MODELS = ("interval", "oneipc", "detailed")

#: One small request per builder.
BUILDS = {
    "single": lambda: single_threaded_workload("gcc", 1_500, seed=2),
    "homogeneous": lambda: homogeneous_multiprogram_workload("mcf", 2, 1_000),
    "heterogeneous": lambda: heterogeneous_multiprogram_workload(
        ["gcc", "swim"], 1_000
    ),
    "multithreaded": lambda: multithreaded_workload("fluidanimate", 4, 2_000),
    "manycore": lambda: manycore_workload(
        "mcf", 8, 200, seed=1, shared_fraction=0.2
    ),
}


@pytest.fixture
def synthesis_count(monkeypatch):
    """How many times ``SyntheticTraceGenerator.emit`` has run so far."""
    calls = []
    emit = SyntheticTraceGenerator.emit

    def counting_emit(self, batch, count):
        calls.append(count)
        emit(self, batch, count)

    monkeypatch.setattr(SyntheticTraceGenerator, "emit", counting_emit)
    return lambda: len(calls)


class TestHit:
    @pytest.mark.parametrize("shape", sorted(BUILDS))
    def test_hit_shares_the_traces_in_a_new_workload(self, shape, synthesis_count):
        first = BUILDS[shape]()
        emitted = synthesis_count()
        second = BUILDS[shape]()
        assert synthesis_count() == emitted
        assert second is not first
        assert second.traces is not first.traces
        assert second.core_assignment is not first.core_assignment
        assert all(a is b for a, b in zip(first.traces, second.traces))
        assert len(second.traces) == len(first.traces)
        assert (second.name, second.kind, second.num_barriers) == (
            first.name,
            first.kind,
            first.num_barriers,
        )
        assert second.core_assignment == first.core_assignment

    @pytest.mark.parametrize("shape", sorted(BUILDS))
    def test_changes_to_a_returned_workload_do_not_reach_the_next_hit(self, shape):
        first = BUILDS[shape]()
        name, assignment = first.name, list(first.core_assignment)
        traces = list(first.traces)
        first.name = "renamed"
        first.core_assignment.reverse()
        first.core_assignment[0] = 99
        first.traces.pop()
        second = BUILDS[shape]()
        assert second.name == name
        assert second.core_assignment == assignment
        assert second.traces == traces

    @pytest.mark.parametrize(
        "spellings",
        [
            [
                lambda: single_threaded_workload("gcc", 1_000),
                lambda: single_threaded_workload("gcc", instructions=1_000),
                lambda: single_threaded_workload("gcc", 1_000, 0),
                lambda: single_threaded_workload(
                    benchmark="gcc", seed=0, instructions=1_000
                ),
            ],
            [
                lambda: homogeneous_multiprogram_workload("mcf", 2, 800),
                lambda: homogeneous_multiprogram_workload(
                    "mcf", copies=2, instructions=800, seed=0
                ),
            ],
            [
                lambda: heterogeneous_multiprogram_workload(["gcc", "mcf"], 800),
                lambda: heterogeneous_multiprogram_workload(
                    benchmarks=["gcc", "mcf"], instructions=800, seed=0
                ),
            ],
            [
                lambda: multithreaded_workload("vips", 2, 1_000),
                lambda: multithreaded_workload(
                    "vips", num_threads=2, total_instructions=1_000, seed=0
                ),
            ],
            [
                lambda: manycore_workload("mcf", 4),
                lambda: manycore_workload("mcf", 4, 2_000, 0, None),
                lambda: manycore_workload(
                    "mcf", num_threads=4, instructions_per_thread=2_000,
                    shared_fraction=None,
                ),
            ],
        ],
        ids=["single", "homogeneous", "heterogeneous", "multithreaded", "manycore"],
    )
    def test_positional_keyword_and_default_spellings_hit(
        self, spellings, synthesis_count
    ):
        first = spellings[0]()
        emitted = synthesis_count()
        for spelling in spellings[1:]:
            assert spelling().traces[0] is first.traces[0]
        assert synthesis_count() == emitted


class TestMiss:
    @pytest.mark.parametrize(
        "base, other",
        [
            (
                lambda: single_threaded_workload("gcc", 1_000, seed=0),
                lambda: single_threaded_workload("gcc", 1_000, seed=1),
            ),
            (
                lambda: single_threaded_workload("gcc", 1_000),
                lambda: single_threaded_workload("gcc", 1_200),
            ),
            (
                lambda: single_threaded_workload("gcc", 1_000),
                lambda: single_threaded_workload("mcf", 1_000),
            ),
            (
                lambda: homogeneous_multiprogram_workload("mcf", 2, 800),
                lambda: homogeneous_multiprogram_workload("mcf", 3, 800),
            ),
            (
                lambda: heterogeneous_multiprogram_workload(["gcc", "mcf"], 800),
                lambda: heterogeneous_multiprogram_workload(["mcf", "gcc"], 800),
            ),
            (
                lambda: heterogeneous_multiprogram_workload(["gcc", "mcf"], 800),
                lambda: heterogeneous_multiprogram_workload(
                    ["gcc", "mcf", "swim"], 800
                ),
            ),
            (
                lambda: multithreaded_workload("vips", 2, 1_000),
                lambda: multithreaded_workload("vips", 2, 1_000, seed=4),
            ),
            (
                lambda: manycore_workload("mcf", 4, 300, shared_fraction=0.2),
                lambda: manycore_workload("mcf", 4, 300, shared_fraction=0.3),
            ),
            (
                lambda: manycore_workload("mcf", 4, 300, shared_fraction=0.2),
                lambda: manycore_workload("mcf", 4, 300),
            ),
            (
                lambda: multithreaded_workload("fluidanimate", 4, 1_200),
                lambda: manycore_workload("fluidanimate", 4, 300),
            ),
        ],
        ids=[
            "seed", "instructions", "benchmark", "copies", "benchmark-order",
            "benchmark-list", "multithreaded-seed", "shared-fraction",
            "shared-fraction-default", "builder",
        ],
    )
    def test_any_differing_argument_misses(self, base, other, synthesis_count):
        kept = base()
        emitted = synthesis_count()
        rebuilt = other()
        assert synthesis_count() > emitted
        assert rebuilt.traces[0] is not kept.traces[0]

    def test_a_mutated_benchmark_list_misses(self, synthesis_count):
        benchmarks = ["gcc", "mcf"]
        kept = heterogeneous_multiprogram_workload(benchmarks, 800)
        benchmarks.append("swim")
        emitted = synthesis_count()
        rebuilt = heterogeneous_multiprogram_workload(benchmarks, 800)
        assert synthesis_count() > emitted
        assert rebuilt.name == "gcc+mcf+swim"
        assert rebuilt.traces[0] is not kept.traces[0]

    def test_forget_last_build_forces_a_synthesis(self, synthesis_count):
        kept = single_threaded_workload("gcc", 1_000)
        forget_last_build()
        emitted = synthesis_count()
        assert single_threaded_workload("gcc", 1_000).traces[0] is not kept.traces[0]
        assert synthesis_count() > emitted

    @pytest.mark.parametrize("shape", sorted(BUILDS))
    def test_previous_traces_are_dead_when_the_next_synthesis_starts(
        self, shape, monkeypatch
    ):
        """A miss lets go of the kept workload before it synthesizes."""
        workload = single_threaded_workload("twolf", 1_000, seed=9)
        dropped = [weakref.ref(trace) for trace in workload.traces]
        del workload
        alive_at_synthesis = []
        generate = SyntheticTraceGenerator.generate
        emit = SyntheticTraceGenerator.emit

        def check():
            alive_at_synthesis.append(any(ref() is not None for ref in dropped))

        def checking_generate(self, *args, **kwargs):
            check()
            return generate(self, *args, **kwargs)

        def checking_emit(self, batch, count):
            check()
            emit(self, batch, count)

        monkeypatch.setattr(SyntheticTraceGenerator, "generate", checking_generate)
        monkeypatch.setattr(SyntheticTraceGenerator, "emit", checking_emit)
        gc.disable()
        try:
            BUILDS[shape]()
        finally:
            gc.enable()
        assert alive_at_synthesis
        assert not any(alive_at_synthesis)


#: (machine cores, builder, warm-up) per shape of the bit-identity check.
IDENTITY_SHAPES = {
    "single": (1, lambda: single_threaded_workload("mcf", 2_000, seed=1), 1_000),
    "multiprogram": (
        4,
        lambda: homogeneous_multiprogram_workload("gcc", 4, 800, seed=1),
        400,
    ),
    "multithreaded": (
        4,
        lambda: multithreaded_workload("fluidanimate", 4, 3_000, seed=1),
        800,
    ),
    "manycore": (
        64,
        lambda: manycore_workload("mcf", 64, 60, seed=1, shared_fraction=0.2),
        30,
    ),
}


def _run(model, cores, build, warmup):
    machine = default_machine_config(num_cores=cores)
    result = (
        Session(machine).simulator(model).workload(build()).warmup(warmup).run()
    )
    return result.stats.deterministic_dict()


@pytest.mark.parametrize("shape", sorted(IDENTITY_SHAPES))
def test_reused_runs_equal_cold_runs_in_either_order(shape):
    cores, build, warmup = IDENTITY_SHAPES[shape]
    cold = {}
    for model in MODELS:
        forget_last_build()
        cold[model] = _run(model, cores, build, warmup)
    for order in (MODELS, MODELS[::-1]):
        forget_last_build()
        traces = build().traces
        for model in order:
            assert build().traces[0] is traces[0]
            assert _run(model, cores, build, warmup) == cold[model], (order, model)


def test_run_specs_over_models_synthesizes_once(synthesis_count):
    workload = WorkloadSpec(kind="single", benchmark="mcf", instructions=2_000, seed=3)
    specs = [
        SweepSpec(
            simulator=model,
            workload=workload,
            machine=default_machine_config(num_cores=1),
            warmup_instructions=1_000,
        )
        for model in MODELS
    ]
    workload.build()
    one_synthesis = synthesis_count()
    forget_last_build()
    sequential = run_specs(specs, workers=1)
    assert synthesis_count() == 2 * one_synthesis
    # Forked workers start from an empty slot and each synthesize cold.
    forget_last_build()
    parallel = run_specs(specs, workers=3)
    for seq, par in zip(sequential, parallel):
        assert seq.stats.deterministic_dict() == par.stats.deterministic_dict()
