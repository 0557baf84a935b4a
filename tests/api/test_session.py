"""Tests for the Session builder and the parallel batch runner."""

from __future__ import annotations

import pytest

from repro.api import Session, SweepSpec, WorkloadSpec
from repro.api.registry import InvalidOptionError, UnknownSimulatorError
from repro.common.config import default_machine_config
from repro.trace.workloads import single_threaded_workload

INSTRUCTIONS = 3_000
WARMUP = 1_000


class TestSessionBuilder:
    def test_minimal_run(self):
        result = (
            Session()
            .simulator("interval")
            .workload("gcc", instructions=INSTRUCTIONS)
            .warmup(WARMUP)
            .run()
        )
        assert result.simulator == "interval"
        assert result.workload == "gcc"
        assert result.stats.aggregate_ipc > 0
        assert result.parameters["workload"]["benchmark"] == "gcc"

    def test_simulator_options_validated_eagerly(self):
        with pytest.raises(UnknownSimulatorError):
            Session().simulator("hypothetical")
        with pytest.raises(InvalidOptionError):
            Session().simulator("interval", window_mode="old")

    def test_run_with_prebuilt_workload_object(self):
        workload = single_threaded_workload("mcf", instructions=INSTRUCTIONS, seed=5)
        result = Session().simulator("oneipc").workload(workload).run()
        assert result.simulator == "oneipc"
        assert result.workload == "mcf"
        assert result.stats.total_instructions > 0

    def test_prebuilt_workload_cannot_be_frozen(self):
        workload = single_threaded_workload("mcf", instructions=INSTRUCTIONS)
        with pytest.raises(ValueError):
            Session().workload(workload).spec()

    def test_spec_requires_workload(self):
        with pytest.raises(ValueError):
            Session().spec()

    def test_multiprogram_grows_machine(self):
        spec = (
            Session()
            .multiprogram("gcc", copies=4, instructions=INSTRUCTIONS)
            .spec()
        )
        assert spec.machine.num_cores == 4
        assert spec.workload.kind == "multiprogram"

    def test_multithreaded_workload_runs(self):
        result = (
            Session()
            .simulator("interval")
            .multithreaded("blackscholes", threads=2, total_instructions=INSTRUCTIONS)
            .warmup(WARMUP)
            .run()
        )
        assert result.stats.num_cores == 2


class TestWorkloadSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="speculative", benchmark="gcc")

    def test_single_requires_benchmark(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="single")

    def test_heterogeneous_requires_benchmarks(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="heterogeneous")

    def test_round_trip(self):
        spec = WorkloadSpec(kind="multiprogram", benchmark="mcf", copies=2,
                            instructions=1000, seed=9)
        assert WorkloadSpec.from_dict(spec.as_dict()) == spec

    def test_build_is_deterministic(self):
        spec = WorkloadSpec(kind="single", benchmark="gcc",
                            instructions=INSTRUCTIONS, seed=11)
        first, second = spec.build(), spec.build()
        assert len(first.traces[0]) == len(second.traces[0])
        assert [(i.pc, i.klass) for i in first.traces[0]] == [
            (i.pc, i.klass) for i in second.traces[0]
        ]


class TestRunBatch:
    def _specs(self):
        """8 (simulator, workload) jobs across benchmarks and models."""
        specs = []
        for seed, benchmark in enumerate(("gcc", "mcf", "twolf", "art")):
            base = (
                Session()
                .workload(benchmark, instructions=INSTRUCTIONS, seed=seed)
                .warmup(WARMUP)
                .spec()
            )
            specs.append(base.with_simulator("interval"))
            specs.append(base.with_simulator("oneipc"))
        return specs

    def test_parallel_matches_sequential_bit_identically(self):
        specs = self._specs()
        assert len(specs) >= 8
        sequential = Session.run_batch(specs, workers=1)
        parallel = Session.run_batch(specs, workers=4)
        assert len(parallel) == len(sequential)
        for seq, par in zip(sequential, parallel):
            assert seq.simulator == par.simulator
            assert seq.workload == par.workload
            assert seq.stats.deterministic_dict() == par.stats.deterministic_dict()

    def test_batch_accepts_sessions(self):
        sessions = [
            Session().simulator("oneipc").workload("gcc", instructions=INSTRUCTIONS),
            Session().simulator("oneipc").workload("mcf", instructions=INSTRUCTIONS),
        ]
        results = Session.run_batch(sessions, workers=1)
        assert [r.workload for r in results] == ["gcc", "mcf"]

    def test_sequential_batch_honors_custom_registry(self):
        from repro.api.registry import SimulatorRegistry
        from repro.core.oneipc import OneIPCSimulator

        registry = SimulatorRegistry()
        registry.register("mymodel", OneIPCSimulator)
        session = (
            Session(registry=registry)
            .simulator("mymodel")
            .workload("gcc", instructions=INSTRUCTIONS)
        )
        (result,) = Session.run_batch([session], workers=1)
        assert result.simulator == "mymodel"
        assert result.stats.total_instructions > 0

    def test_parallel_batch_rejects_custom_registry(self):
        from repro.api.registry import SimulatorRegistry
        from repro.core.oneipc import OneIPCSimulator

        registry = SimulatorRegistry()
        registry.register("mymodel", OneIPCSimulator)
        sessions = [
            Session(registry=registry)
            .simulator("mymodel")
            .workload(benchmark, instructions=INSTRUCTIONS)
            for benchmark in ("gcc", "mcf")
        ]
        with pytest.raises(ValueError, match="custom SimulatorRegistry"):
            Session.run_batch(sessions, workers=2)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_batch_returns_no_results(self, workers):
        assert Session.run_batch([], workers=workers) == []

    def test_equal_specs_give_equal_results_across_workers(self):
        # Equal content hashes imply bit-identical statistics, whichever
        # process runs the job.
        spec = self._specs()[1]
        twin = SweepSpec.from_dict(spec.to_dict())
        assert twin.content_hash() == spec.content_hash()
        first, second = Session.run_batch([spec, twin], workers=2)
        assert first.stats.deterministic_dict() == second.stats.deterministic_dict()

    def test_batch_preserves_spec_order(self):
        specs = self._specs()
        results = Session.run_batch(specs, workers=4)
        assert [(r.simulator, r.workload) for r in results] == [
            (s.simulator, s.workload.display_name) for s in specs
        ]


class TestSweepSpec:
    def test_with_simulator_validates_eagerly(self):
        base = SweepSpec(
            simulator="interval",
            workload=WorkloadSpec(kind="single", benchmark="gcc",
                                  instructions=INSTRUCTIONS),
        )
        with pytest.raises(UnknownSimulatorError):
            base.with_simulator("intervall")
        with pytest.raises(InvalidOptionError):
            base.with_simulator("interval", window="old")

    def test_with_simulator_copies(self):
        base = SweepSpec(
            simulator="interval",
            workload=WorkloadSpec(kind="single", benchmark="gcc",
                                  instructions=INSTRUCTIONS),
        )
        other = base.with_simulator("detailed")
        assert base.simulator == "interval"
        assert other.simulator == "detailed"
        assert other.workload == base.workload

    def test_describe_is_json_safe(self):
        import json

        spec = (
            Session(default_machine_config(2))
            .simulator("interval", use_old_window=False)
            .multiprogram("gcc", 2, instructions=INSTRUCTIONS)
            .spec()
        )
        described = json.loads(json.dumps(spec.describe()))
        assert described["simulator"] == "interval"
        assert described["options"] == {"use_old_window": False}
        assert described["num_cores"] == 2
