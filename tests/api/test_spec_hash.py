"""Canonical spec serialization and content hashing.

The service layer treats a spec hash as a content-addressable cache key for
*exact* results, which only works if equal specs serialize to equal bytes in
every process and on every Python version.  These tests pin that contract.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.api.results import RunResult
from repro.api.spec import SweepSpec, WorkloadSpec, spec_hash
from repro.common.canonical import canonical_dumps, content_digest
from repro.common.config import (
    default_machine_config,
    dualcore_l2_config,
    machine_from_dict,
    machine_to_dict,
    quadcore_3d_stacked_config,
)
from repro.common.stats import CoreStats, SimulationStats


def _spec(**overrides) -> SweepSpec:
    base = dict(
        simulator="interval",
        workload=WorkloadSpec(kind="single", benchmark="gcc", instructions=2_000, seed=3),
        machine=default_machine_config(num_cores=2),
        options={"use_old_window": True, "model_overlap": False},
        warmup_instructions=500,
        max_cycles=100_000,
        label="t",
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        text = canonical_dumps({"b": 1, "a": [1, 2], "c": {"z": 1, "a": 2}})
        assert text == '{"a":[1,2],"b":1,"c":{"a":2,"z":1}}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_digest_is_order_insensitive(self):
        assert content_digest({"a": 1, "b": 2}) == content_digest({"b": 2, "a": 1})


class TestMachineRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [default_machine_config, dualcore_l2_config, quadcore_3d_stacked_config],
    )
    def test_round_trip_equality(self, factory):
        machine = factory()
        encoded = machine_to_dict(machine)
        # Through actual JSON text, like the wire and the store do.
        rebuilt = machine_from_dict(json.loads(json.dumps(encoded)))
        assert rebuilt == machine

    def test_latencies_keyed_by_name(self):
        encoded = machine_to_dict(default_machine_config())
        latencies = encoded["core"]["execution_latencies"]
        assert "LOAD" in latencies and all(isinstance(k, str) for k in latencies)


class TestSpecRoundTrip:
    def test_round_trip_equality(self):
        spec = _spec(machine=quadcore_3d_stacked_config())
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_none_budget_round_trips(self):
        spec = _spec(max_cycles=None, workload=WorkloadSpec(benchmark="mcf"))
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.max_cycles is None
        assert rebuilt.workload.instructions is None


class TestSpecBudgets:
    @pytest.mark.parametrize(
        "change",
        [{"warmup_instructions": -1}, {"max_cycles": 0}, {"max_cycles": -1}],
    )
    def test_out_of_range_budgets_are_rejected(self, change):
        with pytest.raises(ValueError):
            _spec(**change)
        # The wire format goes through the same check.
        encoded = {**_spec().to_dict(), **change}
        with pytest.raises(ValueError):
            SweepSpec.from_dict(encoded)

    def test_boundary_budgets_are_accepted(self):
        spec = _spec(warmup_instructions=0, max_cycles=1)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("instructions", [0, -1])
    @pytest.mark.parametrize(
        "workload",
        [
            {"kind": "single", "benchmark": "gcc"},
            {"kind": "multiprogram", "benchmark": "gcc", "copies": 2},
            {"kind": "multithreaded", "benchmark": "blackscholes", "copies": 2},
            {"kind": "heterogeneous", "benchmarks": ("gcc", "mcf")},
        ],
    )
    def test_non_positive_instruction_budget_is_rejected(self, workload, instructions):
        # Only None selects the profile default; 0 must not silently become it.
        with pytest.raises(ValueError, match="instructions must be at least 1"):
            WorkloadSpec(**workload, instructions=instructions)
        encoded = _spec().to_dict()
        encoded["workload"] = {**encoded["workload"], "instructions": instructions}
        with pytest.raises(ValueError, match="instructions must be at least 1"):
            SweepSpec.from_dict(encoded)

    def test_session_multithreaded_zero_budget_is_rejected(self):
        from repro.api.session import Session

        with pytest.raises(ValueError, match="instructions must be at least 1"):
            Session().multithreaded("blackscholes", 2, total_instructions=0)

    def test_unset_and_minimal_budgets_are_accepted(self):
        assert WorkloadSpec(benchmark="gcc").instructions is None
        workload = WorkloadSpec(kind="multithreaded", benchmark="blackscholes", copies=2,
                                instructions=1)
        assert SweepSpec.from_dict(_spec(workload=workload).to_dict()).workload == workload


class TestSpecHash:
    def test_option_insertion_order_is_canonicalized(self):
        forward = _spec(options={"use_old_window": True, "model_overlap": False})
        backward = _spec(options={"model_overlap": False, "use_old_window": True})
        assert forward.content_hash() == backward.content_hash()
        assert forward.canonical_json() == backward.canonical_json()

    def test_dict_form_hashes_like_the_object(self):
        spec = _spec()
        assert spec_hash(spec.to_dict()) == spec.content_hash()
        # A shuffled-key dict of the same job normalizes to the same hash.
        shuffled = json.loads(
            json.dumps(spec.to_dict(), sort_keys=True)
        )
        assert spec_hash(shuffled) == spec.content_hash()

    @pytest.mark.parametrize(
        "change",
        [
            {"simulator": "oneipc"},
            {"warmup_instructions": 501},
            {"max_cycles": 99_999},
            {"label": "other"},
            {"options": {"use_old_window": False, "model_overlap": False}},
            {"machine": default_machine_config(num_cores=4)},
            {"workload": WorkloadSpec(kind="single", benchmark="gcc", instructions=2_000, seed=4)},
        ],
    )
    def test_every_field_is_load_bearing(self, change):
        assert _spec(**change).content_hash() != _spec().content_hash()

    def test_stable_across_interpreter_processes(self):
        """The hash must not depend on PYTHONHASHSEED or process identity."""
        program = (
            "from repro.api.spec import SweepSpec, WorkloadSpec\n"
            "from repro.common.config import default_machine_config\n"
            "spec = SweepSpec(simulator='interval',"
            " workload=WorkloadSpec(kind='single', benchmark='gcc',"
            " instructions=2000, seed=3),"
            " machine=default_machine_config(num_cores=2),"
            " options={'use_old_window': True, 'model_overlap': False},"
            " warmup_instructions=500, max_cycles=100000, label='t')\n"
            "print(spec.content_hash())\n"
        )
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=__file__.rsplit("/tests/", 1)[0],
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout.strip())
        assert outputs == {_spec().content_hash()}


class TestResultCanonicalJson:
    def test_parameter_order_is_canonicalized(self):
        stats = SimulationStats(
            cores=[CoreStats(core_id=0, instructions=10, cycles=20)],
            total_cycles=20,
            simulator="interval",
        )
        one = RunResult(
            simulator="interval",
            workload="gcc",
            stats=stats,
            parameters={"a": 1, "b": 2},
        )
        two = RunResult(
            simulator="interval",
            workload="gcc",
            stats=stats,
            parameters={"b": 2, "a": 1},
        )
        assert one.to_canonical_json() == two.to_canonical_json()
        # And the canonical text round-trips to an equal result.
        rebuilt = RunResult.from_json(one.to_canonical_json())
        assert rebuilt.to_canonical_json() == one.to_canonical_json()
