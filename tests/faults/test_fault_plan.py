"""FaultPlan/FaultSpec: validation, round-trips, and spec-hash neutrality.

The fault schedule is declarative data that rides inside a
:class:`~repro.api.spec.SweepSpec`, so these tests pin the properties that
``run_batch`` (which rebuilds each job from its spec in a worker) and
``content_hash`` depend on: strict validation at construction, exact
``as_dict``/``from_dict`` round-trips, deterministic seeded draws, and —
critically — that a fault-free spec's canonical encoding (and therefore its
content hash) is byte-identical to what it was before fault injection
existed: the ``faults`` key is *omitted*, never ``null``.
"""

from __future__ import annotations

import pytest

from repro.api.spec import SweepSpec, WorkloadSpec, spec_hash
from repro.faults import FaultPlan, FaultSpec
from repro.faults.plan import derive_stream_seed, fault_draw


def _plan() -> FaultPlan:
    return FaultPlan(
        seed=42,
        specs=(
            FaultSpec(kind="drop_line", period=250, core=1, lines=(0x8000, 0x9000)),
            FaultSpec(kind="corrupt_line", start=100, stop=5000, level="l2"),
            FaultSpec(kind="flaky_dram", rate=0.1, max_retries=4, backoff=8),
            FaultSpec(kind="degraded_link", multiplier=1.5, loss_rate=0.05),
        ),
    )


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor_strike")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            FaultSpec(kind="drop_line", level="l3")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": -1},
            {"stop": 0},  # stop must exceed start
            {"period": 0},
            {"count": -1},
            {"core": -2},
        ],
    )
    def test_bad_point_windows_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(kind="drop_line", **kwargs)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ValueError):
            FaultSpec(kind="flaky_dram", rate=rate)
        with pytest.raises(ValueError):
            FaultSpec(kind="degraded_link", loss_rate=rate)

    def test_bad_retry_and_multiplier_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="flaky_dram", max_retries=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="flaky_dram", backoff=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="degraded_link", multiplier=0.5)

    def test_point_kind_classification(self):
        assert FaultSpec(kind="drop_line").is_point
        assert FaultSpec(kind="corrupt_line").is_point
        assert not FaultSpec(kind="flaky_dram").is_point
        assert not FaultSpec(kind="degraded_link").is_point


class TestRoundTrips:
    def test_spec_round_trip_is_exact(self):
        for spec in _plan().specs:
            assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_plan_round_trip_is_exact(self):
        plan = _plan()
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_unknown_field_rejected(self):
        data = FaultSpec(kind="drop_line").as_dict()
        data["blast_radius"] = 3
        with pytest.raises(ValueError, match="blast_radius"):
            FaultSpec.from_dict(data)

    def test_lines_normalize_to_int_tuple(self):
        spec = FaultSpec.from_dict(
            {**FaultSpec(kind="drop_line").as_dict(), "lines": [1, 2]}
        )
        assert spec.lines == (1, 2)

    def test_describe(self):
        assert FaultPlan().describe() == "no-faults"
        assert FaultPlan().is_empty
        described = _plan().describe()
        assert "drop_line" in described and "@seed42" in described


class TestSeededDraws:
    def test_fault_draw_is_deterministic_and_spread(self):
        draws = [fault_draw(7, index) for index in range(64)]
        assert draws == [fault_draw(7, index) for index in range(64)]
        assert len(set(draws)) > 32  # crc32 spreads; not a constant stream

    def test_stream_seeds_separate_specs_and_kinds(self):
        seeds = {
            derive_stream_seed(1, order, kind)
            for order in range(4)
            for kind in ("drop_line", "corrupt_line")
        }
        assert len(seeds) == 8


class TestSweepSpecIntegration:
    def _sweep(self, faults=None) -> SweepSpec:
        return SweepSpec(
            simulator="interval",
            workload=WorkloadSpec(kind="single", benchmark="gcc", instructions=1000),
            faults=faults,
        )

    def test_fault_free_spec_omits_the_key_entirely(self):
        encoding = self._sweep().to_dict()
        assert "faults" not in encoding
        assert "faults" not in self._sweep().describe()

    def test_fault_free_hash_unchanged_by_the_faults_field(self):
        # from_dict of a dict without the key reproduces the same hash:
        # old cached results stay addressable.
        spec = self._sweep()
        assert spec_hash(spec.to_dict()) == spec.content_hash()

    def test_faulted_spec_round_trips_and_changes_the_hash(self):
        faulted = self._sweep(faults=_plan())
        assert faulted.to_dict()["faults"] == _plan().as_dict()
        rebuilt = SweepSpec.from_dict(faulted.to_dict())
        assert rebuilt.faults == _plan()
        assert rebuilt.content_hash() == faulted.content_hash()
        assert faulted.content_hash() != self._sweep().content_hash()

    def test_different_plans_hash_differently(self):
        other = FaultPlan(seed=43, specs=_plan().specs)
        assert (
            self._sweep(faults=_plan()).content_hash()
            != self._sweep(faults=other).content_hash()
        )

    def test_session_normalizes_empty_plan_to_none(self):
        from repro.api import Session

        spec = (
            Session()
            .workload("gcc", instructions=1000)
            .faults(FaultPlan())
            .spec()
        )
        assert spec.faults is None
        assert "faults" not in spec.to_dict()
