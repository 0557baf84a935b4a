"""Tests for statistics collection."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api.results import RunResult
from repro.common.stats import (
    HOST_COUNTERS,
    CoreStats,
    SimulationStats,
    Stopwatch,
)

#: Every CoreStats counter that is not host-only (core_id is an identity).
SIMULATED_COUNTERS = [
    f.name for f in fields(CoreStats) if f.name not in HOST_COUNTERS and f.name != "core_id"
]


class TestHostCounters:
    """Every field declared with host_counter() is handled generically."""

    @staticmethod
    def _two_core_run() -> SimulationStats:
        cores = [
            CoreStats(
                core_id=core_id,
                **{name: 10 * (core_id + 1) + i for i, name in enumerate(HOST_COUNTERS)},
            )
            for core_id in range(2)
        ]
        return SimulationStats(cores=cores, driver_stats={"events_popped": 7})

    def test_declared_set(self):
        assert set(HOST_COUNTERS) == {
            "issue_wakeups",
            "issue_scans_skipped",
            "ready_bucket_peak",
            "faults_injected",
            "refetches_forced",
            "dram_retries",
            "retry_cycles",
        }

    @pytest.mark.parametrize("name", list(HOST_COUNTERS))
    def test_host_counter_flows_everywhere_but_the_deterministic_dict(self, name):
        stats = self._two_core_run()
        for core in stats.as_dict()["cores"]:
            assert name in core
        for core in stats.deterministic_dict()["cores"]:
            assert name not in core

        values = [getattr(core, name) for core in stats.cores]
        expected = max(values) if name == "ready_bucket_peak" else sum(values)
        assert stats.host_counters()[name] == expected

        result = RunResult(simulator="interval", workload="w", stats=stats)
        assert result.as_dict()["metrics"][name] == expected

    def test_driver_counters_fold_into_host_counters(self):
        stats = self._two_core_run()
        assert stats.host_counters()["events_popped"] == 7
        assert "driver" not in stats.deterministic_dict()

    @pytest.mark.parametrize("name", SIMULATED_COUNTERS)
    def test_merge_sums_every_simulated_counter(self, name):
        merged = CoreStats(**{name: 3})
        merged.merge(CoreStats(**{name: 4}))
        assert getattr(merged, name) == 7

    def test_merge_takes_the_peak_of_high_water_marks(self):
        merged = CoreStats(ready_bucket_peak=5, issue_wakeups=2)
        merged.merge(CoreStats(ready_bucket_peak=3, issue_wakeups=4))
        assert merged.ready_bucket_peak == 5
        assert merged.issue_wakeups == 6


class TestCoreStats:
    def test_ipc_and_cpi(self):
        stats = CoreStats(instructions=200, cycles=100)
        assert stats.ipc == pytest.approx(2.0)
        assert stats.cpi == pytest.approx(0.5)

    def test_zero_division_guards(self):
        stats = CoreStats()
        assert stats.ipc == 0.0
        assert stats.cpi == 0.0
        assert stats.branch_misprediction_rate == 0.0
        assert stats.l1d_miss_rate == 0.0

    def test_rates(self):
        stats = CoreStats(branch_lookups=100, branch_mispredictions=5,
                          dcache_accesses=50, l1d_misses=10)
        assert stats.branch_misprediction_rate == pytest.approx(0.05)
        assert stats.l1d_miss_rate == pytest.approx(0.2)

    def test_merge_accumulates(self):
        a = CoreStats(instructions=10, cycles=20, l1d_misses=1)
        b = CoreStats(instructions=30, cycles=40, l1d_misses=2)
        a.merge(b)
        assert a.instructions == 40
        assert a.cycles == 60
        assert a.l1d_misses == 3

    def test_as_dict_contains_derived_metrics(self):
        stats = CoreStats(instructions=10, cycles=20)
        data = stats.as_dict()
        assert data["ipc"] == pytest.approx(0.5)
        assert "branch_misprediction_rate" in data

    def test_cpi_stack_normalization(self):
        stats = CoreStats(
            instructions=100,
            cycles=300,
            base_cycles=100,
            branch_penalty_cycles=50,
            long_load_penalty_cycles=150,
        )
        stack = stats.cpi_stack()
        assert stack["base"] == pytest.approx(1.0)
        assert stack["branch"] == pytest.approx(0.5)
        assert stack["memory"] == pytest.approx(1.5)

    def test_cpi_stack_empty_without_instructions(self):
        assert CoreStats().cpi_stack() == {}


class TestSimulationStats:
    def test_aggregate_ipc(self):
        stats = SimulationStats(
            cores=[CoreStats(instructions=100, cycles=100),
                   CoreStats(core_id=1, instructions=100, cycles=100)],
            total_cycles=100,
        )
        assert stats.total_instructions == 200
        assert stats.aggregate_ipc == pytest.approx(2.0)

    def test_empty_run(self):
        stats = SimulationStats()
        assert stats.aggregate_ipc == 0.0
        assert stats.simulated_kips() == 0.0

    def test_simulated_kips(self):
        stats = SimulationStats(
            cores=[CoreStats(instructions=50_000, cycles=1)],
            wall_clock_seconds=2.0,
        )
        assert stats.simulated_kips() == pytest.approx(25.0)

    def test_as_dict_round_trip(self):
        stats = SimulationStats(
            cores=[CoreStats(instructions=10, cycles=10)],
            total_cycles=10,
            simulator="interval",
        )
        data = stats.as_dict()
        assert data["simulator"] == "interval"
        assert data["total_instructions"] == 10


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as watch:
            total = sum(range(10_000))
        assert total > 0
        assert watch.elapsed > 0.0

    def test_accumulates_across_starts(self):
        watch = Stopwatch()
        watch.start()
        watch.stop()
        first = watch.elapsed
        watch.start()
        watch.stop()
        assert watch.elapsed >= first
