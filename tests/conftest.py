"""Shared pytest fixtures for the repro test-suite."""

from __future__ import annotations

import pytest

from repro.common.config import MachineConfig, default_machine_config
from repro.trace.profiles import spec_profile
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import forget_last_build, single_threaded_workload


@pytest.fixture(autouse=True)
def cold_workload_builds():
    """Start every test without the workload an earlier test built.

    The workload builders keep their last workload for reuse; a test that
    inspects lazily built state (instructions, run columns) must see traces
    that no earlier test touched.
    """
    forget_last_build()


@pytest.fixture
def single_core_machine() -> MachineConfig:
    """The Table-1 baseline machine with one core."""
    return default_machine_config(num_cores=1)


@pytest.fixture
def quad_core_machine() -> MachineConfig:
    """The Table-1 baseline machine with four cores."""
    return default_machine_config(num_cores=4)


@pytest.fixture
def small_gcc_workload():
    """A small single-threaded workload for fast simulator tests."""
    return single_threaded_workload("gcc", instructions=3_000, seed=7)


@pytest.fixture
def gcc_generator():
    """A deterministic trace generator for the gcc stand-in profile."""
    return SyntheticTraceGenerator(spec_profile("gcc"), seed=3)
