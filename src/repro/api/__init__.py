"""Unified programmatic front door for the repro package.

The :mod:`repro.api` layer ties the simulators, workload generators and
experiment drivers together behind one surface:

* :mod:`repro.api.registry` — resolve timing models by name
  ("interval", "detailed", "oneipc", plus anything registered with
  :func:`register_simulator`), each with a validated option schema;
* :mod:`repro.api.spec` — declarative, picklable job descriptions
  (:class:`WorkloadSpec`, :class:`SweepSpec`);
* :mod:`repro.api.session` — the fluent :class:`Session` builder and the
  parallel, deterministic :meth:`Session.run_batch` sweep runner;
* :mod:`repro.api.results` — :class:`RunResult` objects that round-trip
  through JSON so sweeps persist to disk;
* :mod:`repro.api.cli` — the ``python -m repro`` command-line interface
  built on the same layer (imported lazily; see ``repro.__main__``).
"""

from .registry import (
    DEFAULT_REGISTRY,
    DuplicateSimulatorError,
    InvalidOptionError,
    RegisteredSimulator,
    SimulatorOption,
    SimulatorRegistry,
    UnknownSimulatorError,
    create_simulator,
    get_simulator,
    list_simulators,
    register_simulator,
    simulator_names,
)
from .results import RunResult, load_results, save_results
from .session import Session, run_spec, run_specs
from .spec import SweepSpec, WorkloadSpec, spec_hash

__all__ = [
    "DEFAULT_REGISTRY",
    "DuplicateSimulatorError",
    "InvalidOptionError",
    "RegisteredSimulator",
    "SimulatorOption",
    "SimulatorRegistry",
    "UnknownSimulatorError",
    "create_simulator",
    "get_simulator",
    "list_simulators",
    "register_simulator",
    "simulator_names",
    "RunResult",
    "load_results",
    "save_results",
    "Session",
    "run_spec",
    "run_specs",
    "SweepSpec",
    "WorkloadSpec",
    "spec_hash",
]
