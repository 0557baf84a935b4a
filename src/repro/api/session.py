"""The `Session` front door: build, run and fan out simulation jobs.

This module is the canonical way to run anything in the repository.  A
:class:`Session` is a fluent builder over the simulator registry and the
declarative spec layer::

    from repro.api import Session

    result = (
        Session(machine)
        .simulator("interval", use_old_window=False)
        .workload("gcc", instructions=60_000)
        .warmup(30_000)
        .run()
    )
    print(result.ipc)

Design-space sweeps fan the same specs out across worker processes::

    specs = [session.spec().with_simulator(name) for name in ("interval", "detailed")]
    results = Session.run_batch(specs, workers=4)

Batch execution is deterministic: each job rebuilds its workload from the
spec's seed inside the worker, so the returned statistics are bit-identical
to a sequential run of the same specs (modulo wall-clock time — compare with
:meth:`repro.common.stats.SimulationStats.deterministic_dict`).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Union

from ..common.config import MachineConfig, default_machine_config
from ..common.stats import SimulationStats
from ..faults.plan import FaultPlan
from ..trace.stream import Workload
from .registry import DEFAULT_REGISTRY, SimulatorRegistry
from .results import RunResult
from .spec import SweepSpec, WorkloadSpec

__all__ = ["Session", "run_spec", "run_specs"]


def run_spec(spec: SweepSpec, registry: Optional[SimulatorRegistry] = None) -> RunResult:
    """Execute one job described by ``spec`` and package the result.

    This is the single execution path shared by :meth:`Session.run`,
    :meth:`Session.run_batch` workers and the CLI — everything that runs a
    simulator funnels through here.
    """
    active_registry = registry if registry is not None else DEFAULT_REGISTRY
    simulator = active_registry.create(spec.simulator, spec.machine, **spec.options)
    workload = spec.workload.build()
    stats = simulator.run(
        workload,
        max_cycles=spec.max_cycles,
        warmup_instructions=spec.warmup_instructions,
        fault_plan=spec.faults,
    )
    return RunResult(
        simulator=spec.simulator,
        workload=spec.workload.display_name,
        stats=stats,
        parameters=spec.describe(),
        label=spec.label,
    )


def run_specs(
    specs: Sequence[SweepSpec], workers: int = 1
) -> List[RunResult]:
    """Execute ``specs`` in order, optionally across worker processes.

    With ``workers <= 1`` the jobs run sequentially in this process.  With
    more workers a :mod:`multiprocessing` pool executes them; results are
    returned in spec order either way, and the statistics are identical to
    the sequential run because every worker rebuilds its workload from the
    spec's seed (no shared mutable state crosses the process boundary).
    """
    jobs = list(specs)
    if workers <= 1 or len(jobs) <= 1:
        return [run_spec(spec) for spec in jobs]
    processes = min(workers, len(jobs))
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(run_spec, jobs)


class Session:
    """Fluent builder for simulation jobs on top of the simulator registry.

    Every setter returns ``self`` so calls chain; :meth:`run` executes the
    configured job, :meth:`spec` freezes it into a picklable
    :class:`~repro.api.spec.SweepSpec` for batching.
    """

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        registry: Optional[SimulatorRegistry] = None,
    ) -> None:
        self._machine = machine if machine is not None else default_machine_config()
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._simulator = "interval"
        self._options: Dict[str, object] = {}
        self._workload_spec: Optional[WorkloadSpec] = None
        self._workload_obj: Optional[Workload] = None
        self._warmup = 0
        self._max_cycles: Optional[int] = None
        self._label = ""
        self._faults: Optional[FaultPlan] = None

    # -- builder setters ---------------------------------------------------------

    def machine(self, machine: MachineConfig) -> "Session":
        """Set the machine configuration to simulate."""
        self._machine = machine
        return self

    def cores(self, num_cores: int) -> "Session":
        """Resize the current machine to ``num_cores`` cores."""
        self._machine = self._machine.with_cores(num_cores)
        return self

    def simulator(self, name: str, **options: object) -> "Session":
        """Select the timing model by registry name, with model options.

        The name and options are validated against the registry immediately,
        so mistakes fail at build time rather than mid-sweep.
        """
        entry = self._registry.get(name)
        self._options = entry.validate_options(dict(options))
        self._simulator = name
        return self

    def workload(
        self,
        workload: Union[str, Workload, WorkloadSpec],
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Set the workload: a benchmark name, a spec, or a built Workload.

        A benchmark name builds a single-threaded workload; use
        :meth:`multiprogram` / :meth:`multithreaded` for the other shapes, or
        pass a :class:`~repro.api.spec.WorkloadSpec` directly.
        """
        if isinstance(workload, Workload):
            self._workload_obj = workload
            self._workload_spec = None
        elif isinstance(workload, WorkloadSpec):
            self._workload_spec = workload
            self._workload_obj = None
        else:
            self._workload_spec = WorkloadSpec(
                kind="single",
                benchmark=workload,
                instructions=instructions,
                seed=seed,
            )
            self._workload_obj = None
        return self

    def multiprogram(
        self,
        benchmark: str,
        copies: int,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Run ``copies`` independent instances of ``benchmark``, one per core."""
        self._workload_spec = WorkloadSpec(
            kind="multiprogram",
            benchmark=benchmark,
            copies=copies,
            instructions=instructions,
            seed=seed,
        )
        self._workload_obj = None
        if self._machine.num_cores < copies:
            self._machine = self._machine.with_cores(copies)
        return self

    def multithreaded(
        self,
        benchmark: str,
        threads: int,
        total_instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Run one PARSEC-like parallel program across ``threads`` cores."""
        self._workload_spec = WorkloadSpec(
            kind="multithreaded",
            benchmark=benchmark,
            copies=threads,
            instructions=total_instructions,
            seed=seed,
        )
        self._workload_obj = None
        if self._machine.num_cores < threads:
            self._machine = self._machine.with_cores(threads)
        return self

    def warmup(self, instructions: int) -> "Session":
        """Set the functional cache/predictor warm-up length per thread."""
        self._warmup = instructions
        return self

    def max_cycles(self, cycles: Optional[int]) -> "Session":
        """Set the simulated-time safety bound."""
        self._max_cycles = cycles
        return self

    def label(self, text: str) -> "Session":
        """Attach a free-form tag carried into the result."""
        self._label = text
        return self

    def faults(self, plan: Optional[FaultPlan]) -> "Session":
        """Arm a deterministic fault schedule (``None`` disarms it).

        The plan travels with the frozen spec, so faulted jobs batch, hash,
        cache and serve exactly like fault-free ones — an empty plan is
        normalized to ``None`` so it cannot perturb the spec's content hash.
        """
        if plan is not None and plan.is_empty:
            plan = None
        self._faults = plan
        return self

    # -- execution ---------------------------------------------------------------

    def spec(self) -> SweepSpec:
        """Freeze the session into a picklable job description.

        Raises when the workload was supplied as a pre-built
        :class:`~repro.trace.stream.Workload` object: those are not
        reproducible-by-seed, so they cannot be shipped to batch workers.
        """
        if self._workload_spec is None:
            if self._workload_obj is not None:
                raise ValueError(
                    "cannot freeze a Session built around a materialized "
                    "Workload object; describe the workload declaratively "
                    "(benchmark name / WorkloadSpec) to batch it"
                )
            raise ValueError("no workload configured; call .workload(...) first")
        return SweepSpec(
            simulator=self._simulator,
            workload=self._workload_spec,
            machine=self._machine,
            options=dict(self._options),
            warmup_instructions=self._warmup,
            max_cycles=self._max_cycles,
            label=self._label,
            faults=self._faults,
        )

    def run(self) -> RunResult:
        """Execute the configured job in this process."""
        if self._workload_obj is not None:
            simulator = self._registry.create(
                self._simulator, self._machine, **self._options
            )
            stats = simulator.run(
                self._workload_obj,
                max_cycles=self._max_cycles,
                warmup_instructions=self._warmup,
                fault_plan=self._faults,
            )
            return RunResult(
                simulator=self._simulator,
                workload=self._workload_obj.name,
                stats=stats,
                parameters={
                    "simulator": self._simulator,
                    # Mirror SweepSpec.describe()'s shape so consumers can
                    # always read parameters["workload"]; a prebuilt Workload
                    # is not seed-reproducible, which "prebuilt" records.
                    "workload": {
                        "kind": "prebuilt",
                        "name": self._workload_obj.name,
                    },
                    "options": dict(self._options),
                    "warmup_instructions": self._warmup,
                    "max_cycles": self._max_cycles,
                    "num_cores": self._machine.num_cores,
                    "label": self._label,
                    **(
                        {"faults": self._faults.as_dict()}
                        if self._faults is not None
                        else {}
                    ),
                },
                label=self._label,
            )
        return run_spec(self.spec(), registry=self._registry)

    def stats(self) -> SimulationStats:
        """Execute the configured job and return only its statistics."""
        return self.run().stats

    @staticmethod
    def run_batch(
        specs: Sequence[Union[SweepSpec, "Session"]], workers: int = 1
    ) -> List[RunResult]:
        """Execute many jobs, fanning out over ``workers`` processes.

        Accepts :class:`~repro.api.spec.SweepSpec` objects or (declarative)
        sessions, which are frozen via :meth:`spec`.  Results come back in
        input order with statistics identical to a sequential run.

        Sessions built on a custom registry keep it when the batch runs
        sequentially; fanning them out over worker processes raises, because
        a custom registry cannot cross the process boundary (bare specs
        always resolve through the default registry).
        """
        jobs: List[SweepSpec] = []
        registries: List[Optional[SimulatorRegistry]] = []
        for job in specs:
            if isinstance(job, Session):
                jobs.append(job.spec())
                registries.append(job._registry)
            else:
                jobs.append(job)
                registries.append(None)
        if workers <= 1 or len(jobs) <= 1:
            return [
                run_spec(spec, registry=registry)
                for spec, registry in zip(jobs, registries)
            ]
        custom = [
            spec.simulator
            for spec, registry in zip(jobs, registries)
            if registry is not None and registry is not DEFAULT_REGISTRY
        ]
        if custom:
            raise ValueError(
                "sessions with a custom SimulatorRegistry cannot be fanned out "
                f"across worker processes (jobs: {custom}); register the "
                "simulators in the default registry or run with workers=1"
            )
        return run_specs(jobs, workers=workers)
