"""Declarative run specifications: what to simulate, reproducibly.

A :class:`SweepSpec` captures one simulation job — which simulator, which
workload, which machine, which budget — as plain picklable data.  Because the
workload is described declaratively (:class:`WorkloadSpec`) rather than as a
materialized trace, a spec can be shipped to a worker process and rebuilt
there bit-identically from its seed, which is what makes
:meth:`repro.api.session.Session.run_batch` deterministic regardless of the
number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from ..common.canonical import canonical_dumps, content_digest
from ..common.config import (
    MachineConfig,
    default_machine_config,
    machine_from_dict,
    machine_to_dict,
)
from ..faults.plan import FaultPlan
from ..trace.stream import Workload
from ..trace.workloads import (
    heterogeneous_multiprogram_workload,
    homogeneous_multiprogram_workload,
    multithreaded_workload,
    single_threaded_workload,
)

__all__ = ["WorkloadSpec", "SweepSpec", "WORKLOAD_KINDS", "spec_hash"]

#: Workload shapes a spec can describe, mirroring repro.trace.workloads.
WORKLOAD_KINDS = ("single", "multiprogram", "heterogeneous", "multithreaded")


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible description of one workload.

    Attributes
    ----------
    kind:
        One of :data:`WORKLOAD_KINDS`.
    benchmark:
        Benchmark name ("single", "multiprogram", "multithreaded" kinds).
    benchmarks:
        Per-core benchmark names ("heterogeneous" kind).
    copies:
        Copy count for "multiprogram" / thread count for "multithreaded".
    instructions:
        Dynamic instruction budget (``None`` = profile default): per program
        copy for "single"/"multiprogram"/"heterogeneous", but the *total*
        across all threads for "multithreaded" (matching
        :func:`repro.trace.workloads.multithreaded_workload`).
    seed:
        Trace-generation seed; together with the other fields it makes
        :meth:`build` deterministic.
    """

    kind: str = "single"
    benchmark: Optional[str] = None
    benchmarks: Tuple[str, ...] = ()
    copies: int = 1
    instructions: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: {WORKLOAD_KINDS}"
            )
        if self.kind == "heterogeneous":
            if not self.benchmarks:
                raise ValueError("heterogeneous workloads need 'benchmarks'")
        elif not self.benchmark:
            raise ValueError(f"{self.kind!r} workloads need 'benchmark'")
        if self.copies <= 0:
            raise ValueError("copies must be positive")
        if self.instructions is not None and self.instructions < 1:
            raise ValueError(
                f"instructions must be at least 1 (or unset), got {self.instructions}"
            )

    @property
    def num_threads(self) -> int:
        """How many cores this workload occupies."""
        if self.kind == "single":
            return 1
        if self.kind == "heterogeneous":
            return len(self.benchmarks)
        return self.copies

    @property
    def display_name(self) -> str:
        """Human-readable workload name used in tables and labels."""
        if self.kind == "single":
            return str(self.benchmark)
        if self.kind == "heterogeneous":
            return "+".join(self.benchmarks)
        suffix = "t" if self.kind == "multithreaded" else ""
        return f"{self.benchmark} x{self.copies}{suffix}"

    def build(self) -> Workload:
        """Materialize the workload traces (deterministic given the spec)."""
        if self.kind == "single":
            return single_threaded_workload(
                self.benchmark, instructions=self.instructions, seed=self.seed
            )
        if self.kind == "multiprogram":
            return homogeneous_multiprogram_workload(
                self.benchmark,
                copies=self.copies,
                instructions=self.instructions,
                seed=self.seed,
            )
        if self.kind == "heterogeneous":
            return heterogeneous_multiprogram_workload(
                list(self.benchmarks), instructions=self.instructions, seed=self.seed
            )
        return multithreaded_workload(
            self.benchmark,
            num_threads=self.copies,
            total_instructions=self.instructions,
            seed=self.seed,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe description of this workload."""
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "benchmarks": list(self.benchmarks),
            "copies": self.copies,
            "instructions": self.instructions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        """Rebuild a workload spec from :meth:`as_dict` output."""
        return cls(
            kind=str(data.get("kind", "single")),
            benchmark=data.get("benchmark"),  # type: ignore[arg-type]
            benchmarks=tuple(data.get("benchmarks", ()) or ()),
            copies=int(data.get("copies", 1)),
            instructions=data.get("instructions"),  # type: ignore[arg-type]
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class SweepSpec:
    """One fully-specified simulation job.

    Specs are plain data: picklable (so they cross process boundaries in
    :meth:`~repro.api.session.Session.run_batch`) and self-describing (so a
    batch result can record exactly what produced it).
    """

    simulator: str
    workload: WorkloadSpec
    machine: MachineConfig = field(default_factory=default_machine_config)
    options: Mapping[str, object] = field(default_factory=dict)
    warmup_instructions: int = 0
    max_cycles: Optional[int] = None
    label: str = ""
    #: Optional deterministic fault schedule (see repro.faults).  ``None``
    #: (the default) is OMITTED from to_dict()/describe() so fault-free
    #: specs keep the exact encoding — and content hash — they had before
    #: fault injection existed.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.warmup_instructions < 0:
            raise ValueError(
                f"warmup must be >= 0 instructions, got {self.warmup_instructions}"
            )
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ValueError(
                f"max_cycles must be at least 1 (or unset), got {self.max_cycles}"
            )

    def with_simulator(self, simulator: str, **options: object) -> "SweepSpec":
        """Copy of this spec targeting a different simulator.

        The name and options are validated against the default registry so a
        typo fails here, at build time, instead of mid-batch inside a worker
        process.
        """
        from .registry import DEFAULT_REGISTRY

        validated = DEFAULT_REGISTRY.get(simulator).validate_options(dict(options))
        return replace(self, simulator=simulator, options=validated)

    def describe(self) -> Dict[str, object]:
        """JSON-safe description of the job (machine summarized, not encoded).

        Option keys are emitted in sorted order so the description — which is
        embedded verbatim in :class:`~repro.api.results.RunResult` parameters
        — serializes identically however the options dict was built.
        """
        result: Dict[str, object] = {
            "simulator": self.simulator,
            "workload": self.workload.as_dict(),
            "options": {key: self.options[key] for key in sorted(self.options)},
            "warmup_instructions": self.warmup_instructions,
            "max_cycles": self.max_cycles,
            "num_cores": self.machine.num_cores,
            "label": self.label,
        }
        if self.faults is not None:
            result["faults"] = self.faults.as_dict()
        return result

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity JSON-safe encoding of the job, machine included.

        Unlike :meth:`describe` (a human-oriented summary), this round-trips:
        ``SweepSpec.from_dict(spec.to_dict()) == spec``.  It is the wire
        format of the job server and the payload the content hash is computed
        over, so every collection with order-insensitive semantics (option
        names) is emitted in sorted order.
        """
        result: Dict[str, object] = {
            "simulator": self.simulator,
            "workload": self.workload.as_dict(),
            "machine": machine_to_dict(self.machine),
            "options": {key: self.options[key] for key in sorted(self.options)},
            "warmup_instructions": self.warmup_instructions,
            "max_cycles": self.max_cycles,
            "label": self.label,
        }
        if self.faults is not None:
            # Omitted (not null) when unset: fault-free specs must hash
            # byte-identically to their pre-fault-injection encoding.
            result["faults"] = self.faults.as_dict()
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        machine_data = data.get("machine")
        machine = (
            machine_from_dict(machine_data)  # type: ignore[arg-type]
            if machine_data is not None
            else default_machine_config()
        )
        max_cycles = data.get("max_cycles")
        faults_data = data.get("faults")
        return cls(
            simulator=str(data["simulator"]),
            workload=WorkloadSpec.from_dict(dict(data.get("workload", {}))),  # type: ignore[arg-type]
            machine=machine,
            options=dict(data.get("options", {})),  # type: ignore[arg-type]
            warmup_instructions=int(data.get("warmup_instructions", 0)),  # type: ignore[arg-type]
            max_cycles=int(max_cycles) if max_cycles is not None else None,
            label=str(data.get("label", "")),
            faults=(
                FaultPlan.from_dict(faults_data)  # type: ignore[arg-type]
                if faults_data is not None
                else None
            ),
        )

    def canonical_json(self) -> str:
        """Canonical JSON encoding of :meth:`to_dict` (sorted keys, compact).

        Two processes — or two Python versions — building the same spec
        produce the same string, which makes it usable as a cache key.
        """
        return canonical_dumps(self.to_dict())

    def content_hash(self) -> str:
        """Hex SHA-256 of :meth:`canonical_json` — the spec's cache key.

        Because every run is bit-reproducible from its spec (deterministic
        trace seeding), equal hashes imply bit-identical results: the result
        store can serve cached statistics as *exact*, not approximate.
        """
        return content_digest(self.to_dict())


def spec_hash(spec: Union[SweepSpec, Mapping[str, object]]) -> str:
    """Content hash of a spec given either as an object or a ``to_dict`` dict.

    Dictionaries are normalized through :meth:`SweepSpec.from_dict` /
    :meth:`SweepSpec.to_dict` first, so an equivalent dict built elsewhere
    (different key order, defaults spelled out or omitted) hashes identically
    to the spec object it describes.
    """
    if not isinstance(spec, SweepSpec):
        spec = SweepSpec.from_dict(spec)
    return spec.content_hash()
