"""Serializable run results: persist sweeps to disk and reload them.

A :class:`RunResult` pairs the statistics of one simulation with a JSON-safe
record of the job that produced them.  Results round-trip through JSON
(``as_dict``/``from_dict``, :func:`save_results`/:func:`load_results`), so a
large overnight sweep can be executed once, written to disk, and re-analyzed
or re-rendered without re-simulating.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Union

from ..common.canonical import canonical_dumps
from ..common.stats import SimulationStats

__all__ = ["RunResult", "save_results", "load_results"]

#: Schema version stamped into result files, bumped on incompatible change.
RESULT_FORMAT_VERSION = 1


@dataclass
class RunResult:
    """Statistics of one simulation plus the job description that produced it.

    Attributes
    ----------
    simulator:
        Registry name of the simulator that ran ("interval", "detailed", ...).
    workload:
        Human-readable workload name (benchmark, "gcc x4", ...).
    stats:
        Full statistics of the run.
    parameters:
        JSON-safe job description (see :meth:`repro.api.spec.SweepSpec.describe`).
    label:
        Free-form tag the caller attached to the job.
    """

    simulator: str
    workload: str
    stats: SimulationStats
    parameters: Dict[str, object] = field(default_factory=dict)
    label: str = ""

    @property
    def ipc(self) -> float:
        """Aggregate IPC of the run (shortcut for tables)."""
        return self.stats.aggregate_ipc

    @property
    def total_cycles(self) -> int:
        """Simulated execution time of the run in cycles."""
        return self.stats.total_cycles

    @property
    def simulated_kips(self) -> float:
        """Simulation throughput (thousand simulated instructions per host second)."""
        return self.stats.simulated_kips()

    @property
    def events_per_instruction(self) -> float:
        """Miss events per committed instruction (interval density)."""
        return self.stats.events_per_instruction

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary of the whole result.

        The ``metrics`` block is derived (recomputed on load, never parsed
        back): it records the run's throughput trajectory — simulated KIPS
        and miss events per instruction — and every host-only counter
        (:meth:`~repro.common.stats.SimulationStats.host_counters`) next to
        the raw statistics.
        """
        return {
            "simulator": self.simulator,
            "workload": self.workload,
            "label": self.label,
            "parameters": dict(self.parameters),
            "metrics": {
                "simulated_kips": self.simulated_kips,
                "events_per_instruction": self.events_per_instruction,
                "aggregate_ipc": self.stats.aggregate_ipc,
                **self.stats.host_counters(),
            },
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`as_dict` output."""
        return cls(
            simulator=str(data.get("simulator", "")),
            workload=str(data.get("workload", "")),
            stats=SimulationStats.from_dict(dict(data.get("stats", {}))),
            parameters=dict(data.get("parameters", {})),
            label=str(data.get("label", "")),
        )

    def to_json(self, **dumps_kwargs: object) -> str:
        """Serialize this result to a JSON string."""
        return json.dumps(self.as_dict(), **dumps_kwargs)  # type: ignore[arg-type]

    def to_canonical_json(self) -> str:
        """Canonical JSON encoding (sorted keys, compact separators).

        Two processes serializing equal results produce equal strings, which
        is what the content-addressed result store checksums and what makes
        "bit-identical" comparisons between cached and fresh results exact.
        """
        return canonical_dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Deserialize a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def save_results(
    results: Sequence[RunResult], path: Union[str, os.PathLike]
) -> None:
    """Write a list of results to ``path`` as one JSON document."""
    document = {
        "format_version": RESULT_FORMAT_VERSION,
        "results": [result.as_dict() for result in results],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_results(path: Union[str, os.PathLike]) -> List[RunResult]:
    """Reload results written by :func:`save_results`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, list):  # bare list, be forgiving
        entries: Iterable[Mapping[str, object]] = document
    else:
        version = document.get("format_version")
        if version != RESULT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format version {version!r} in {path}"
            )
        entries = document["results"]
    return [RunResult.from_dict(entry) for entry in entries]
