"""Deterministic fault-injection specifications.

A :class:`FaultPlan` describes *what goes wrong* during a simulation —
dropped or corrupted cache lines, flaky DRAM channels, a degraded coherence
interconnect — precisely enough that the same plan prices identically on
every timing model and on every host.  Nothing here consults a wall clock or
the process RNG: every stochastic choice (inter-arrival gaps, retry counts,
loss draws) is a pure function of the plan's seed and an event index,
derived through ``zlib.crc32`` exactly like the trace generator's
process-stable seeding, so a plan embedded in a
:class:`~repro.api.spec.SweepSpec` hashes and reruns in a ``run_batch``
worker like any other job input.

Two families of fault kinds exist:

* **Point faults** (``drop_line``, ``corrupt_line``) fire at discrete
  cycles drawn from a seeded inter-arrival distribution.  The multicore
  driver applies them between event steps and clamps every core's
  ``run_until`` to the next pending fault cycle, so no core ever simulates
  past an unapplied fault — which is what makes the schedule bit-identical
  across the interval/detailed/one-IPC models and across the fast and
  reference driver paths.
* **Window faults** (``flaky_dram``, ``degraded_link``) arm a cycle window
  inside which every affected access draws deterministically (by access
  index) whether it pays retry/retransmission latency.  They are pure
  functions of the access stream and the access cycle, so they need no
  driver coordination at all.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "POINT_KINDS",
    "WINDOW_KINDS",
    "FaultSpec",
    "FaultPlan",
    "fault_draw",
    "derive_stream_seed",
]

#: Fault kinds that fire at discrete cycles (applied by the driver).
POINT_KINDS = ("drop_line", "corrupt_line")
#: Fault kinds that arm a cycle window (applied per affected access).
WINDOW_KINDS = ("flaky_dram", "degraded_link")
FAULT_KINDS = POINT_KINDS + WINDOW_KINDS

_LEVELS = ("l1d", "l1i", "l2")


def fault_draw(seed: int, index: int) -> int:
    """32-bit deterministic pseudo-random draw for fault decision ``index``.

    A crc32 chain over the stream seed and the event index — process-stable
    (independent of ``PYTHONHASHSEED`` and the interpreter), cheap, and with
    enough mixing for the coarse decisions made here (gap lengths, retry
    counts, loss draws).
    """
    return zlib.crc32(index.to_bytes(8, "little"), seed) & 0xFFFFFFFF


def derive_stream_seed(plan_seed: int, order: int, kind: str) -> int:
    """Per-spec stream seed, derived from the plan seed and spec position."""
    return zlib.crc32(f"{plan_seed}:{order}:{kind}".encode("ascii")) & 0xFFFFFFFF


@dataclass(frozen=True)
class FaultSpec:
    """One fault stream: a kind, a target, a cycle window and distribution.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start / stop:
        Cycle window ``[start, stop)`` (simulated cycles after warm-up) in
        which the fault is armed; ``stop=None`` leaves it armed forever.
    level:
        Target cache level for the line kinds: ``"l1d"`` (default),
        ``"l1i"`` or ``"l2"``.
    core:
        Victim core for ``drop_line``; ``None`` rotates round-robin over all
        cores, one per event.
    lines:
        Explicit line addresses to target (cycled through per event).  Empty
        means *adversarial MRU targeting*: each event drops the victim
        core's most-recently-accessed line at the target level — guaranteed
        to land on live memos.
    period:
        Mean inter-arrival in cycles for the point kinds; gaps are drawn
        uniformly from ``[1, 2*period - 1]`` so the mean is ``period``.
    count:
        Optional cap on the number of point events this stream fires.
    rate:
        ``flaky_dram``: probability an in-window DRAM access faults.
    max_retries:
        ``flaky_dram``: retry count per faulted access is drawn uniformly
        from ``[1, max_retries]``.
    backoff:
        ``flaky_dram``: base retry latency in cycles; retry ``i`` costs
        ``backoff << i`` (exponential backoff), so a ``k``-retry access pays
        ``backoff * (2**k - 1)`` extra cycles.
    multiplier:
        ``degraded_link``: latency multiplier (``>= 1.0``) applied to the
        cache-to-cache transfer overhead of coherence traffic in-window.
    loss_rate:
        ``degraded_link``: probability a coherence transfer is lost and
        retransmitted (each loss repays the base transfer overhead).
    """

    kind: str
    start: int = 0
    stop: Optional[int] = None
    level: str = "l1d"
    core: Optional[int] = None
    lines: Tuple[int, ...] = ()
    period: int = 1000
    count: Optional[int] = None
    rate: float = 0.5
    max_retries: int = 3
    backoff: int = 16
    multiplier: float = 1.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.level not in _LEVELS:
            raise ValueError(
                f"unknown fault level {self.level!r}; valid levels: "
                f"{', '.join(_LEVELS)}"
            )
        if self.start < 0:
            raise ValueError("fault start cycle must be non-negative")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("fault stop cycle must be greater than start")
        if self.period < 1:
            raise ValueError("fault period must be at least one cycle")
        if self.count is not None and self.count < 0:
            raise ValueError("fault count must be non-negative")
        if self.core is not None and self.core < 0:
            raise ValueError("fault victim core must be non-negative")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("fault loss_rate must be in [0, 1]")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least one")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("degraded-link multiplier must be >= 1.0")
        # Normalize lines to a tuple so specs stay hashable/frozen even when
        # built from JSON lists.
        if not isinstance(self.lines, tuple):
            object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def is_point(self) -> bool:
        """``True`` for the discrete-event kinds the driver applies."""
        return self.kind in POINT_KINDS

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe, canonical-hash-stable dictionary of every field."""
        return {
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "level": self.level,
            "core": self.core,
            "lines": list(self.lines),
            "period": self.period,
            "count": self.count,
            "rate": self.rate,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "multiplier": self.multiplier,
            "loss_rate": self.loss_rate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        """Rebuild a spec from an :meth:`as_dict` dictionary."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault spec fields: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(data)
        if "lines" in kwargs and kwargs["lines"] is not None:
            kwargs["lines"] = tuple(int(line) for line in kwargs["lines"])  # type: ignore[union-attr]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault streams plus the plan-level seed.

    The plan is immutable and value-compared, so it embeds directly into the
    frozen :class:`~repro.api.spec.SweepSpec`; :meth:`as_dict` round-trips
    through canonical JSON, which is what gives fault runs stable content
    hashes.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_empty(self) -> bool:
        """``True`` when the plan injects nothing."""
        return not self.specs

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary (spec order is load-bearing and preserved)."""
        return {
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a plan from an :meth:`as_dict` dictionary."""
        specs = data.get("specs", [])
        if not isinstance(specs, Sequence) or isinstance(specs, (str, bytes)):
            raise ValueError("fault plan 'specs' must be a list of spec dicts")
        return cls(
            specs=tuple(FaultSpec.from_dict(spec) for spec in specs),
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        )

    def describe(self) -> str:
        """Short human-readable summary for labels and log lines."""
        if self.is_empty:
            return "no-faults"
        kinds = ",".join(spec.kind for spec in self.specs)
        return f"faults[{kinds}]@seed{self.seed}"
