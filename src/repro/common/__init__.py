"""Shared substrate: machine configuration, instruction model, statistics.

These modules are used by every simulator in the package.  See
:mod:`repro.common.config` for the Table-1 baseline machine description,
:mod:`repro.common.isa` for the instruction record exchanged between the
functional substrate and the timing models, and :mod:`repro.common.metrics`
for the evaluation metrics (IPC, STP, ANTT, error summaries, speedup).
"""

from .config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    PerfectStructures,
    TLBConfig,
    default_core_config,
    default_machine_config,
    default_memory_config,
    dualcore_l2_config,
    quadcore_3d_stacked_config,
)
from .isa import (
    DEFAULT_EXECUTION_LATENCIES,
    Instruction,
    InstructionClass,
    InstructionMix,
    NUM_ARCH_REGISTERS,
    SyncKind,
    execution_latency,
    is_memory_class,
)
from .metrics import (
    ErrorSummary,
    average_error,
    average_normalized_turnaround_time,
    maximum_error,
    normalized_progress,
    percentage_error,
    speedup,
    summarize_errors,
    system_throughput,
)
from .stats import CoreStats, SimulationStats, Stopwatch

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "MachineConfig",
    "MemoryConfig",
    "PerfectStructures",
    "TLBConfig",
    "default_core_config",
    "default_machine_config",
    "default_memory_config",
    "dualcore_l2_config",
    "quadcore_3d_stacked_config",
    "DEFAULT_EXECUTION_LATENCIES",
    "Instruction",
    "InstructionClass",
    "InstructionMix",
    "NUM_ARCH_REGISTERS",
    "SyncKind",
    "execution_latency",
    "is_memory_class",
    "ErrorSummary",
    "average_error",
    "average_normalized_turnaround_time",
    "maximum_error",
    "normalized_progress",
    "percentage_error",
    "speedup",
    "summarize_errors",
    "system_throughput",
    "CoreStats",
    "SimulationStats",
    "Stopwatch",
]
