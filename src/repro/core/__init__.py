"""Interval simulation — the paper's primary contribution.

This package contains the analytical core timing model: the shared
interval-at-a-time execution-kernel layer (:mod:`repro.core.kernel`), the
old window (:mod:`repro.core.window`), the per-core
interval model
(:mod:`repro.core.interval_core`), the multi-core interval simulator
(:mod:`repro.core.interval_sim`), and the one-IPC baseline model the paper
positions itself against (:mod:`repro.core.oneipc`) — batched on the same
kernel layer.
"""

from .interval_core import IntervalCore
from .interval_sim import IntervalSimulator
from .kernel import ColumnarKernelCore
from .oneipc import OneIPCCore, OneIPCSimulator
from .window import OldWindow

__all__ = [
    "ColumnarKernelCore",
    "IntervalCore",
    "IntervalSimulator",
    "OldWindow",
    "OneIPCCore",
    "OneIPCSimulator",
]
