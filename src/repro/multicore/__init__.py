"""Multi-core simulation infrastructure shared by all timing models.

:mod:`repro.multicore.simulator` provides the global-time driver and the
per-core model interface; :mod:`repro.multicore.sync` provides barrier/lock
semantics for multi-threaded workloads.
"""

from .simulator import CoreModel, CycleLimitExceeded, MulticoreSimulator
from .sync import SynchronizationManager, SyncStats

__all__ = [
    "CoreModel",
    "CycleLimitExceeded",
    "MulticoreSimulator",
    "SynchronizationManager",
    "SyncStats",
]
