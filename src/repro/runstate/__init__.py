"""Crash-safe durable run state + supervised parallel window solving.

Two subsystems that together make long multilevel placements survive
process death and scale across cores:

* :mod:`repro.runstate.store` / :mod:`repro.runstate.state` — a
  durable checkpoint store (atomic write→fsync→rename, per-file
  checksums, corruption quarantine) plus the versioned run manifest
  and the ``--run-dir``/``--resume`` contract: a killed run restarts
  from the last durable level and reproduces the uninterrupted result
  bit-for-bit.
* :mod:`repro.runstate.pool` — a supervised ``multiprocessing`` pool
  for the independent per-window transportation solves of the
  partitioning step; crashed or stalled workers are replaced and
  their windows requeued, with an in-process serial fallback, and
  results merge in deterministic window order.

See docs/resilience.md (run directories, fault sites) and
docs/observability.md (``runstate.*`` / ``pool.*`` counters).
"""

from repro.runstate.pool import (
    WindowSolverPool,
    activated,
    get_active_pool,
    solve_instance_batch,
    solve_transport_batch,
)
from repro.runstate.state import DurableRunState
from repro.runstate.store import (
    CorruptRunStateError,
    LevelRecord,
    RunManifest,
    RunStateStore,
    atomic_write,
    config_hash,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    # durable store
    "RunStateStore",
    "RunManifest",
    "LevelRecord",
    "DurableRunState",
    "CorruptRunStateError",
    "atomic_write",
    "config_hash",
    "encode_snapshot",
    "decode_snapshot",
    # worker pool
    "WindowSolverPool",
    "get_active_pool",
    "activated",
    "solve_transport_batch",
    "solve_instance_batch",
]
