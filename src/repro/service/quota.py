"""Durable per-tenant quota metering for the placement service.

The admission controller meters wall-clock seconds per tenant; before
this module the meter lived only in daemon memory, so a crash-restart
cycle silently refilled every tenant's quota — a crash-looping daemon
(or a tenant inducing one) could launder unlimited solver time.

:class:`QuotaLedger` persists the meter in the daemon state directory
as a sealed JSON record (:func:`repro.runstate.store.seal`) written
through the same ``write → flush → fsync → rename → fsync(dir)``
sequence as the job table and the ECO delta journal
(:func:`repro.runstate.store.atomic_write`).  The controller loads it
on construction (daemon restart included) and commits after every
charge; a torn or corrupted ledger is quarantined aside (``.corrupt``)
and the meter restarts empty — fail-open, because refusing every
tenant on a bad ledger would turn a media fault into a total outage.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.obs import incr
from repro.runstate.store import (
    CorruptRunStateError,
    atomic_write,
    quarantine,
    seal,
    unseal,
)

__all__ = ["QuotaLedger", "QUOTA_FILE"]

QUOTA_FILE = "quota.json"


class QuotaLedger:
    """Checksummed ``{tenant: seconds_used}`` map in the state dir."""

    def __init__(self, state_dir: str) -> None:
        self.path = os.path.join(state_dir, QUOTA_FILE)

    def load(self) -> Dict[str, float]:
        """The persisted meter; empty on absence or corruption (the
        corrupt file is moved aside for post-mortem, never trusted)."""
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except OSError:
            return {}
        try:
            return unseal("used", raw, _meter)
        except CorruptRunStateError as exc:
            quarantine(
                self.path, self.path + ".corrupt", str(exc),
                "svc.quota_quarantined",
            )
            return {}

    def save(self, used: Dict[str, float]) -> None:
        """Atomically commit the meter (called after every charge)."""
        atomic_write(self.path, seal("used", _meter(used)))
        incr("svc.quota_persisted")


def _meter(used) -> Dict[str, float]:
    return {str(k): float(v) for k, v in used.items()}
