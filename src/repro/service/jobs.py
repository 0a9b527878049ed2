"""Durable job table of the placement service.

Every accepted job is one sealed JSON record (the shared record
format of :mod:`repro.runstate.store`) under
``<state_dir>/jobs/`` plus one private run directory under
``<state_dir>/runs/<job_id>/`` that the job's child process owns
(``runstate`` snapshots, the placed output, and the checksummed
``result.json``).  Records are written with the same atomic
write → fsync → rename discipline as the runstate store, so a reader
— in particular a *restarted* daemon — sees either the previous or
the new complete record, never a torn write.

The record is the commit point of acceptance: the daemon persists the
record *before* replying ``ok`` to ``submit``, so an accepted job can
never be lost to a daemon crash.  On restart,
:meth:`JobStore.load_all` rediscovers every record; jobs left in
``queued`` or ``running`` are re-queued (orphaned child processes are
killed first — see :mod:`repro.service.daemon`), and ``place`` jobs
resume bit-identically from their run-dir manifests.

Lifecycle states::

    queued --> running --> done
       |          |  \\--> failed      (structured error outcome)
       |          \\-----> queued      (crash/stall/corrupt: retry
       |                               with backoff, then in-daemon
       |                               fallback)
       |--> cancelled                  (client cancel)
       \\--> shed                      (admission evicted it under
                                       overload; ServiceOverloadError)

``done``/``failed``/``cancelled``/``shed`` are terminal.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import incr
from repro.resilience.errors import PipelineStageError
from repro.runstate.store import (
    CorruptRunStateError,
    atomic_write,
    quarantine,
    seal,
    unseal,
)
from repro.service.protocol import JobSpec

__all__ = [
    "JOB_STATES",
    "JOB_TERMINAL_STATES",
    "JobRecord",
    "JobStore",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "shed")
JOB_TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "shed"})

_JOB_ID_RE = re.compile(r"^j(\d{6})$")


@dataclass
class JobRecord:
    """One job's durable state (mirrors the on-disk record)."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    #: admission order; ties in priority dispatch break on this
    seq: int = 0
    attempts: int = 0
    #: wall-clock instant before which the scheduler must not
    #: re-dispatch (exponential backoff after a failed attempt)
    not_before: float = 0.0
    #: pid of the running child (None while queued / in-daemon
    #: fallback); a restarted daemon kills this pid if still alive
    pid: Optional[int] = None
    #: per-job solver budget in seconds (from the tenant quota)
    budget_seconds: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in JOB_TERMINAL_STATES

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def priority(self) -> int:
        return self.spec.priority

    def public_view(self) -> Dict[str, Any]:
        """What ``status`` replies with."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "instance": self.spec.instance,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "state": self.state,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "seq": self.seq,
            "attempts": self.attempts,
            "not_before": self.not_before,
            "pid": self.pid,
            "budget_seconds": self.budget_seconds,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobRecord":
        rec = cls(
            job_id=str(d["job_id"]),
            spec=JobSpec.from_dict(d["spec"]),
            state=str(d["state"]),
            seq=int(d.get("seq", 0)),
            attempts=int(d.get("attempts", 0)),
            not_before=float(d.get("not_before", 0.0)),
            pid=d.get("pid"),
            budget_seconds=d.get("budget_seconds"),
            submitted_at=float(d.get("submitted_at", 0.0)),
            result=d.get("result"),
            error=d.get("error"),
        )
        rec.started_at = d.get("started_at")
        rec.finished_at = d.get("finished_at")
        if rec.state not in JOB_STATES:
            raise PipelineStageError(
                f"job record {rec.job_id} has unknown state {rec.state!r}",
                stage="svc.jobs",
            )
        return rec


class JobStore:
    """Durable store of job records rooted at one service state dir."""

    JOBS_DIR = "jobs"
    RUNS_DIR = "runs"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(os.path.join(state_dir, self.JOBS_DIR), exist_ok=True)
        os.makedirs(os.path.join(state_dir, self.RUNS_DIR), exist_ok=True)

    # -- paths ----------------------------------------------------------
    def record_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, self.JOBS_DIR, f"{job_id}.json")

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, self.RUNS_DIR, job_id)

    # -- ids ------------------------------------------------------------
    def next_job_id(self) -> str:
        """Monotonic across restarts: one past the largest id on disk."""
        top = 0
        jobs_dir = os.path.join(self.state_dir, self.JOBS_DIR)
        for name in os.listdir(jobs_dir):
            m = _JOB_ID_RE.match(name[:-5]) if name.endswith(".json") else None
            if m:
                top = max(top, int(m.group(1)))
        return f"j{top + 1:06d}"

    # -- durable record I/O --------------------------------------------
    def save(self, record: JobRecord) -> None:
        atomic_write(
            self.record_path(record.job_id), seal("job", record.to_dict())
        )
        incr("svc.records_written")

    def load(self, job_id: str) -> JobRecord:
        path = self.record_path(job_id)
        try:
            with open(path, "rb") as f:
                raw = f.read()
            return unseal("job", raw, JobRecord.from_dict)
        except (OSError, CorruptRunStateError) as exc:
            raise PipelineStageError(
                f"job record refused at {path}: {exc}", stage="svc.jobs"
            ) from exc

    def load_all(self) -> List[JobRecord]:
        """Every verifiable record, sorted by seq (admission order).

        A record that fails verification is quarantined and skipped —
        it can only arise from media corruption, never from a torn
        write (writes are atomic), so skipping cannot drop an accepted
        job that the daemon acknowledged.
        """
        jobs_dir = os.path.join(self.state_dir, self.JOBS_DIR)
        records = []
        for name in sorted(os.listdir(jobs_dir)):
            if not name.endswith(".json"):
                continue
            job_id = name[:-5]
            try:
                records.append(self.load(job_id))
            except PipelineStageError as exc:
                dest = os.path.join(self.state_dir, self.QUARANTINE_DIR, name)
                quarantine(
                    self.record_path(job_id), dest, str(exc),
                    "svc.records_quarantined",
                )
        records.sort(key=lambda r: (r.seq, r.job_id))
        return records
