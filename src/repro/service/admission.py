"""Admission control of the placement service.

Backed by the ``resilience`` budget machinery: every accepted job gets
a wall-clock :class:`~repro.resilience.budget.SolverBudget` carved out
of its tenant's remaining quota, so a tenant under quota pressure
degrades gracefully through the existing lp → heuristic fallback
chain instead of being killed mid-solve.

Overload behavior is *deterministic* and *structured*:

* the global queue is bounded (``max_queue``); a submit against a full
  queue either **sheds** the oldest job of the strictly
  lowest-priority class (when the incoming job outranks it) or is
  **refused** — both surface as
  :class:`~repro.resilience.errors.ServiceOverloadError` (exit 5),
  never as a daemon crash or an unbounded queue;
* per-tenant queue depth and concurrency are capped so one
  pathological tenant cannot starve the fleet;
* a tenant whose wall-clock quota is exhausted is refused until quota
  frees up (completed jobs charge their elapsed time); with a
  :class:`~repro.service.quota.QuotaLedger` the meter is durable —
  SIGKILLing the daemon does not refill anyone's quota.

Retry pacing also lives here: exponential backoff per failed attempt
and a global child-spawn rate cap (token window) that keeps a
crash-looping job from fork-spinning the host.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional

from repro.obs import incr
from repro.resilience.errors import ServiceOverloadError
from repro.service.jobs import JobRecord

__all__ = ["AdmissionPolicy", "AdmissionController"]


@dataclass
class AdmissionPolicy:
    """Tunables of the admission controller (CLI flags of ``serve``)."""

    #: bound of the global queued-job set; beyond it, shed or refuse
    max_queue: int = 64
    #: concurrent running jobs across all tenants
    max_running: int = 2
    #: concurrent running jobs per tenant
    tenant_max_running: int = 2
    #: queued jobs per tenant
    tenant_max_queued: int = 32
    #: wall-clock seconds a tenant may consume (None = unmetered);
    #: remaining quota also caps each job's solver budget
    tenant_quota_seconds: Optional[float] = None
    #: per-attempt deadline: a child past it is killed and retried
    job_timeout: float = 300.0
    #: child attempts before the in-daemon fallback runs the job
    max_attempts: int = 3
    #: exponential backoff after a failed attempt: base * 2^(n-1) ...
    backoff_base: float = 0.25
    #: ... capped here
    backoff_cap: float = 5.0
    #: child-spawn rate cap: at most ``respawn_cap`` spawns per
    #: ``respawn_window`` seconds, crash-loops included
    respawn_window: float = 10.0
    respawn_cap: int = 50


class AdmissionController:
    """Decides accept / shed / refuse, and paces retries."""

    def __init__(
        self, policy: AdmissionPolicy, ledger: Optional[object] = None
    ) -> None:
        self.policy = policy
        #: durable quota meter (:class:`repro.service.quota.QuotaLedger`);
        #: None keeps the meter in memory only (tests, ad-hoc daemons)
        self.ledger = ledger
        #: wall-clock seconds consumed per tenant; with a ledger the
        #: meter survives daemon crash-restart cycles — a SIGKILLed
        #: daemon cannot refill a tenant's quota
        self.tenant_used: Dict[str, float] = (
            ledger.load() if ledger is not None else {}
        )
        self._spawn_times: Deque[float] = deque()

    # -- admission ------------------------------------------------------
    def admit(
        self,
        incoming: JobRecord,
        queued: Iterable[JobRecord],
        running: Iterable[JobRecord],
    ) -> Optional[JobRecord]:
        """Admit ``incoming`` against the current queued/running sets.

        Returns the job to *shed* (caller marks it terminal and
        notifies its waiters) when acceptance requires eviction, else
        None.  Raises :class:`ServiceOverloadError` when the job must
        be refused.  Deterministic: the decision is a pure function of
        the job sets and the policy.
        """
        pol = self.policy
        queued = list(queued)
        tenant = incoming.tenant

        remaining = self.quota_remaining(tenant)
        if remaining is not None and remaining <= 0.0:
            incr("svc.refused_quota")
            raise ServiceOverloadError(
                f"tenant {tenant!r} wall-clock quota exhausted "
                f"({pol.tenant_quota_seconds:.0f}s)",
                tenant=tenant,
                stage="svc.accept",
            )
        tenant_queued = [j for j in queued if j.tenant == tenant]
        if len(tenant_queued) >= pol.tenant_max_queued:
            incr("svc.refused_tenant_queue")
            raise ServiceOverloadError(
                f"tenant {tenant!r} queue full "
                f"({pol.tenant_max_queued} queued jobs)",
                tenant=tenant,
                stage="svc.accept",
            )
        if len(queued) < pol.max_queue:
            return None
        # global queue full: shed the oldest job of the strictly
        # lowest-priority class if the incoming job outranks it,
        # else refuse the incoming job itself
        victim = self.shed_victim(queued)
        if victim is not None and victim.priority < incoming.priority:
            incr("svc.shed")
            return victim
        incr("svc.refused_queue_full")
        raise ServiceOverloadError(
            f"service queue full ({pol.max_queue} jobs) and no "
            f"lower-priority job to shed",
            tenant=tenant,
            stage="svc.accept",
        )

    @staticmethod
    def shed_victim(queued: Iterable[JobRecord]) -> Optional[JobRecord]:
        """The deterministic eviction choice: lowest priority first,
        oldest (smallest admission seq) among those, lexicographically
        smallest job id among full ties — recovered queues can carry
        equal (priority, seq) pairs, and the shed decision must not
        depend on dict iteration order."""
        victim = None
        for job in queued:
            if victim is None or (
                job.priority, job.seq, job.job_id
            ) < (victim.priority, victim.seq, victim.job_id):
                victim = job
        return victim

    # -- quotas + budgets ----------------------------------------------
    def quota_remaining(self, tenant: str) -> Optional[float]:
        quota = self.policy.tenant_quota_seconds
        if quota is None:
            return None
        return quota - self.tenant_used.get(tenant, 0.0)

    def charge(self, tenant: str, seconds: float) -> None:
        self.tenant_used[tenant] = (
            self.tenant_used.get(tenant, 0.0) + max(0.0, seconds)
        )
        if self.ledger is not None:
            self.ledger.save(self.tenant_used)

    def job_budget_seconds(self, tenant: str) -> Optional[float]:
        """The per-job solver budget admission derives from the
        tenant's remaining quota: under quota pressure the solver
        chain degrades (lp → heuristic) instead of the job
        being killed at the deadline."""
        remaining = self.quota_remaining(tenant)
        if remaining is None:
            return None
        return max(1.0, min(self.policy.job_timeout, remaining))

    # -- retry pacing ---------------------------------------------------
    def backoff_delay(self, attempts: int) -> float:
        """Delay before re-dispatching a job that failed ``attempts``
        times: base * 2^(attempts-1), capped."""
        pol = self.policy
        return min(
            pol.backoff_cap, pol.backoff_base * (2.0 ** max(0, attempts - 1))
        )

    def may_spawn(self, now: Optional[float] = None) -> bool:
        """Token-window respawn-rate cap over child process spawns."""
        now = time.monotonic() if now is None else now
        window = self.policy.respawn_window
        while self._spawn_times and now - self._spawn_times[0] > window:
            self._spawn_times.popleft()
        if len(self._spawn_times) >= self.policy.respawn_cap:
            incr("svc.respawn_deferred")
            return False
        return True

    def note_spawn(self, now: Optional[float] = None) -> None:
        self._spawn_times.append(
            time.monotonic() if now is None else now
        )
