"""Deterministic fault injection for resilience testing.

A *fault plan* maps instrumented sites to fault kinds.  The pipeline
calls :func:`inject` at each site; when the plan has an armed rule for
that site the call raises the mapped structured exception (or, for
``perturb`` rules, :func:`perturbation` returns a nonzero epsilon the
caller applies).  With no plan installed the hooks are a dict lookup —
cheap enough to leave in production code paths.

Plan syntax (env ``REPRO_FAULT_PLAN`` or :func:`install_fault_plan`)::

    site=kind[:arg][@n|#k] [; site=kind...]

* ``site`` — an instrumented point, e.g. ``solver.lp``,
  ``solver.heur``, ``solver.costs`` (``perturb`` only),
  ``stage.feasibility``,
  ``stage.fbp.realize``, ``stage.legalize``, ``stage.place.level``,
  ``ckpt.write``, ``ckpt.corrupt``, ``worker.kill``, ``worker.stall``,
  the service-layer sites ``svc.accept``, ``svc.dispatch``,
  ``svc.child.kill``, ``svc.child.stall``, ``svc.result.corrupt``
  (see docs/service.md — the ``svc.child.*``/``svc.result.*`` sites
  fire inside the job child process, per attempt), and the ECO
  transaction sites ``eco.validate``, ``eco.apply``, ``eco.commit``,
  ``eco.commit.entry``, ``eco.rollback`` (see docs/incremental.md —
  ``eco.commit.entry`` fires between the journal's snapshot and entry
  writes; ``corrupt`` at ``eco.commit`` flips journal-entry bytes
  after checksumming).
* ``kind`` — what to do when the site is hit:

  - ``budget``   raise :class:`SolverBudgetExceeded` (a solver stall,
    as if the iteration budget had run out),
  - ``numerics`` raise :class:`SolverNumericsError`,
  - ``stage``    raise :class:`PipelineStageError`,
  - ``infeasible`` raise :class:`InfeasibleInputError`,
  - ``perturb:EPS`` do not raise; make :func:`perturbation` return
    ``EPS`` at this site (numeric perturbation of costs),
  - ``kill``     hard-exit the process via ``os._exit(1)`` — no
    cleanup, no atexit, equivalent to ``SIGKILL`` landing at the site
    (crash-safety tests of the durable run state and worker pool),
  - ``stall:SECONDS`` sleep ``SECONDS`` at the site (a hung worker or
    a wedged I/O path; deadline supervision must recover),
  - ``corrupt``  do not raise; make :func:`corruption` return True at
    this site (the writer flips bytes with
    :func:`repro.runstate.store.flip_bytes`, exercising checksum
    detection and quarantine on the next read).

* ``@n`` — fire only on the n-th hit of the site (1-based);
  ``#k`` — fire on the first k hits, then disarm.  Default: every hit.

Hits are counted per process, deterministically — the same run hits the
same sites in the same order, so a plan reproduces exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.resilience.errors import (
    InfeasibleInputError,
    PipelineStageError,
    SolverBudgetExceeded,
    SolverNumericsError,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "inject",
    "perturbation",
    "corruption",
    "install_fault_plan",
    "reset_faults",
    "active_plan",
    "ENV_VAR",
]

ENV_VAR = "REPRO_FAULT_PLAN"

_KINDS = (
    "budget", "numerics", "stage", "infeasible", "perturb",
    "kill", "stall", "corrupt",
)

#: kinds that never raise from :func:`inject` — they surface through a
#: dedicated query helper instead
_QUERY_KINDS = ("perturb", "corrupt")


@dataclass
class FaultRule:
    """One ``site=kind`` entry of a fault plan."""

    site: str
    kind: str
    arg: float = 0.0
    only_hit: Optional[int] = None  # @n — fire on the n-th hit only
    max_fires: Optional[int] = None  # #k — fire on the first k hits
    hits: int = 0
    fires: int = 0

    def should_fire(self) -> bool:
        self.hits += 1
        if self.only_hit is not None and self.hits != self.only_hit:
            return False
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        self.fires += 1
        return True

    def raise_fault(self) -> None:
        """Raise the structured exception this rule maps to — or, for
        the process-level kinds, kill/stall the process right here."""
        site, msg = self.site, f"injected fault at {self.site}"
        solver = site.split(".", 1)[1] if site.startswith("solver.") else ""
        if self.kind == "kill":
            # SIGKILL semantics: no cleanup, no buffered-I/O flush
            os._exit(1)
        if self.kind == "stall":
            import time

            time.sleep(self.arg)
            return
        if self.kind == "budget":
            raise SolverBudgetExceeded(
                msg, solver=solver, stage=site,
                context={"injected": True},
            )
        if self.kind == "numerics":
            raise SolverNumericsError(
                msg, solver=solver, stage=site,
                context={"injected": True},
            )
        if self.kind == "infeasible":
            raise InfeasibleInputError(
                msg, stage=site, context={"injected": True}
            )
        raise PipelineStageError(
            msg, stage=site, context={"injected": True}
        )


@dataclass
class FaultPlan:
    """A parsed, stateful fault plan."""

    rules: Dict[str, FaultRule] = field(default_factory=dict)
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        plan = cls(spec=spec)
        for entry in spec.replace(",", ";").split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ValueError(
                    f"fault plan entry {entry!r} is not site=kind"
                )
            site, kind = entry.split("=", 1)
            site, kind = site.strip(), kind.strip()
            only_hit = max_fires = None
            if "@" in kind:
                kind, n = kind.rsplit("@", 1)
                only_hit = int(n)
            elif "#" in kind:
                kind, k = kind.rsplit("#", 1)
                max_fires = int(k)
            arg = 0.0
            if ":" in kind:
                kind, raw = kind.split(":", 1)
                arg = float(raw)
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} (choose from {_KINDS})"
                )
            plan.rules[site] = FaultRule(
                site, kind, arg, only_hit, max_fires
            )
        return plan

    def fire(self, site: str) -> Optional[FaultRule]:
        rule = self.rules.get(site)
        if rule is None or not rule.should_fire():
            return None
        return rule


#: None = not yet loaded; an empty FaultPlan = loaded, nothing to do.
_plan: Optional[FaultPlan] = None


def active_plan() -> FaultPlan:
    """The currently installed plan (loads the env plan on first use)."""
    global _plan
    if _plan is None:
        spec = os.environ.get(ENV_VAR, "")
        _plan = FaultPlan.parse(spec) if spec else FaultPlan()
    return _plan


def install_fault_plan(spec: str) -> FaultPlan:
    """Install a plan programmatically (tests, ``--fault-plan``)."""
    global _plan
    _plan = FaultPlan.parse(spec)
    return _plan


def reset_faults() -> None:
    """Drop the installed plan; the env is re-read on next use."""
    global _plan
    _plan = None


def inject(site: str) -> None:
    """Fault hook: raise the planned fault for ``site``, if any.

    ``perturb``/``corrupt`` rules never raise here — they surface
    through :func:`perturbation` / :func:`corruption` instead.
    ``kill`` rules hard-exit the process; ``stall`` rules sleep and
    return.
    """
    plan = active_plan()
    if not plan.rules:
        return
    rule = plan.fire(site)
    if rule is None or rule.kind in _QUERY_KINDS:
        return
    from repro.obs import incr

    incr("faults.injected")
    incr(f"faults.{site}")
    rule.raise_fault()


def perturbation(site: str) -> float:
    """Epsilon for a planned numeric perturbation at ``site`` (0 = none)."""
    plan = active_plan()
    if not plan.rules:
        return 0.0
    rule = plan.fire(site)
    if rule is None or rule.kind != "perturb":
        return 0.0
    from repro.obs import incr

    incr("faults.injected")
    incr(f"faults.{site}")
    return rule.arg


def corruption(site: str) -> bool:
    """True when a planned ``corrupt`` rule fires at ``site``.

    The caller (the writer at ``ckpt.corrupt``, ``eco.commit`` or
    ``svc.result.corrupt``) is responsible for actually mangling the
    bytes it is about to persist.
    """
    plan = active_plan()
    if not plan.rules:
        return False
    rule = plan.fire(site)
    if rule is None or rule.kind != "corrupt":
        return False
    from repro.obs import incr

    incr("faults.injected")
    incr(f"faults.{site}")
    return True
