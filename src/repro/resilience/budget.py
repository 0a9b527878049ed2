"""Solver budgets: iteration and wall-time limits.

A :class:`SolverBudget` is immutable configuration.  The flow LPs hand
it to HiGHS as its simplex iteration and time limits
(:func:`repro.flows.highs.run_highs`), which raises
:class:`~repro.resilience.errors.SolverBudgetExceeded` when HiGHS stops
on one; that guarantees termination even on degenerate or
fault-injected instances.

A process-wide default budget backs all solves that are not handed an
explicit budget.  It is initialised from the environment
(``REPRO_MAX_SOLVER_ITERS`` / ``REPRO_SOLVER_TIMEOUT``) and settable by
the CLI flags ``--max-solver-iters`` / ``--solver-timeout``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SolverBudget",
    "get_default_budget",
    "set_default_budget",
    "budget_from_env",
]


@dataclass(frozen=True)
class SolverBudget:
    """Limits applied to a single solver invocation.

    ``None`` means unlimited for either dimension.
    """

    max_iters: Optional[int] = None
    max_seconds: Optional[float] = None


def budget_from_env() -> SolverBudget:
    """Budget configured by the environment (unlimited when unset)."""
    iters = os.environ.get("REPRO_MAX_SOLVER_ITERS")
    seconds = os.environ.get("REPRO_SOLVER_TIMEOUT")
    return SolverBudget(
        max_iters=int(iters) if iters else None,
        max_seconds=float(seconds) if seconds else None,
    )


_default_budget: Optional[SolverBudget] = None


def get_default_budget() -> SolverBudget:
    """The process-wide budget applied when a solve has no explicit one."""
    global _default_budget
    if _default_budget is None:
        _default_budget = budget_from_env()
    return _default_budget


def set_default_budget(budget: Optional[SolverBudget]) -> None:
    """Override the process-wide default (``None`` re-reads the env)."""
    global _default_budget
    _default_budget = budget
