"""ResilientSolver: budgets + a fallback chain over the MCF backends.

The paper's pipeline solves one global MinCostFlow per level; a solver
stall there used to hang or crash the whole placement.  The wrapper
below drives a *fallback chain*

    HiGHS LP  ->  transportation heuristic

where each attempt runs under the configured
:class:`~repro.resilience.budget.SolverBudget` and a failure
(:class:`SolverBudgetExceeded`, :class:`SolverNumericsError`) falls
through to the next backend.  The terminal "heur" backend ignores
optimality and just routes a feasible flow with Dinic max-flow over the
cost network (a transportation-style feasibility heuristic) — it is
strongly polynomial, so the chain always terminates with either a flow
or a classified error.

Every attempt is recorded on the returned
:class:`~repro.flows.mincostflow.FlowResult` (``result.attempts``) and
in the obs counters (``resilience.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.obs import incr
from repro.resilience.budget import SolverBudget, get_default_budget
from repro.resilience.errors import (
    ReproError,
    SolverBudgetExceeded,
    SolverNumericsError,
)

__all__ = ["ResilientSolver", "SolveAttempt", "DEFAULT_CHAIN"]

#: Fallback order used when the caller does not pin a backend: the
#: exact LP, then the heuristic, which only runs *after* a failure.
DEFAULT_CHAIN = ("lp", "heur")


@dataclass
class SolveAttempt:
    """Record of one backend attempt inside the chain."""

    method: str
    ok: bool
    error: str = ""
    error_type: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "ok": self.ok,
            "error": self.error,
            "error_type": self.error_type,
        }


@dataclass
class ResilientSolver:
    """Budgeted, falling-back driver for a MinCostFlowProblem.

    ``chain`` is the backend order.  The heuristic at its end runs
    *only when a budget/numerics failure occurs* — in normal operation
    the LP's result is returned untouched.
    """

    chain: Sequence[str] = DEFAULT_CHAIN
    budget: Optional[SolverBudget] = None
    attempts: List[SolveAttempt] = field(default_factory=list)

    @classmethod
    def for_method(
        cls,
        method: str = "lp",
        budget: Optional[SolverBudget] = None,
    ) -> "ResilientSolver":
        """Chain for a user-requested method: the LP with the
        heuristic behind it, or the heuristic alone."""
        if method == "heur":
            return cls(chain=("heur",), budget=budget)
        return cls(chain=(method, "heur"), budget=budget)

    def solve(self, problem):
        """Run the chain; return the first successful FlowResult.

        Raises the *last* failure when every backend fails, annotated
        with the full attempt history.
        """
        budget = self.budget if self.budget is not None else get_default_budget()
        chain = self.chain
        self.attempts = []
        last_exc: Optional[ReproError] = None
        for pos, method in enumerate(chain):
            incr("resilience.solve_attempts")
            try:
                result = problem.solve(method, budget=budget)
            except (SolverBudgetExceeded, SolverNumericsError) as exc:
                self.attempts.append(
                    SolveAttempt(
                        method,
                        False,
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
                )
                incr(f"resilience.attempt.{method}.failed")
                if pos + 1 < len(chain):
                    incr("resilience.fallbacks")
                last_exc = exc
                continue
            self.attempts.append(SolveAttempt(method, True))
            incr(f"resilience.attempt.{method}.ok")
            if len(self.attempts) > 1:
                incr("resilience.recovered")
            result.attempts = list(self.attempts)
            return result
        assert last_exc is not None
        last_exc.context["attempts"] = [a.to_dict() for a in self.attempts]
        last_exc.context["chain"] = list(chain)
        raise last_exc
