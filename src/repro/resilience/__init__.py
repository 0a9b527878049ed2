"""Resilience layer: classified failures, solver budgets and
fallbacks, infeasibility diagnosis, fault injection.

Five pieces (see docs/resilience.md):

* :mod:`repro.resilience.errors` — the :class:`ReproError` taxonomy
  every pipeline failure is classified under, with CLI exit codes;
* :mod:`repro.resilience.budget` — iteration/wall-time
  :class:`SolverBudget` limits the flow LPs hand to HiGHS;
* :mod:`repro.resilience.solver` — :class:`ResilientSolver`, the
  HiGHS LP -> transportation-heuristic fallback chain;
* :mod:`repro.resilience.diagnose` / :mod:`repro.resilience.validate`
  — min-cut infeasibility diagnosis (condition (1) witness), graceful
  capacity relaxation, and up-front input validation;
* :mod:`repro.resilience.faultinject` — the deterministic
  fault-injection harness (``REPRO_FAULT_PLAN``).
"""

from repro.resilience.budget import (
    SolverBudget,
    budget_from_env,
    get_default_budget,
    set_default_budget,
)
from repro.resilience.diagnose import (
    InfeasibilityDiagnosis,
    diagnose_infeasibility,
    raise_infeasible,
    relax_to_feasible,
)
from repro.resilience.errors import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_SERVICE,
    DeltaValidationError,
    InfeasibleInputError,
    JobCancelledError,
    PipelineStageError,
    ReproError,
    ServiceOverloadError,
    SolverBudgetExceeded,
    SolverNumericsError,
)
from repro.resilience.faultinject import (
    FaultPlan,
    FaultRule,
    active_plan,
    corruption,
    inject,
    install_fault_plan,
    perturbation,
    reset_faults,
)
from repro.resilience.solver import DEFAULT_CHAIN, ResilientSolver, SolveAttempt
from repro.resilience.validate import instance_problems, validate_instance

__all__ = [
    # errors
    "ReproError",
    "InfeasibleInputError",
    "DeltaValidationError",
    "SolverBudgetExceeded",
    "SolverNumericsError",
    "PipelineStageError",
    "ServiceOverloadError",
    "JobCancelledError",
    "EXIT_INFEASIBLE",
    "EXIT_BUDGET",
    "EXIT_INTERNAL",
    "EXIT_SERVICE",
    # budgets
    "SolverBudget",
    "budget_from_env",
    "get_default_budget",
    "set_default_budget",
    # solver chain
    "ResilientSolver",
    "SolveAttempt",
    "DEFAULT_CHAIN",
    # diagnosis + validation
    "InfeasibilityDiagnosis",
    "diagnose_infeasibility",
    "relax_to_feasible",
    "raise_infeasible",
    "validate_instance",
    "instance_problems",
    # fault injection
    "FaultPlan",
    "FaultRule",
    "inject",
    "perturbation",
    "corruption",
    "install_fault_plan",
    "reset_faults",
    "active_plan",
]
