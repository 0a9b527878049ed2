"""HiGHS, as scipy ships it: the one LP solver behind both flow LPs.

The transportation LP of §III (:mod:`repro.flows.transportation`) and
the node–arc LP of the §IV.A MinCostFlow
(:mod:`repro.flows.mincostflow`) both go to HiGHS' dual simplex through
:func:`run_highs`.  It owns what the two share: the options, the
:class:`~repro.resilience.budget.SolverBudget` limits, the mapping from
HiGHS' model status to an infeasible verdict,
:class:`~repro.resilience.errors.SolverBudgetExceeded` or
:class:`~repro.resilience.errors.SolverNumericsError`, and scipy's
acceptance check on an answer HiGHS calls optimal.

The bindings (``scipy.optimize._highspy._core``) are private to scipy,
and :func:`_highs` loads them from their file
(:func:`repro.scipy_ext.load_extension`).  Going to them directly
rather than through ``linprog`` skips input cleaning and result
assembly that cost more than HiGHS' run on the small window LPs, and
loading the one extension by file skips importing the rest of
``scipy.optimize``, which nothing else in a ``place`` needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.resilience.budget import SolverBudget
from repro.resilience.errors import SolverBudgetExceeded, SolverNumericsError
from repro.scipy_ext import load_extension

#: scipy's acceptance tolerance for a solution HiGHS calls optimal
#: (``sqrt(tol) * 10`` with ``linprog``'s default ``tol=1e-9``)
ACCEPT_TOL = float(np.sqrt(1e-9) * 10)


#: the canonical module name of scipy's HiGHS bindings
_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs():
    """scipy's HiGHS bindings, loaded on first use so that a run the
    transportation front end answers entirely never loads them."""
    return load_extension(
        _CORE, "the flow LPs run HiGHS through scipy's bundled bindings"
    )


@dataclass
class LPSolution:
    """What :func:`run_highs` returns: ``feasible`` is False on an
    infeasible model, whose ``x`` / ``row_dual`` are ``None``;
    ``iterations`` counts HiGHS' simplex iterations."""

    feasible: bool
    iterations: int
    x: Optional[np.ndarray] = None
    objective: float = float("inf")
    row_dual: Optional[np.ndarray] = None


def run_highs(
    col_cost: np.ndarray,
    col_upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    start: Sequence[int],
    index: Sequence[int],
    value: np.ndarray,
    presolve: bool,
    budget: Optional[SolverBudget],
    what: str,
) -> LPSolution:
    """Solve ``min col_cost @ x`` s.t. ``row_lower <= A x <= row_upper``,
    ``0 <= x <= col_upper`` with HiGHS' dual simplex; ``A`` is given
    column-wise (``start`` / ``index`` / ``value``, CSC).

    ``what`` names the LP in error messages.  An exhausted ``budget``
    raises :class:`SolverBudgetExceeded`, any other failure to reach an
    accepted optimum :class:`SolverNumericsError`; both carry
    ``solver="lp"``.
    """
    h = _highs()
    n_cols, n_rows = len(col_cost), len(row_lower)
    lp = h.HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = col_cost
    lp.col_lower_ = np.zeros(n_cols)
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    matrix = lp.a_matrix_
    matrix.format_ = h.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value

    options = h.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = (
        h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    if budget is not None and budget.max_iters is not None:
        options.simplex_iteration_limit = budget.max_iters
        options.ipm_iteration_limit = budget.max_iters
    if budget is not None and budget.max_seconds is not None:
        options.time_limit = budget.max_seconds

    highs = h._Highs()
    if highs.passOptions(options) == h.HighsStatus.kError:
        raise SolverNumericsError(
            f"{what}: HiGHS refused the options", solver="lp"
        )
    # a model HiGHS cannot load reads kModelError, and a failed run
    # reports neither iterations nor a solution, as in ``linprog``
    status, iterations, solved = h.HighsModelStatus.kModelError, 0, False
    loaded = highs.passModel(lp) != h.HighsStatus.kError
    # HiGHS holds its own copy of the model now: drop this one, which
    # would otherwise stay alive through the solve
    del lp, matrix
    if loaded:
        ran = highs.run() != h.HighsStatus.kError
        status = highs.getModelStatus()
        info = highs.getInfo()
        if ran:
            iterations = (
                info.simplex_iteration_count or info.ipm_iteration_count
            )
            solved = status == h.HighsModelStatus.kOptimal
    if status in (
        h.HighsModelStatus.kTimeLimit,
        h.HighsModelStatus.kIterationLimit,
    ):
        raise SolverBudgetExceeded(
            f"{what} hit its budget: {highs.modelStatusToString(status)}",
            solver="lp",
            iterations=iterations,
        )
    if status in (
        h.HighsModelStatus.kInfeasible,
        h.HighsModelStatus.kModelError,
    ):
        return LPSolution(False, iterations)
    if not solved:
        raise SolverNumericsError(
            f"{what} failed: {highs.modelStatusToString(status)}",
            solver="lp",
        )

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    row_value = np.array(solution.row_value)
    # scipy's acceptance check on an "optimal" answer: no NaN, every
    # variable and every row within its bounds, all within tolerance
    above = row_upper - row_value
    below = row_value - row_lower
    accepted = not (
        np.isnan(x).any()
        or np.isnan(objective)
        or np.isnan(above).any()
        or np.isnan(below).any()
    ) and (
        np.all(x >= -ACCEPT_TOL)
        and np.all(x <= col_upper + ACCEPT_TOL)
        and np.all(above >= -ACCEPT_TOL)
        and np.all(below >= -ACCEPT_TOL)
    )
    if not accepted:
        raise SolverNumericsError(
            f"{what} failed: the optimal solution HiGHS returned "
            f"violates the constraints by more than {ACCEPT_TOL:.2e}",
            solver="lp",
        )
    return LPSolution(
        True,
        iterations,
        x,
        float(objective),
        np.array(solution.row_dual, dtype=np.float64),
    )
