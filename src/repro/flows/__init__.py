"""Network-flow substrate.

Three solvers:

* :mod:`repro.flows.maxflow` — Dinic's algorithm, used by the
  feasibility checks of Theorems 1 and 2.
* :mod:`repro.flows.mincostflow` — min-cost flow with node
  supplies/demands: the §IV.A MinCostFlow as a node–arc LP on HiGHS'
  dual simplex (the paper uses a "(sequential) NetworkSimplex
  algorithm"), with a max-flow heuristic as the last fallback.
* :mod:`repro.flows.transportation` — the (unbalanced Hitchcock)
  transportation problem of the Section III partitioning step, with
  forbidden (infinite-cost) arcs for movebound constraints and an
  almost-integral rounding per [Brenner 2008].

Both LPs reach HiGHS through :func:`repro.flows.highs.run_highs`.
"""

from repro.flows.maxflow import Dinic, MaxFlowStats, max_flow_value
from repro.flows.mincostflow import (
    Arc,
    FlowResult,
    MinCostFlowProblem,
    SolveStats,
    solve_min_cost_flow,
)
from repro.flows.transportation import (
    RELAX_CHAIN_PARTITION,
    RELAX_CHAIN_WINDOW,
    TransportResult,
    TransportStats,
    round_almost_integral,
    solve_transportation,
    solve_transportation_with_relaxation,
)

__all__ = [
    "Dinic",
    "MaxFlowStats",
    "max_flow_value",
    "Arc",
    "FlowResult",
    "MinCostFlowProblem",
    "SolveStats",
    "solve_min_cost_flow",
    "TransportResult",
    "TransportStats",
    "solve_transportation",
    "solve_transportation_with_relaxation",
    "RELAX_CHAIN_WINDOW",
    "RELAX_CHAIN_PARTITION",
    "round_almost_integral",
]
