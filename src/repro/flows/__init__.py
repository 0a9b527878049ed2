"""Network-flow substrate.

Three solvers, all built here rather than assumed:

* :mod:`repro.flows.maxflow` — Dinic's algorithm, used by the
  feasibility checks of Theorems 1 and 2.
* :mod:`repro.flows.mincostflow` — min-cost flow with node
  supplies/demands.  Backends: successive shortest paths with Johnson
  potentials for small instances and the network simplex of
  :mod:`repro.flows.networksimplex` — the paper's "(sequential)
  NetworkSimplex algorithm" — for the FBP models above a few hundred
  arcs; a scipy/HiGHS LP formulation as an independent cross-check and
  a max-flow heuristic as the last fallback.
* :mod:`repro.flows.transportation` — the (unbalanced Hitchcock)
  transportation problem of the Section III partitioning step, with
  forbidden (infinite-cost) arcs for movebound constraints and an
  almost-integral rounding per [Brenner 2008].
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
