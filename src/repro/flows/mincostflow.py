"""Min-cost flow with node supplies and demand capacities.

The FBP model (paper §IV.A) is a transshipment problem: cell-group
nodes supply their total cell area, region nodes can absorb up to their
capacity, transit nodes conserve flow, and all arcs are uncapacitated
with non-negative (distance) costs.  Total demand may exceed total
supply, so region demands act as capacities: row bounds in the LP, a
super sink in the heuristic.

Two backends:

``lp``
    The direct node–arc LP, handed to HiGHS' dual simplex with presolve
    off (:func:`repro.flows.highs.run_highs`, the binding the
    transportation LP uses too): one row per node — a source ships
    exactly its supply, a demand node absorbs between 0 and its
    demand, a transit node conserves — and one column per arc, with
    ``+1`` in its tail's row, ``-1`` in its head's and its capacity as
    the upper bound.  The paper computes its FBP flows with "a
    (sequential) NetworkSimplex algorithm"; any exact LP solver serves
    Theorem 3, and the basic optimum HiGHS returns is acyclic on its
    flow-carrying arcs (their columns are independent), which is what
    the §IV.B walk needs.  Presolve stays off: on the FBP models it
    costs peak memory and buys no time.
``heur``
    Feasibility-only transportation heuristic: route supplies with a
    cost-oblivious Dinic max-flow over the same network.  Suboptimal
    but strongly polynomial; the terminal fallback of the
    :class:`~repro.resilience.solver.ResilientSolver` chain.

Both detect infeasibility (Theorem 3's "no fractional placement
exists") instead of silently returning partial flow.  The LP runs
under a :class:`~repro.resilience.budget.SolverBudget` (HiGHS iteration
and wall-time limits; the process default is unlimited) and raises the
structured :class:`~repro.resilience.errors.SolverBudgetExceeded` /
:class:`~repro.resilience.errors.SolverNumericsError` instead of
stalling or returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.highs import run_highs
from repro.flows.tolerances import (
    BASE_EPS,
    FEASIBILITY_EPS,
    SIGNIFICANCE_EPS,
    magnitude,
    scale_eps,
)
from repro.obs import incr, maybe_check
from repro.resilience.budget import SolverBudget, get_default_budget
from repro.resilience.errors import ReproError, SolverNumericsError
from repro.resilience.faultinject import inject, perturbation

INF = float("inf")
# absolute epsilon for *significance* tests (is this supply nonzero?);
# numeric comparisons inside the solvers use scale-relative tolerances
# from repro.flows.tolerances instead
EPS = BASE_EPS


@dataclass(frozen=True)
class Arc:
    """A directed arc with cost and (possibly infinite) capacity."""

    tail: Hashable
    head: Hashable
    cost: float
    capacity: float = INF


@dataclass
class SolveStats:
    """Solver effort accounting attached to every flow solve.

    ``pivots`` counts HiGHS' simplex iterations (``lp``);
    ``augmenting_paths`` counts the Dinic augmentations of ``heur``.
    Each is 0 for the backend it does not apply to.
    """

    method: str = ""
    nodes: int = 0
    arcs: int = 0
    pivots: int = 0
    augmenting_paths: int = 0
    objective: float = 0.0
    routed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "nodes": self.nodes,
            "arcs": self.arcs,
            "pivots": self.pivots,
            "augmenting_paths": self.augmenting_paths,
            "objective": self.objective,
            "routed": self.routed,
        }


@dataclass
class FlowResult:
    """Outcome of a min-cost flow solve."""

    feasible: bool
    cost: float
    flows: np.ndarray  # flow per arc, in add_arc order
    arcs: List[Arc]
    routed: float  # total supply actually routed
    #: solver effort/size accounting (always present after solve())
    stats: SolveStats = field(default_factory=SolveStats)
    #: backend attempt history when solved through a ResilientSolver
    attempts: List = field(default_factory=list)

    def flow_on(self, arc_id: int) -> float:
        return float(self.flows[arc_id])

    def nonzero_arcs(
        self, tol: Optional[float] = None
    ) -> List[Tuple[int, Arc, float]]:
        """(arc_id, arc, flow) for every arc carrying significant flow.

        ``tol`` defaults to the scale-relative significance threshold
        (``SIGNIFICANCE_EPS`` scaled by the largest flow); on unit-scale
        instances that is exactly the historical absolute ``1e-7``.
        """
        if tol is None:
            mag = float(np.max(self.flows, initial=0.0))
            tol = scale_eps(mag, base=SIGNIFICANCE_EPS)
        ids = np.nonzero(self.flows > tol)[0]
        return [
            (int(i), self.arcs[i], float(self.flows[i])) for i in ids
        ]


class MinCostFlowProblem:
    """Builder + solver for a supply/demand min-cost flow instance.

    Supplies are positive ``b`` values, demands negative.  Demands are
    treated as capacities: the instance is feasible when every unit of
    supply can reach demand, even if total demand exceeds total supply.
    """

    def __init__(self) -> None:
        self._supply: Dict[Hashable, float] = {}
        self.arcs: List[Arc] = []

    # ------------------------------------------------------------------
    def add_node(self, key: Hashable, supply: float = 0.0) -> None:
        """Declare a node; positive supply, negative demand, 0 transit."""
        self._supply[key] = self._supply.get(key, 0.0) + supply

    def add_arc(
        self,
        tail: Hashable,
        head: Hashable,
        cost: float,
        capacity: float = INF,
    ) -> int:
        """Add an arc; returns its id for flow readback."""
        if cost < 0:
            raise ValueError("negative arc costs are not supported")
        if capacity < 0:
            raise ValueError("negative capacity")
        for key in (tail, head):
            if key not in self._supply:
                self._supply[key] = 0.0
        self.arcs.append(Arc(tail, head, cost, capacity))
        return len(self.arcs) - 1

    def add_arcs(
        self,
        tails: Sequence[Hashable],
        heads: Sequence[Hashable],
        costs,
        capacities=None,
    ) -> range:
        """Bulk :meth:`add_arc`; returns the ``range`` of new arc ids.

        Validation is vectorized; node registration and arc creation
        keep the exact per-arc (tail, head) order of repeated
        ``add_arc`` calls, so node numbering — and therefore solver
        behavior — is identical to the scalar path.
        """
        costs = np.asarray(costs, dtype=np.float64)
        if np.any(costs < 0):
            raise ValueError("negative arc costs are not supported")
        if capacities is None:
            caps = [INF] * len(tails)
        else:
            cap_arr = np.asarray(capacities, dtype=np.float64)
            if np.any(cap_arr < 0):
                raise ValueError("negative capacity")
            caps = cap_arr.tolist()
        start = len(self.arcs)
        supply = self._supply
        append = self.arcs.append
        for t, h, c, cp in zip(tails, heads, costs.tolist(), caps):
            if t not in supply:
                supply[t] = 0.0
            if h not in supply:
                supply[h] = 0.0
            append(Arc(t, h, c, cp))
        return range(start, len(self.arcs))

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._supply)

    def supply_of(self, key: Hashable) -> float:
        return self._supply.get(key, 0.0)

    def total_supply(self) -> float:
        return sum(s for s in self._supply.values() if s > 0)

    def total_demand(self) -> float:
        return -sum(s for s in self._supply.values() if s < 0)

    def as_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The instance as ``(supply, tails, heads, costs, caps)``.

        Nodes are numbered in declaration order (``supply[i]`` is the
        balance of the i-th node of :attr:`nodes`); the arc arrays are
        in :meth:`add_arc` order, with endpoints as node numbers.
        """
        index = {k: i for i, k in enumerate(self._supply)}
        m = len(self.arcs)
        tails = np.fromiter(
            (index[a.tail] for a in self.arcs), dtype=np.int64, count=m
        )
        heads = np.fromiter(
            (index[a.head] for a in self.arcs), dtype=np.int64, count=m
        )
        costs = np.fromiter(
            (a.cost for a in self.arcs), dtype=np.float64, count=m
        )
        caps = np.fromiter(
            (a.capacity for a in self.arcs), dtype=np.float64, count=m
        )
        supply = np.fromiter(
            self._supply.values(), dtype=np.float64, count=len(index)
        )
        return supply, tails, heads, costs, caps

    # ------------------------------------------------------------------
    def solve(
        self,
        method: str = "lp",
        budget: Optional[SolverBudget] = None,
    ) -> FlowResult:
        """Solve; ``method`` is "lp" (the HiGHS LP) or "heur" (the
        feasibility-only fallback).  ``budget`` bounds the LP's
        iterations / wall time (defaults to the process-wide budget).
        """
        if method not in ("lp", "heur"):
            raise ValueError(f"unknown method {method!r}")
        if budget is None:
            budget = get_default_budget()
        inject(f"solver.{method}")
        eps = perturbation("solver.costs")
        saved_arcs = None
        if eps:
            # deterministic numeric perturbation of arc costs (fault
            # harness): alternate -eps/0/+eps by arc index
            saved_arcs = self.arcs
            self.arcs = [
                Arc(a.tail, a.head, max(a.cost + eps * ((i % 3) - 1), 0.0),
                    a.capacity)
                for i, a in enumerate(saved_arcs)
            ]
        try:
            if method == "lp":
                result = self._solve_lp(budget)
            else:
                result = self._solve_heur()
        except ReproError as exc:
            incr("mcf.solve_errors")
            incr(f"mcf.solve_errors.{method}")
            if not exc.stage:
                exc.stage = f"solver.{method}"
            raise
        finally:
            if saved_arcs is not None:
                self.arcs = saved_arcs

        stats = result.stats
        stats.method = method
        stats.nodes = len(self._supply)
        stats.arcs = len(self.arcs)
        stats.objective = result.cost if result.feasible else INF
        stats.routed = result.routed
        incr("mcf.solves")
        incr(f"mcf.solves.{method}")
        incr("mcf.nodes", stats.nodes)
        incr("mcf.arcs", stats.arcs)
        incr("mcf.pivots", stats.pivots)
        incr("mcf.augmenting_paths", stats.augmenting_paths)
        if not result.feasible:
            incr("mcf.infeasible")
        maybe_check("flow.conservation", self, result)
        return result

    def _supply_eps(self) -> float:
        """Scale-relative threshold for classifying node balances.

        A node counts as a source/sink only when ``|b|`` clears this;
        with million-cell supplies the float error of an aggregated
        balance is itself far above the absolute 1e-9, which would
        otherwise manufacture spurious micro-sources.
        """
        return scale_eps(magnitude(self._supply.values()))

    # ------------------------------------------------------------------
    # the node–arc LP on HiGHS
    # ------------------------------------------------------------------
    def _solve_lp(self, budget: Optional[SolverBudget] = None) -> FlowResult:
        supply, tails, heads, costs, caps = self.as_arrays()
        eps_supply = self._supply_eps()
        source = supply > eps_supply
        # one row per node: a source ships exactly b, a demand node
        # absorbs up to -b, a transit node conserves
        row_upper = np.where(source, supply, 0.0)
        row_lower = np.where(source | (supply < -eps_supply), supply, 0.0)
        # one column per arc, +1 in its tail's row and -1 in its head's;
        # a loop moves nothing at cost >= 0, so it carries no flow and
        # gets no column (HiGHS rejects a column naming a row twice)
        cols = np.nonzero(tails != heads)[0]
        m = len(tails)
        flows = np.zeros(m)
        stats = SolveStats()
        if len(cols):
            lp = run_highs(
                costs[cols],
                caps[cols],
                row_lower,
                row_upper,
                # (arrays, not lists: at a 50k-cell level the index list
                # alone would be ~190k Python ints at the peak)
                np.arange(0, 2 * len(cols) + 1, 2),
                np.column_stack([tails[cols], heads[cols]]).ravel(),
                np.tile([1.0, -1.0], len(cols)),
                presolve=False,
                budget=budget,
                what="MinCostFlow LP",
            )
            stats.pivots = lp.iterations
            feasible = lp.feasible
            if feasible:
                flows[cols] = lp.x
        else:
            feasible = not source.any()
        if not feasible:
            return FlowResult(
                False, INF, np.zeros(m), list(self.arcs), 0.0, stats
            )
        return FlowResult(
            True,
            float(np.dot(flows, costs)),
            flows,
            list(self.arcs),
            float(supply[source].sum()),
            stats,
        )

    # ------------------------------------------------------------------
    # transportation heuristic: feasibility-only fallback
    # ------------------------------------------------------------------
    def _solve_heur(self) -> FlowResult:
        """Route a *feasible* (not optimal) flow with Dinic max-flow.

        Cost-oblivious: the objective is whatever the max-flow routing
        happens to cost.  Strongly polynomial, so it terminates even on
        instances that stall the cost-driven solvers — the terminal
        fallback of the resilience chain.  Arc insertion order is
        deterministic, so repeated runs return identical flows.
        """
        from repro.flows.maxflow import Dinic

        dinic = Dinic()
        arc_ids = [
            dinic.add_edge(arc.tail, arc.head, arc.capacity)
            for arc in self.arcs
        ]
        eps_supply = self._supply_eps()
        total_supply = 0.0
        for key, b in self._supply.items():
            if b > eps_supply:
                dinic.add_edge(("__source__",), key, b)
                total_supply += b
            elif b < -eps_supply:
                dinic.add_edge(key, ("__sink__",), -b)
        routed = (
            dinic.max_flow(("__source__",), ("__sink__",))
            if total_supply > 0
            else 0.0
        )
        flows = np.array(
            [dinic.flow_on(eid) for eid in arc_ids], dtype=np.float64
        )
        if not np.all(np.isfinite(flows)):
            raise SolverNumericsError(
                "heuristic produced non-finite flow", solver="heur"
            )
        total_cost = float(
            sum(f * a.cost for f, a in zip(flows, self.arcs))
        )
        feasible = routed >= total_supply - scale_eps(
            total_supply, base=FEASIBILITY_EPS
        )
        return FlowResult(
            feasible,
            total_cost if feasible else INF,
            flows,
            list(self.arcs),
            routed,
            SolveStats(augmenting_paths=dinic.stats.augmenting_paths),
        )


def solve_min_cost_flow(
    supplies: Dict[Hashable, float],
    arcs: Sequence[Arc],
    method: str = "lp",
) -> FlowResult:
    """One-shot convenience wrapper around :class:`MinCostFlowProblem`."""
    problem = MinCostFlowProblem()
    for key, b in supplies.items():
        problem.add_node(key, b)
    for arc in arcs:
        problem.add_arc(arc.tail, arc.head, arc.cost, arc.capacity)
    return problem.solve(method)
