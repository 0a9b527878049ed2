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

The instance is stored as arrays only: a balance per node and tail,
head, cost and capacity per arc (:class:`MinCostFlowProblem`).  Node
keys and :class:`Arc` records exist only in the read-only ``nodes`` /
``arcs`` views, built when they are read, so a 100k-arc FBP model
costs a few megabytes rather than one Python object per arc.

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
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.highs import run_highs
from repro.flows.tolerances import (
    BASE_EPS,
    FEASIBILITY_EPS,
    SIGNIFICANCE_EPS,
    scale_eps,
)
from repro.obs import incr, maybe_check
from repro.records import Records
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
    flows: np.ndarray  # flow per arc, in arc order
    #: the solved problem's arcs (its :attr:`MinCostFlowProblem.arcs`
    #: view: records built on demand, none kept)
    arcs: Sequence[Arc]
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


class _Column:
    """A growing 1-D array: values are appended one at a time or a
    block at a time, and read as one contiguous array."""

    __slots__ = ("dtype", "_blocks", "_items", "_size")

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self._blocks: List[np.ndarray] = []
        self._items: list = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value) -> None:
        self._items.append(value)
        self._size += 1

    def extend(self, values) -> None:
        block = np.asarray(values, dtype=self.dtype)
        self._seal()
        self._blocks.append(block)
        self._size += len(block)

    def _seal(self) -> None:
        if self._items:
            self._blocks.append(np.array(self._items, dtype=self.dtype))
            self._items = []

    def array(self) -> np.ndarray:
        self._seal()
        if len(self._blocks) != 1:
            self._blocks = [
                np.concatenate(self._blocks)
                if self._blocks
                else np.zeros(0, dtype=self.dtype)
            ]
        return self._blocks[0]


class MinCostFlowProblem:
    """Builder + solver for a supply/demand min-cost flow instance.

    Supplies are positive ``b`` values, demands negative.  Demands are
    treated as capacities: the instance is feasible when every unit of
    supply can reach demand, even if total demand exceeds total supply.

    The instance is kept as columns only: one balance per node
    (:attr:`supply`) and ``tails`` / ``heads`` (node numbers),
    ``costs`` and ``capacities`` per arc.  Two front ends fill them:

    * arrays -- :meth:`add_nodes` and :meth:`add_arcs` append blocks of
      numbered nodes and arcs (the FBP model; its ``node_keys``
      callback names the nodes for the views);
    * keys -- :meth:`add_node` and :meth:`add_arc` number hashable node
      keys in order of first appearance, one node or arc per call, for
      hand-built instances.

    :attr:`nodes` and :attr:`arcs` are read-only views that build each
    key or :class:`Arc` when it is read; nothing is kept per arc.
    """

    def __init__(
        self, node_keys: Optional[Callable[[np.ndarray], list]] = None
    ) -> None:
        #: ``node_keys(nodes)`` gives the keys of the numbered nodes
        #: ``nodes`` (an index array), for the views
        self._node_keys = node_keys
        self._supply = _Column(np.float64)
        self._tails = _Column(np.int32)
        self._heads = _Column(np.int32)
        self._costs = _Column(np.float64)
        self._caps = _Column(np.float64)
        #: the keyed front end's numbering: key -> node number, and back
        self._index: Dict[Hashable, int] = {}
        self._names: Dict[int, Hashable] = {}

    # ------------------------------------------------------------------
    # the array front end
    # ------------------------------------------------------------------
    def add_nodes(self, supply) -> range:
        """Append nodes with the given balances; returns their numbers."""
        start = len(self._supply)
        self._supply.extend(supply)
        return range(start, len(self._supply))

    def add_arcs(self, tails, heads, costs, capacities=None) -> range:
        """Append arcs between node numbers; returns their ids.

        ``capacities`` defaults to uncapacitated."""
        costs = np.asarray(costs, dtype=np.float64)
        if np.any(costs < 0):
            raise ValueError("negative arc costs are not supported")
        if capacities is None:
            capacities = np.full(len(costs), INF)
        elif np.any(np.asarray(capacities) < 0):
            raise ValueError("negative capacity")
        start = len(self._costs)
        self._tails.extend(tails)
        self._heads.extend(heads)
        self._costs.extend(costs)
        self._caps.extend(capacities)
        return range(start, len(self._costs))

    # ------------------------------------------------------------------
    # the keyed front end
    # ------------------------------------------------------------------
    def _node(self, key: Hashable, supply: float = 0.0) -> int:
        node = self._index.get(key)
        if node is None:
            node = self._index[key] = len(self._supply)
            self._names[node] = key
            self._supply.append(0.0 + supply)
        return node

    def add_node(self, key: Hashable, supply: float = 0.0) -> None:
        """Declare a node; positive supply, negative demand, 0 transit."""
        if key in self._index:
            self.supply[self._index[key]] += supply
        else:
            self._node(key, supply)

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
        self._tails.append(self._node(tail))
        self._heads.append(self._node(head))
        self._costs.append(cost)
        self._caps.append(capacity)
        return len(self._costs) - 1

    # ------------------------------------------------------------------
    # the columns and their views
    # ------------------------------------------------------------------
    @property
    def supply(self) -> np.ndarray:
        """Balance per node, in node order."""
        return self._supply.array()

    @property
    def tails(self) -> np.ndarray:
        """Tail node number per arc, in arc order."""
        return self._tails.array()

    @property
    def heads(self) -> np.ndarray:
        """Head node number per arc, in arc order."""
        return self._heads.array()

    @property
    def costs(self) -> np.ndarray:
        return self._costs.array()

    @property
    def capacities(self) -> np.ndarray:
        return self._caps.array()

    @property
    def num_nodes(self) -> int:
        return len(self._supply)

    @property
    def num_arcs(self) -> int:
        return len(self._costs)

    def keys_of(self, nodes: np.ndarray) -> list:
        """The keys of the numbered ``nodes`` (a node that no key names
        reads as its number)."""
        if self._node_keys is not None:
            return self._node_keys(nodes)
        names = self._names
        return [names.get(i, i) for i in nodes.tolist()]

    @property
    def nodes(self) -> Records:
        """The node keys in node order."""
        return Records(
            lambda: self.num_nodes,
            lambda a, b: iter(self.keys_of(np.arange(a, b))),
        )

    def _arc_rows(self, a: int, b: int):
        tails = self.keys_of(self.tails[a:b])
        heads = self.keys_of(self.heads[a:b])
        costs = self.costs[a:b].tolist()
        caps = self.capacities[a:b].tolist()
        return map(Arc, tails, heads, costs, caps)

    @property
    def arcs(self) -> Records:
        """The arcs as :class:`Arc` records between node keys."""
        return Records(lambda: self.num_arcs, self._arc_rows)

    def supply_of(self, key: Hashable) -> float:
        node = self._index.get(key)
        if node is None and self._node_keys is not None:
            node = next(
                (i for i, k in enumerate(self.nodes) if k == key), None
            )
        return 0.0 if node is None else float(self.supply[node])

    def total_supply(self) -> float:
        supply = self.supply
        return sum(supply[supply > 0].tolist())

    def total_demand(self) -> float:
        supply = self.supply
        return -sum(supply[supply < 0].tolist())

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
        costs = self.costs
        eps = perturbation("solver.costs")
        if eps:
            # deterministic numeric perturbation of arc costs (fault
            # harness): alternate -eps/0/+eps by arc index
            shift = eps * (np.arange(len(costs)) % 3 - 1)
            costs = np.maximum(costs + shift, 0.0)
        try:
            if method == "lp":
                result = self._solve_lp(costs, budget)
            else:
                result = self._solve_heur(costs)
        except ReproError as exc:
            incr("mcf.solve_errors")
            incr(f"mcf.solve_errors.{method}")
            if not exc.stage:
                exc.stage = f"solver.{method}"
            raise

        stats = result.stats
        stats.method = method
        stats.nodes = self.num_nodes
        stats.arcs = self.num_arcs
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
        size = np.abs(self.supply)
        return scale_eps(float(size[np.isfinite(size)].max(initial=0.0)))

    # ------------------------------------------------------------------
    # the node–arc LP on HiGHS
    # ------------------------------------------------------------------
    def _solve_lp(
        self, costs: np.ndarray, budget: Optional[SolverBudget] = None
    ) -> FlowResult:
        supply, tails, heads = self.supply, self.tails, self.heads
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
                self.capacities[cols],
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
            return FlowResult(False, INF, np.zeros(m), self.arcs, 0.0, stats)
        return FlowResult(
            True,
            float(np.dot(flows, costs)),
            flows,
            self.arcs,
            float(supply[source].sum()),
            stats,
        )

    # ------------------------------------------------------------------
    # transportation heuristic: feasibility-only fallback
    # ------------------------------------------------------------------
    def _solve_heur(self, costs: np.ndarray) -> FlowResult:
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
            dinic.add_edge(t, h, u)
            for t, h, u in zip(
                self.tails.tolist(),
                self.heads.tolist(),
                self.capacities.tolist(),
            )
        ]
        eps_supply = self._supply_eps()
        total_supply = 0.0
        for node, b in enumerate(self.supply.tolist()):
            if b > eps_supply:
                dinic.add_edge(("__source__",), node, b)
                total_supply += b
            elif b < -eps_supply:
                dinic.add_edge(node, ("__sink__",), -b)
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
        total_cost = float(sum(f * c for f, c in zip(flows, costs.tolist())))
        feasible = routed >= total_supply - scale_eps(
            total_supply, base=FEASIBILITY_EPS
        )
        return FlowResult(
            feasible,
            total_cost if feasible else INF,
            flows,
            self.arcs,
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
