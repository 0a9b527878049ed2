"""Min-cost flow with node supplies and demand capacities.

The FBP model (paper §IV.A) is a transshipment problem: cell-group
nodes supply their total cell area, region nodes can absorb up to their
capacity, transit nodes conserve flow, and all arcs are uncapacitated
with non-negative (distance) costs.  Total demand may exceed total
supply, so region demands act as capacities — implemented via the
standard super-source/super-sink transformation.

Four backends:

``ssp``
    Successive shortest paths with Johnson potentials (Dijkstra) on
    arrays (:func:`solve_ssp_arrays`).  Exact; the ``auto`` pick up to
    500 arcs.
``ns``
    Primal network simplex (:mod:`repro.flows.networksimplex`) — the
    paper computes its FBP flows with "a (sequential) NetworkSimplex
    algorithm"; the ``auto`` pick above 500 arcs.
``lp``
    scipy ``linprog`` (HiGHS) on the arc-incidence LP; kept as an
    independent cross-check for the tests, it returns a basic optimal
    solution.
``heur``
    Feasibility-only transportation heuristic: route supplies with a
    cost-oblivious Dinic max-flow over the same network.  Suboptimal
    but strongly polynomial; the terminal fallback of the
    :class:`~repro.resilience.solver.ResilientSolver` chain.

All detect infeasibility (Theorem 3's "no fractional placement
exists") instead of silently returning partial flow.  Every solve runs
under a :class:`~repro.resilience.budget.SolverBudget` (iteration +
wall-time limits; the process default is unlimited) and raises the
structured :class:`~repro.resilience.errors.SolverBudgetExceeded` /
:class:`~repro.resilience.errors.SolverNumericsError` instead of
stalling or returning garbage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.tolerances import (
    BASE_EPS,
    FEASIBILITY_EPS,
    SIGNIFICANCE_EPS,
    magnitude,
    scale_eps,
)
from repro.obs import incr, maybe_check
from repro.resilience.budget import BudgetClock, SolverBudget, get_default_budget
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

    ``pivots`` counts network-simplex pivots (or LP iterations for the
    HiGHS backend); ``augmenting_paths`` counts shortest-path
    augmentations of the SSP backend.  Either may be 0 for backends it
    does not apply to.
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

    def auto_method(self) -> str:
        """The backend ``solve("auto")`` picks, and the first link of
        the :class:`~repro.resilience.solver.ResilientSolver` chain:
        SSP up to 500 arcs, the network simplex above."""
        return "ssp" if len(self.arcs) <= 500 else "ns"

    # ------------------------------------------------------------------
    def solve(
        self,
        method: str = "auto",
        budget: Optional[SolverBudget] = None,
    ) -> FlowResult:
        """Solve; ``method`` in {"auto", "ssp", "lp", "ns", "heur"}.

        "auto" picks SSP for small instances and the network simplex
        above (:meth:`auto_method`).  The HiGHS LP stays as an
        independent cross-check; "heur" is the feasibility-only
        fallback.  ``budget`` bounds
        iterations/wall time (defaults to the process-wide budget).
        """
        if method == "auto":
            method = self.auto_method()
        if method not in ("ssp", "lp", "ns", "heur"):
            raise ValueError(f"unknown method {method!r}")
        if budget is None:
            budget = get_default_budget()
        clock = budget.clock(method)
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
            if method == "ssp":
                result = self._solve_ssp(clock)
            elif method == "lp":
                result = self._solve_lp(budget)
            elif method == "ns":
                result = self._solve_simplex(clock)
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
    # successive shortest paths with potentials
    # ------------------------------------------------------------------
    def _solve_ssp(self, clock: Optional[BudgetClock] = None) -> FlowResult:
        supply, tails, heads, costs, caps = self.as_arrays()
        flows, routed, total_supply, augmentations = solve_ssp_arrays(
            len(supply), tails, heads, costs, caps, supply, clock=clock
        )
        total_cost = float(np.dot(flows, costs))
        feasible = routed >= total_supply - scale_eps(
            total_supply, base=FEASIBILITY_EPS
        )
        return FlowResult(
            feasible,
            total_cost,
            flows,
            list(self.arcs),
            routed,
            SolveStats(augmenting_paths=augmentations),
        )

    # ------------------------------------------------------------------
    # network simplex backend (the paper's solver family)
    # ------------------------------------------------------------------
    def _solve_simplex(
        self, clock: Optional[BudgetClock] = None
    ) -> FlowResult:
        from repro.flows.networksimplex import solve_network_simplex_arrays

        feasible, cost, flows, pivots = solve_network_simplex_arrays(
            *self.as_arrays(), clock=clock
        )
        routed = self.total_supply() if feasible else 0.0
        stats = SolveStats(pivots=pivots)
        if not feasible:
            return FlowResult(
                False,
                INF,
                np.zeros(len(self.arcs)),
                list(self.arcs),
                0.0,
                stats,
            )
        return FlowResult(True, cost, flows, list(self.arcs), routed, stats)

    # ------------------------------------------------------------------
    # HiGHS LP backend
    # ------------------------------------------------------------------
    def _solve_lp(self, budget: Optional[SolverBudget] = None) -> FlowResult:
        from scipy.optimize import linprog
        from scipy.sparse import coo_matrix

        index: Dict[Hashable, int] = {k: i for i, k in enumerate(self._supply)}
        n = len(index)
        s_row, t_row = n, n + 1

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        costs: List[float] = []
        uppers: List[Optional[float]] = []

        def add_var(u: int, v: int, w: float, capv: float) -> None:
            j = len(costs)
            rows.extend([u, v])
            cols.extend([j, j])
            vals.extend([1.0, -1.0])
            costs.append(w)
            uppers.append(None if capv == INF else capv)

        for arc in self.arcs:
            add_var(index[arc.tail], index[arc.head], arc.cost, arc.capacity)
        n_orig = len(self.arcs)
        eps_supply = self._supply_eps()
        total_supply = 0.0
        for key, b in self._supply.items():
            if b > eps_supply:
                add_var(s_row, index[key], 0.0, b)
                total_supply += b
            elif b < -eps_supply:
                add_var(index[key], t_row, 0.0, -b)

        n_vars = len(costs)
        a_eq = coo_matrix(
            (vals, (rows, cols)), shape=(n + 2, n_vars)
        ).tocsc()
        b_eq = np.zeros(n + 2)
        b_eq[s_row] = total_supply
        b_eq[t_row] = -total_supply

        options = {}
        if budget is not None and budget.max_iters is not None:
            options["maxiter"] = budget.max_iters
        if budget is not None and budget.max_seconds is not None:
            options["time_limit"] = budget.max_seconds
        res = linprog(
            c=np.array(costs),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0.0, u) for u in uppers],
            method="highs",
            options=options or None,
        )
        # HiGHS reports its iteration count as `nit`; file it under
        # pivots — for the simplex-based default that is what it is
        lp_pivots = int(getattr(res, "nit", 0) or 0)
        if res.status == 1:  # iteration/time limit reached
            from repro.resilience.errors import SolverBudgetExceeded

            raise SolverBudgetExceeded(
                f"HiGHS hit its budget: {res.message}",
                solver="lp",
                iterations=lp_pivots,
            )
        if res.status == 2:  # infeasible
            return FlowResult(
                False,
                INF,
                np.zeros(n_orig),
                list(self.arcs),
                0.0,
                SolveStats(pivots=lp_pivots),
            )
        if not res.success:
            raise SolverNumericsError(
                f"LP solver failed: {res.message}", solver="lp"
            )
        flows = np.asarray(res.x[:n_orig], dtype=np.float64)
        total_cost = float(
            sum(f * a.cost for f, a in zip(flows, self.arcs))
        )
        return FlowResult(
            True,
            total_cost,
            flows,
            list(self.arcs),
            total_supply,
            SolveStats(pivots=lp_pivots),
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


# ----------------------------------------------------------------------
# successive shortest paths on arrays
# ----------------------------------------------------------------------
def solve_ssp_arrays(
    n: int,
    tails: np.ndarray,
    heads: np.ndarray,
    costs: np.ndarray,
    caps: np.ndarray,
    supply: np.ndarray,
    clock: Optional[BudgetClock] = None,
) -> Tuple[np.ndarray, float, float, int]:
    """Successive shortest paths with Johnson potentials (Dijkstra).

    Node numbering and arc arrays as in
    :meth:`MinCostFlowProblem.as_arrays`.  The residual graph
    interleaves forward/reverse edges (``eid ^ 1``), the CSR adjacency
    keeps each node's edges in insertion order, and the edges of a
    popped node are relaxed vectorized against the pre-update distance
    labels — falling back to the sequential scan for the rare node
    whose improving edges hit a duplicate head, where a later edge must
    see the label an earlier one just set.  Returns
    ``(flows_per_input_arc, routed, total_supply, augmentations)``.
    """
    tails = np.ascontiguousarray(tails, dtype=np.int64)
    heads = np.ascontiguousarray(heads, dtype=np.int64)
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    m0 = tails.shape[0]
    s_node, t_node = n, n + 1
    n_total = n + 2

    # scale-relative balance threshold (see MinCostFlowProblem._supply_eps)
    finite_supply = np.isfinite(supply)
    eps_supply = scale_eps(
        float(np.max(np.abs(supply[finite_supply]), initial=0.0))
    )
    pos = supply > eps_supply
    neg = supply < -eps_supply
    extra_nodes = np.nonzero(pos | neg)[0]
    node_pos = pos[extra_nodes]
    e_src = np.where(node_pos, s_node, extra_nodes)
    e_dst = np.where(node_pos, extra_nodes, t_node)
    e_cap = np.where(node_pos, supply[extra_nodes], -supply[extra_nodes])
    total_supply = 0.0
    for b in supply[pos].tolist():
        total_supply += b

    # interleaved residual arrays: edge 2i is arc i, edge 2i+1 its
    # reverse (``eid ^ 1`` pairs them)
    src_all = np.concatenate([tails, e_src])
    dst_all = np.concatenate([heads, e_dst])
    cap_fwd = np.concatenate([caps, e_cap])
    cost_fwd = np.concatenate([costs, np.zeros(extra_nodes.shape[0])])
    m = src_all.shape[0]
    to = np.empty(2 * m, dtype=np.int64)
    to[0::2] = dst_all
    to[1::2] = src_all
    cap = np.empty(2 * m, dtype=np.float64)
    cap[0::2] = cap_fwd
    cap[1::2] = 0.0
    cost = np.empty(2 * m, dtype=np.float64)
    cost[0::2] = cost_fwd
    cost[1::2] = -cost_fwd

    # CSR adjacency over edge *sources*; the stable sort keeps each
    # node's edges in insertion order
    edge_src = np.empty(2 * m, dtype=np.int64)
    edge_src[0::2] = src_all
    edge_src[1::2] = dst_all
    adj_order = np.argsort(edge_src, kind="stable")
    adj_start = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(edge_src, minlength=n_total), out=adj_start[1:]
    )

    eps_cost = scale_eps(_finite_mag(cost))
    eps_flow = scale_eps(_finite_mag(cap))

    potential = np.zeros(n_total, dtype=np.float64)
    routed = 0.0
    augmentations = 0
    while routed < total_supply - eps_flow:
        if clock is not None:
            clock.tick()
            clock.check_time()
        dist = np.full(n_total, INF)
        prev_edge = np.full(n_total, -1, dtype=np.int64)
        dist[s_node] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, s_node)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + eps_cost:
                continue
            eids = adj_order[adj_start[u] : adj_start[u + 1]]
            if eids.size == 0:
                continue
            live = cap[eids] > eps_flow
            if not live.any():
                continue
            le = eids[live]
            vs = to[le]
            nd = d + cost[le] + potential[u]
            nd -= potential[vs]
            improve = nd < dist[vs] - eps_cost
            ii = np.nonzero(improve)[0]
            if ii.size == 0:
                continue
            vv = vs[ii]
            if np.unique(vv).size != vv.size:
                # duplicate heads among the improving edges: replay
                # the sequential relaxation for this node so a later
                # edge compares against the earlier edge's updated
                # label
                for eid in le.tolist():
                    v2 = int(to[eid])
                    nd2 = d + cost[eid] + potential[u] - potential[v2]
                    if nd2 < dist[v2] - eps_cost:
                        dist[v2] = nd2
                        prev_edge[v2] = eid
                        heapq.heappush(heap, (float(nd2), v2))
                continue
            dist[vv] = nd[ii]
            prev_edge[vv] = le[ii]
            for nd2, v2 in zip(nd[ii].tolist(), vv.tolist()):
                heapq.heappush(heap, (nd2, v2))
        if dist[t_node] == INF:
            break  # no augmenting path: infeasible remainder
        finite = dist < INF
        potential[finite] += dist[finite]
        # bottleneck along the path (paths are short; scalar walk)
        push = total_supply - routed
        v = t_node
        while v != s_node:
            eid = prev_edge[v]
            push = min(push, cap[eid])
            v = to[eid ^ 1]
        v = t_node
        while v != s_node:
            eid = prev_edge[v]
            cap[eid] -= push
            cap[eid ^ 1] += push
            v = to[eid ^ 1]
        routed += push
        augmentations += 1

    flows = cap[1 : 2 * m0 : 2].copy() if m0 else np.zeros(0)
    return flows, float(routed), total_supply, augmentations


def _finite_mag(values: np.ndarray) -> float:
    """Vectorized :func:`repro.flows.tolerances.magnitude`."""
    if values.size == 0:
        return 0.0
    av = np.abs(values)
    fin = av[np.isfinite(av)]
    return float(np.max(fin)) if fin.size else 0.0


def solve_min_cost_flow(
    supplies: Dict[Hashable, float],
    arcs: Sequence[Arc],
    method: str = "auto",
) -> FlowResult:
    """One-shot convenience wrapper around :class:`MinCostFlowProblem`."""
    problem = MinCostFlowProblem()
    for key, b in supplies.items():
        problem.add_node(key, b)
    for arc in arcs:
        problem.add_arc(arc.tail, arc.head, arc.cost, arc.capacity)
    return problem.solve(method)
