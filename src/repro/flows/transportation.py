"""The transportation (unbalanced Hitchcock) problem of §III.

Partitioning assigns cells (sources, supply = cell size) to regions or
windows (sinks, capacity = capa) minimizing total movement cost, with
``cost = +inf`` on cell→region arcs forbidden by movebounds.  Total
capacity may exceed total supply (unbalanced).

The default backend first asks whether the answer is *forced*
(:func:`_solve_forced`): if every source's strictly cheapest sink has
room the cheapest-sink assignment is the unique optimum, and if some
set of sinks cannot hold the sources confined to it (condition (1) of
the paper restricted to the window) the instance is infeasible — both
decided with a handful of array operations.  Everything else — ties,
split optima, borderline capacities — is formulated as an LP over the
finite-cost arcs and solved with scipy's HiGHS; on instances this small
``linprog``'s own input handling costs several times HiGHS' run, so
the model is handed over as ready-made CSC matrices.  A pure-Python
min-cost-flow backend is retained as a cross-check oracle.

A basic optimal solution of the transportation LP has at most
``n + k - 1`` positive variables, hence at most ``k - 1`` fractionally
split sources ([Brenner 2008], and the "almost integral" remark in
§III of the paper).  :func:`round_almost_integral` converts such a
solution into an integral assignment, overflowing any sink by at most
one cell.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.flows.tolerances import SIGNIFICANCE_EPS, scale_eps
from repro.flows.warmstart import WarmStartSlot, warm_start_enabled
from repro.obs import incr
from repro.resilience.budget import SolverBudget, get_default_budget
from repro.resilience.errors import (
    InfeasibleInputError,
    SolverBudgetExceeded,
    SolverNumericsError,
)

INF = float("inf")


@dataclass
class TransportStats:
    """Size/effort accounting of one transportation solve.

    ``nodes`` is sources + sinks, ``arcs`` the admissible
    (finite-cost) source->sink pairs.  ``pivots`` are HiGHS iterations
    for the LP backend; ``augmenting_paths`` are SSP augmentations for
    the min-cost-flow oracle backend.
    """

    method: str = ""
    nodes: int = 0
    arcs: int = 0
    pivots: int = 0
    augmenting_paths: int = 0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "nodes": self.nodes,
            "arcs": self.arcs,
            "pivots": self.pivots,
            "augmenting_paths": self.augmenting_paths,
        }


@dataclass
class TransportResult:
    """Solution of a transportation instance.

    ``flow[i, j]`` is the amount of source i routed to sink j; rows sum
    to the supplies when feasible.
    """

    feasible: bool
    flow: np.ndarray
    cost: float
    #: solver effort/size accounting (always present after solve)
    stats: TransportStats = field(default_factory=TransportStats)

    def split_sources(self, tol: Optional[float] = None) -> List[int]:
        """Indices of sources split across more than one sink.

        The significance threshold scales with the largest flow in the
        solution (``tol`` overrides it), so million-area instances do
        not report every source as "split" by accumulated float dust.
        """
        if tol is None:
            scale = float(np.max(np.abs(self.flow), initial=0.0))
            tol = scale_eps(scale, base=SIGNIFICANCE_EPS)
        positive = self.flow > tol
        return [i for i in range(self.flow.shape[0]) if positive[i].sum() > 1]


def _validate(
    supplies: np.ndarray, capacities: np.ndarray, costs: np.ndarray
) -> None:
    if costs.shape != (len(supplies), len(capacities)):
        raise InfeasibleInputError(
            f"cost matrix shape {costs.shape} does not match "
            f"{len(supplies)} sources x {len(capacities)} sinks",
            stage="transport.validate",
        )
    if np.any(supplies < 0) or np.any(capacities < 0):
        raise InfeasibleInputError(
            "supplies and capacities must be non-negative",
            stage="transport.validate",
        )
    if np.any(np.isnan(costs)):
        raise InfeasibleInputError(
            "NaN cost entries", stage="transport.validate"
        )


def solve_transportation(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    method: str = "auto",
    budget: Optional[SolverBudget] = None,
    warm_slot=None,
) -> TransportResult:
    """Solve min sum_ij costs[i,j] * f[i,j]
    s.t. sum_j f[i,j] = supplies[i], sum_i f[i,j] <= capacities[j],
    f >= 0, and f[i,j] = 0 wherever costs[i,j] = +inf.

    Returns an infeasible result (zero flow) when the supplies cannot
    be routed, e.g. when movebound-admissible sinks lack capacity.

    On the default LP path an instance whose answer is forced is
    answered by :func:`_solve_forced` without calling the solver;
    ``result.stats.method`` says who answered (``closed_form``,
    ``precheck`` or ``lp``).

    ``method="ns"`` runs the pure-Python network simplex, the only
    backend that supports warm starts: pass a
    :class:`~repro.flows.warmstart.WarmStartSlot` as ``warm_slot`` and
    repeated solves of the same arc topology (e.g. the stages of a
    capacity relaxation chain) start from the previous basis.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    _validate(supplies, capacities, costs)
    if method == "auto":
        method = "lp"
    if method not in ("lp", "mcf", "ns"):
        raise ValueError(f"unknown method {method!r}")
    n, k = costs.shape
    finite = np.isfinite(costs)
    if budget is None:
        budget = get_default_budget()

    if n == 0:
        result = TransportResult(
            True, np.zeros((0, k)), 0.0, TransportStats(method="empty")
        )
    elif not np.all(finite.any(axis=1) | (supplies <= 0)):
        # quick necessary check: every source needs an admissible sink
        result = TransportResult(
            False,
            np.zeros((n, k)),
            INF,
            TransportStats(method="no_admissible_sink"),
        )
    elif method == "lp":
        result = _solve_forced(supplies, capacities, costs, finite)
        if result is None:
            result = _solve_lp(supplies, capacities, costs, finite, budget)
    elif method == "mcf":
        result = _solve_mcf(supplies, capacities, costs, finite, budget)
    else:
        result = _solve_ns(
            supplies, capacities, costs, finite, budget, warm_slot
        )

    stats = result.stats
    # the exits above name themselves; a backend goes by its method
    stats.method = stats.method or method
    stats.nodes = n + k
    stats.arcs = int(finite.sum())
    if stats.method in ("empty", "no_admissible_sink"):
        # never reached a backend: counted apart, so ``transport.solves``
        # and ``transport.infeasible`` keep counting what a backend, or
        # the front end standing in for it, answered
        incr(f"transport.{stats.method}")
        return result
    incr("transport.solves")
    incr(f"transport.solves.{stats.method}")
    incr("transport.nodes", stats.nodes)
    incr("transport.arcs", stats.arcs)
    incr("transport.pivots", stats.pivots)
    incr("transport.augmenting_paths", stats.augmenting_paths)
    if not result.feasible:
        incr("transport.infeasible")
    return result


#: HiGHS' primal and dual feasibility tolerances (absolute, per row and
#: per variable)
_HIGHS_TOL = 1e-7
#: :func:`_solve_forced` answers only what sits this many tolerances
#: away from anything HiGHS could decide differently
_FORCED_FACTOR = 100.0
#: condition (1) is tested over all 2^k sink subsets up to this k
_PRECHECK_MAX_SINKS = 12


def _solve_forced(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    finite: np.ndarray,
) -> Optional[TransportResult]:
    """Answer an instance whose answer is forced; ``None`` otherwise.

    *Cheapest-sink closed form.*  When every source with supply has a
    strictly cheapest sink and those choices fit the capacities, that
    assignment is the unique optimum: moving any flow elsewhere costs
    at least the runner-up gap per unit, and an LP basis carrying such
    flow would break dual feasibility by that gap.

    *Exact infeasibility.*  The instance is feasible iff for every set
    ``T`` of sinks the supply of the sources admissible only inside
    ``T`` fits ``cap(T)`` — condition (1) of the paper on the window's
    regions.  Both sides are subset sums over the ``2^k`` sink sets,
    computed for all sets at once by one doubling pass per sink.

    The runner-up gap must clear ``_FORCED_FACTOR`` dual tolerances
    (scaled by the largest cost) and the worst deficit as many primal
    tolerances for *every* row and variable HiGHS could bend (scaled
    by the largest supply); ties, near-ties and borderline deficits
    are left to the LP, so the verdict and the rounded assignment are
    the ones HiGHS gives.
    """
    n, k = costs.shape
    rows = np.nonzero(supplies > 0)[0]
    if not len(rows):
        return TransportResult(
            True, np.zeros((n, k)), 0.0, TransportStats(method="closed_form")
        )
    base = _FORCED_FACTOR * _HIGHS_TOL
    amount = supplies[rows]
    sub = costs[rows]
    at = np.arange(len(rows))
    best = np.argmin(sub, axis=1)
    cheapest = sub[at, best]
    load = np.bincount(best, weights=amount, minlength=k)
    if np.all(load <= capacities):
        sub[at, best] = INF
        gap = sub.min(axis=1) - cheapest
        cost_scale = float(np.max(np.abs(costs), where=finite, initial=0.0))
        if np.all(gap > scale_eps(cost_scale, base=base)):
            flow = np.zeros((n, k))
            flow[rows, best] = amount
            return TransportResult(
                True,
                flow,
                float(np.dot(cheapest, amount)),
                TransportStats(method="closed_form"),
            )

    if k > _PRECHECK_MAX_SINKS:
        return None
    # sums[0, T] = supply confined to sink set T, sums[1, T] = cap(T),
    # T a bit mask over the sinks: seed the exact masks, then let every
    # set collect its subsets bit by bit
    bit = 1 << np.arange(k)
    sums = np.zeros((2, 1 << k))
    sums[0] = np.bincount(finite[rows] @ bit, weights=amount, minlength=1 << k)
    sums[1, bit] = capacities
    for j in range(k):
        halves = sums.reshape(2, -1, 2, 1 << j)
        halves[:, :, 1] += halves[:, :, 0]
    deficit = float(np.max(sums[0] - sums[1]))
    bendable = n + k + int(finite.sum())
    if deficit > bendable * scale_eps(float(amount.max()), base=base):
        return TransportResult(
            False, np.zeros((n, k)), INF, TransportStats(method="precheck")
        )
    return None


@functools.cache
def _scipy_lp():
    """``(linprog, csc_matrix)``, imported on first use so that a run
    the front end answers entirely never loads ``scipy.optimize``."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    return linprog, csc_matrix


def _solve_lp(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    finite: np.ndarray,
    budget: Optional[SolverBudget] = None,
) -> TransportResult:
    linprog, csc_matrix = _scipy_lp()

    n, k = costs.shape
    src_idx, snk_idx = np.nonzero(finite)
    n_vars = len(src_idx)
    var_costs = costs[src_idx, snk_idx]

    # one variable per admissible arc: its column holds a single 1 in
    # its source's equality row and a single 1 in its sink's capacity
    # row, which *is* the CSC layout
    ones = np.ones(n_vars)
    indptr = np.arange(n_vars + 1)
    a_eq = csc_matrix((ones, src_idx, indptr), shape=(n, n_vars))
    a_ub = csc_matrix((ones, snk_idx, indptr), shape=(k, n_vars))

    options = {}
    if budget is not None and budget.max_iters is not None:
        options["maxiter"] = budget.max_iters
    if budget is not None and budget.max_seconds is not None:
        options["time_limit"] = budget.max_seconds
    res = linprog(
        c=var_costs,
        A_eq=a_eq,
        b_eq=supplies,
        A_ub=a_ub,
        b_ub=capacities,
        bounds=(0.0, None),
        method="highs",
        options=options or None,
    )
    lp_pivots = int(getattr(res, "nit", 0) or 0)
    if res.status == 1:
        raise SolverBudgetExceeded(
            f"transportation LP hit its budget: {res.message}",
            solver="lp",
            iterations=lp_pivots,
        )
    if res.status == 2:
        return TransportResult(
            False, np.zeros((n, k)), INF, TransportStats(pivots=lp_pivots)
        )
    if not res.success:
        raise SolverNumericsError(
            f"transportation LP failed: {res.message}", solver="lp"
        )
    flow = np.zeros((n, k))
    flow[src_idx, snk_idx] = res.x
    return TransportResult(
        True, flow, float(res.fun), TransportStats(pivots=lp_pivots)
    )


def _solve_mcf(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    finite: np.ndarray,
    budget: Optional[SolverBudget] = None,
) -> TransportResult:
    """Oracle backend on the pure-Python min-cost-flow solver."""
    from repro.flows.mincostflow import MinCostFlowProblem

    n, k = costs.shape
    problem = MinCostFlowProblem()
    for i in range(n):
        problem.add_node(("s", i), float(supplies[i]))
    for j in range(k):
        problem.add_node(("t", j), -float(capacities[j]))
    arc_ids = {}
    for i in range(n):
        for j in range(k):
            if finite[i, j]:
                arc_ids[(i, j)] = problem.add_arc(
                    ("s", i), ("t", j), float(costs[i, j])
                )
    result = problem.solve(method="ssp", budget=budget)
    stats = TransportStats(augmenting_paths=result.stats.augmenting_paths)
    if not result.feasible:
        return TransportResult(False, np.zeros((n, k)), INF, stats)
    flow = np.zeros((n, k))
    for (i, j), aid in arc_ids.items():
        flow[i, j] = result.flow_on(aid)
    return TransportResult(True, flow, result.cost, stats)


def _solve_ns(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    finite: np.ndarray,
    budget: Optional[SolverBudget] = None,
    warm_slot=None,
) -> TransportResult:
    """Warm-startable network-simplex backend.

    Builds the bipartite min-cost-flow instance directly as arrays —
    integer nodes 0..n-1 for sources, n..n+k-1 for sinks (the same
    numbering the historical keyed builder produced, so warm-start
    fingerprints are unchanged) and one uncapacitated arc per
    admissible pair in row-major order — and hands ``warm_slot``
    through to
    :func:`repro.flows.networksimplex.solve_network_simplex_arrays`.
    """
    from repro.flows.networksimplex import solve_network_simplex_arrays

    n, k = costs.shape
    supply = np.concatenate([supplies, -capacities])
    src_idx, snk_idx = np.nonzero(finite)
    arc_costs = costs[src_idx, snk_idx]
    # Deterministic tie-breaking: L1 distances on a grid tie constantly,
    # making the optimal flow non-unique — every warm-started solve
    # would then detect ambiguity and redo the work cold.  A tiny
    # per-arc perturbation (~2^-20 relative, well above the solver's
    # relative cost epsilon but orders below any real cost difference
    # the placement could notice) makes the optimum unique for almost
    # every instance.  It must NOT be linear in the arc index: a
    # simplex cycle through sources i,i' and sinks j,j' sums indices as
    # idx(i,j) - idx(i,j') + idx(i',j') - idx(i',j) = 0 in row-major
    # order, cancelling any linear perturbation exactly.  A seeded PRNG
    # stream is a pure function of the arc count, so cold and warm
    # solves of either arm perturb — and hence pick — identically.
    scale = float(np.max(np.abs(arc_costs), initial=0.0)) or 1.0
    rng = np.random.default_rng(0x7F4A7C15)
    tie_break = (rng.random(len(arc_costs)) + 1.0) * (scale * 2.0**-20)
    perturbed = arc_costs + tie_break
    clock = budget.clock("ns") if budget is not None else None
    feasible, _cost, flows, pivots = solve_network_simplex_arrays(
        supply,
        src_idx.astype(np.int64),
        (snk_idx + n).astype(np.int64),
        perturbed,
        np.full(len(perturbed), INF),
        clock=clock,
        warm_slot=warm_slot,
    )
    stats = TransportStats(pivots=pivots)
    if not feasible:
        return TransportResult(False, np.zeros((n, k)), INF, stats)
    flow = np.zeros((n, k))
    flow[src_idx, snk_idx] = flows
    # report the cost of the *unperturbed* objective
    cost = float(np.dot(arc_costs, np.asarray(flows, dtype=np.float64)))
    return TransportResult(True, flow, cost, stats)


def round_almost_integral(
    result: TransportResult,
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Round a fractional transportation solution to an integral
    assignment (one sink per source).

    Split sources are processed in decreasing supply order; each goes to
    the admissible sink where it already routes the most flow, preferring
    sinks with enough remaining slack.  Returns ``(assignment, max_overflow)``
    where ``assignment[i]`` is the sink of source i and ``max_overflow``
    is the largest resulting capacity violation (0 in the common case).
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    flow = result.flow
    n, k = flow.shape
    assignment = np.full(n, -1, dtype=np.int64)
    load = np.zeros(k)

    # significance threshold scales with the largest supply so that
    # big-area instances don't misclassify float dust as real flow
    tol = scale_eps(
        float(np.max(supplies, initial=0.0)), base=SIGNIFICANCE_EPS
    )
    positive = flow > tol
    n_pos = positive.sum(axis=1)
    zero_rows = np.nonzero(n_pos == 0)[0]
    if len(zero_rows):
        bad = zero_rows[supplies[zero_rows] > tol]
        if len(bad):
            raise SolverNumericsError(
                f"source {bad[0]} has supply but no flow", solver="transport"
            )
        # zero-size sources: put each on its cheapest admissible sink
        if costs is not None:
            assignment[zero_rows] = np.argmin(costs[zero_rows], axis=1)
        else:
            assignment[zero_rows] = 0
    whole = np.nonzero(n_pos == 1)[0]
    if len(whole):
        sinks = np.argmax(positive[whole], axis=1)
        assignment[whole] = sinks
        np.add.at(load, sinks, supplies[whole])
    split = np.nonzero(n_pos > 1)[0].tolist()

    for i in sorted(split, key=lambda i: -supplies[i]):
        order = np.argsort(-flow[i])
        candidates = [j for j in order if flow[i, j] > tol]
        best = None
        for j in candidates:
            if load[j] + supplies[i] <= capacities[j] + tol:
                best = j
                break
        if best is None:
            best = candidates[0]  # overflow the largest-share sink
        assignment[i] = best
        load[best] += supplies[i]

    overflow = float(np.max(np.maximum(load - capacities, 0.0), initial=0.0))
    return assignment, overflow


#: relaxation chains used by the partitioning call sites; each entry is
#: ``(capacity_multiplier, supply_sum_fraction_added)`` — effective
#: capacities are ``caps * mult + frac * supplies.sum()``.  Stage 0 is
#: always the exact instance.
RELAX_CHAIN_WINDOW = ((1.0, 0.0), (1.1, 0.0), (2.0, 1.0))
RELAX_CHAIN_PARTITION = ((1.0, 0.0), (1.1, 0.0), (1.0, 1.0))


def solve_transportation_with_relaxation(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
    method: str = "auto",
    warm_slot=None,
) -> Tuple[TransportResult, int]:
    """Solve a transportation instance, escalating through a capacity
    relaxation chain until a stage is feasible.

    Returns ``(result, stage)`` where ``stage`` is the index of the
    chain entry that produced the result (0 = exact; the last stage's
    result is returned even when infeasible).  This is a *pure function
    of its arrays* — the parallel window-solver pool ships it to worker
    processes and merges results in deterministic task order, so pooled
    and serial runs are bit-identical.

    Every stage re-solves the same arc topology with scaled
    capacities, so with the "ns" backend the stages share one
    :class:`~repro.flows.warmstart.WarmStartSlot`: stage ``k+1``
    starts from stage ``k``'s basis instead of cold (a local slot —
    worker processes and the serial path behave identically).  A
    caller that re-solves the same topology repeatedly (repartition
    passes) can pass its own persistent ``warm_slot`` instead.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    total = supplies.sum()
    digest = None
    if warm_slot is not None and warm_start_enabled():
        # exact-instance memo: a persistent slot whose last call had
        # bit-identical arrays (a repartition block that reverted and
        # is re-solved unchanged) returns the stored result directly
        h = hashlib.sha256()
        h.update(supplies.tobytes())
        h.update(capacities.tobytes())
        h.update(costs.tobytes())
        h.update(repr(chain).encode())
        h.update(method.encode())
        digest = h.digest()
        if warm_slot.memo_digest == digest:
            incr("warmstart.instance_hits")
            memo, stage = warm_slot.memo_value
            result = TransportResult(
                memo.feasible, memo.flow.copy(), memo.cost, memo.stats
            )
            return result, stage
    if warm_slot is None and method == "ns":
        warm_slot = WarmStartSlot()
    result = None
    stage = 0
    for stage, (mult, frac) in enumerate(chain):
        caps = capacities * mult + frac * total
        result = solve_transportation(
            supplies, caps, costs, method=method, warm_slot=warm_slot
        )
        if result.feasible:
            break
    if digest is not None:
        warm_slot.memo_digest = digest
        warm_slot.memo_value = (
            TransportResult(
                result.feasible, result.flow.copy(), result.cost, result.stats
            ),
            stage,
        )
    return result, stage
