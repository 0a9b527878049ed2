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
finite-cost arcs and handed to the HiGHS that ships with scipy
(:func:`_solve_lp`, through :func:`repro.flows.highs.run_highs`) as
the same model ``linprog`` would build: the same rows, columns, bounds
and options, hence the same solution, iteration count and verdict.
This front end plus the LP is the one transportation solver: the
paper's "transportation algorithm" of §III, used by every window and
repartitioning solve.

A basic optimal solution of the transportation LP has at most
``n + k - 1`` positive variables, hence at most ``k - 1`` fractionally
split sources ([Brenner 2008], and the "almost integral" remark in
§III of the paper).  :func:`round_almost_integral` converts such a
solution into an integral assignment, overflowing any sink by at most
one cell.  When n >> k most sources never leave their cheapest sink,
so a caller may solve a restricted model and price the arcs it left
out against the sinks' capacity duals (``TransportResult.sink_duals``);
the Abacus row assignment (:mod:`repro.legalize.abacus`) does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.flows.highs import run_highs
from repro.flows.tolerances import SIGNIFICANCE_EPS, scale_eps
from repro.obs import incr
from repro.resilience.budget import SolverBudget, get_default_budget
from repro.resilience.errors import InfeasibleInputError, SolverNumericsError

INF = float("inf")


@dataclass
class TransportStats:
    """Size/effort accounting of one transportation solve.

    ``method`` says who answered (``closed_form``, ``precheck`` or
    ``lp``, or the ``empty`` / ``no_admissible_sink`` exits).
    ``nodes`` is sources + sinks, ``arcs`` the admissible
    (finite-cost) source->sink pairs.  ``pivots`` are HiGHS iterations.
    """

    method: str = ""
    nodes: int = 0
    arcs: int = 0
    pivots: int = 0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "nodes": self.nodes,
            "arcs": self.arcs,
            "pivots": self.pivots,
        }


@dataclass
class TransportResult:
    """Solution of a transportation instance.

    ``flow[i, j]`` is the amount of source i routed to sink j; rows sum
    to the supplies when feasible.

    ``sink_duals[j] <= 0`` is the dual of sink j's capacity row: with
    ``u[i] = min_j (costs[i, j] - sink_duals[j])`` every admissible arc
    has reduced cost ``costs[i, j] - u[i] - sink_duals[j] >= 0``, a sink
    with slack has dual 0, and the pair certifies the flow optimal.
    The LP answer carries HiGHS' row duals, the closed form zeros (every
    source sits on a cheapest sink with room); ``None`` when infeasible.
    """

    feasible: bool
    flow: np.ndarray
    cost: float
    #: solver effort/size accounting (always present after solve)
    stats: TransportStats = field(default_factory=TransportStats)
    sink_duals: Optional[np.ndarray] = None

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
    if not (np.all(np.isfinite(supplies)) and np.all(np.isfinite(capacities))):
        raise InfeasibleInputError(
            "supplies and capacities must be finite",
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
    budget: Optional[SolverBudget] = None,
) -> TransportResult:
    """Solve min sum_ij costs[i,j] * f[i,j]
    s.t. sum_j f[i,j] = supplies[i], sum_i f[i,j] <= capacities[j],
    f >= 0, and f[i,j] = 0 wherever costs[i,j] = +inf.

    Returns an infeasible result (zero flow) when the supplies cannot
    be routed, e.g. when movebound-admissible sinks lack capacity.

    An instance whose answer is forced is answered by
    :func:`_solve_forced` without calling the solver, everything else
    by the HiGHS LP (:func:`_solve_lp`); ``result.stats.method`` says
    who answered (``closed_form``, ``precheck`` or ``lp``).  A HiGHS
    failure raises :class:`SolverNumericsError`, an exhausted budget
    :class:`SolverBudgetExceeded`.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    _validate(supplies, capacities, costs)
    n, k = costs.shape
    finite = np.isfinite(costs)
    if budget is None:
        budget = get_default_budget()

    if n == 0:
        result = TransportResult(
            True,
            np.zeros((0, k)),
            0.0,
            TransportStats(method="empty"),
            np.zeros(k),
        )
    elif not np.all(finite.any(axis=1) | (supplies <= 0)):
        # quick necessary check: every source needs an admissible sink
        result = TransportResult(
            False,
            np.zeros((n, k)),
            INF,
            TransportStats(method="no_admissible_sink"),
        )
    else:
        result = _solve_forced(supplies, capacities, costs, finite)
        if result is None:
            result = _solve_lp(supplies, capacities, costs, finite, budget)

    stats = result.stats
    stats.nodes = n + k
    stats.arcs = int(finite.sum())
    if stats.method in ("empty", "no_admissible_sink"):
        # never reached the solver: counted apart, so ``transport.solves``
        # and ``transport.infeasible`` keep counting what the LP, or the
        # front end standing in for it, answered
        incr(f"transport.{stats.method}")
        return result
    incr("transport.solves")
    incr(f"transport.solves.{stats.method}")
    incr("transport.nodes", stats.nodes)
    incr("transport.arcs", stats.arcs)
    incr("transport.pivots", stats.pivots)
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
            True,
            np.zeros((n, k)),
            0.0,
            TransportStats(method="closed_form"),
            np.zeros(k),
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
                np.zeros(k),
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


def _solve_lp(
    supplies: np.ndarray,
    capacities: np.ndarray,
    costs: np.ndarray,
    finite: np.ndarray,
    budget: Optional[SolverBudget] = None,
) -> TransportResult:
    """The transportation LP, handed to HiGHS as the very model (row
    and column order, bounds, options) ``linprog(method="highs")``
    builds from the per-sink ``A_ub`` and per-source ``A_eq`` rows, so
    ``x``, ``fun``, the iteration count and the verdict are
    ``linprog``'s bit for bit."""
    n, k = costs.shape
    src_idx, snk_idx = np.nonzero(finite)
    n_vars = len(src_idx)
    # rows: the k capacity rows, then the n supply equalities; one
    # column per admissible arc with a 1 in its sink's row and a 1 in
    # its source's row, which *is* the CSC layout (integer arrays of
    # these sizes cross into HiGHS faster as lists)
    lp = run_highs(
        costs[src_idx, snk_idx],
        np.full(n_vars, INF),
        np.concatenate([np.full(k, -INF), supplies]),
        np.concatenate([capacities, supplies]),
        list(range(0, 2 * n_vars + 1, 2)),
        np.column_stack([snk_idx, k + src_idx]).ravel().tolist(),
        np.ones(2 * n_vars),
        presolve=True,
        budget=budget,
        what="transportation LP",
    )
    stats = TransportStats(method="lp", pivots=lp.iterations)
    if not lp.feasible:
        return TransportResult(False, np.zeros((n, k)), INF, stats)
    flow = np.zeros((n, k))
    flow[src_idx, snk_idx] = lp.x
    return TransportResult(True, flow, lp.objective, stats, lp.row_dual[:k])


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
) -> Tuple[TransportResult, int]:
    """Solve a transportation instance, escalating through a capacity
    relaxation chain until a stage is feasible.

    Returns ``(result, stage)`` where ``stage`` is the index of the
    chain entry that produced the result (0 = exact; the last stage's
    result is returned even when infeasible).  This is a *pure function
    of its arrays* — the parallel window-solver pool ships it to worker
    processes and merges results in deterministic task order, so pooled
    and serial runs are bit-identical.  Every stage is solved from
    scratch.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    total = supplies.sum()
    result = None
    stage = 0
    for stage, (mult, frac) in enumerate(chain):
        caps = capacities * mult + frac * total
        result = solve_transportation(supplies, caps, costs)
        if result.feasible:
            break
    return result, stage
