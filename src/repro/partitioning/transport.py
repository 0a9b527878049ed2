"""The §III partitioning primitive.

Given a set of cells and a set of capacitated *targets* (window
regions, subwindows, temporary transit regions, legalization regions),
compute a minimum-movement assignment subject to capacities and
movebound admissibility:

    cost(c, target) = L1 distance,  or +inf when the cell's movebound
    does not cover the target,

solved as an unbalanced transportation problem and rounded to an
almost-integral assignment (at most |targets| - 1 split cells in the
fractional optimum; whole-cell rounding may overflow a target by at
most one cell).  The overflow is then repaired by relocating whole
cells (:func:`_repair_overflow`): an array pass per eviction that takes
the decisions of a scan over every (member, target) pair, in its order.

Every caller of the step shares its three kernels, written once here:

* :func:`transport_costs` — the (cells x targets) cost matrix; used by
  :func:`build_transport_problem` (legalization regions, reflow, ECO
  blocks, recursive partitioning) and FBP's final realization
  (:func:`repro.fbp.realize_windows.realize_unit`);
* :func:`spread_into_rects` — the spread of one target's cells into
  its rectangles; called per region by ``realize_unit`` and, through
  :func:`spread_outcome`, by the reflow / ECO blocks
  (:mod:`repro.partitioning.repartition`) and recursive partitioning;
* :func:`block_targets` — the targets of a block of windows, for the
  same two callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows import (
    RELAX_CHAIN_PARTITION,
    TransportResult,
    round_almost_integral,
    solve_transportation_with_relaxation,
)
from repro.geometry import RectSet, rect_array, rect_distances
from repro.movebounds import DEFAULT_BOUND
from repro.netlist import Netlist
from repro.obs import incr
from repro.resilience.errors import InfeasibleInputError


@dataclass
class TransportTargets:
    """The sink side of a partitioning step."""

    keys: List[object]
    capacities: np.ndarray
    areas: List[RectSet]  # for distance evaluation and spreading
    #: admits[j](bound_name) -> bool
    admits: List[Callable[[str], bool]]

    def __post_init__(self) -> None:
        n = len(self.keys)
        if not (
            len(self.capacities) == len(self.areas) == len(self.admits) == n
        ):
            raise InfeasibleInputError(
                "target fields must have equal length",
                stage="partition.targets",
            )


@dataclass
class PartitionOutcome:
    """Assignment of each cell to a target key."""

    feasible: bool
    assignment: Dict[int, object] = field(default_factory=dict)
    cost: float = float("inf")
    overflow: float = 0.0
    relaxed: bool = False


@dataclass
class TransportProblem:
    """The pure-array form of one partitioning step, ready to solve.

    Separating problem construction (needs the netlist) from the solve
    (a pure function of the arrays) lets the parallel window-solver
    pool ship batches of independent problems to worker processes and
    merge results in deterministic order.
    """

    cells: List[int]  # sorted cell indices
    supplies: np.ndarray
    capacities: np.ndarray
    costs: np.ndarray


def build_transport_problem(
    netlist: Netlist,
    cell_indices: Sequence[int],
    targets: TransportTargets,
) -> Optional[TransportProblem]:
    """Assemble supplies/capacities/costs for one partitioning step
    (None when there are no cells to assign)."""
    cells = sorted(cell_indices)
    if not cells:
        return None
    supplies = netlist.cell_sizes()[np.asarray(cells, dtype=np.int64)]
    # each target answers admissibility once per distinct movebound
    # name; the per-cell mask is then a single gather
    unique_bounds, codes = np.unique(
        [netlist.cells[i].movebound or DEFAULT_BOUND for i in cells],
        return_inverse=True,
    )
    admit = np.array(
        [[ok(str(b)) for ok in targets.admits] for b in unique_bounds],
        dtype=bool,
    ).reshape(len(unique_bounds), len(targets.keys))
    costs = transport_costs(
        np.asarray(netlist.x[cells], dtype=np.float64),
        np.asarray(netlist.y[cells], dtype=np.float64),
        admit[codes],
        [rect_array(area) for area in targets.areas],
    )
    return TransportProblem(
        cells, supplies, targets.capacities.astype(float), costs
    )


def transport_costs(
    xs: np.ndarray,
    ys: np.ndarray,
    admit: np.ndarray,
    rects: Sequence[np.ndarray],
) -> np.ndarray:
    """The (cells x targets) cost matrix: the L1 distance of cell ``i``
    to target ``j``'s :func:`~repro.geometry.rect_array` ``rects[j]``
    where ``admit[i, j]``, else ``inf`` (also for a target without
    rectangles)."""
    costs = np.full(admit.shape, np.inf)
    for j, r in enumerate(rects):
        mask = admit[:, j]
        if len(r) and mask.any():
            costs[mask, j] = rect_distances(xs[mask], ys[mask], r)
    return costs


def spread_into_rects(
    ids: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    half_w: np.ndarray,
    half_h: np.ndarray,
    rects: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spread one target's cells over its rectangles (an (R, 4)
    :func:`~repro.geometry.rect_array`); returns their new positions.

    Cells go to rectangles in proportion to area, in (x, y) order, so
    the left-to-right structure survives.  Inside a rectangle they are
    laid out on a grid of columns (by x-rank) and rows within each
    column (by y-rank): the relative order of the incoming placement
    is kept, and the spread stays even when positions coincide (local
    QPs can collapse a dense group onto a point).  Ties break on the
    input order, then on ``ids``.
    """
    new_x = np.array(xs, dtype=np.float64)
    new_y = np.array(ys, dtype=np.float64)
    if not len(ids) or not len(rects):
        return new_x, new_y
    rects = rects[np.lexsort((rects[:, 1], rects[:, 0]))]
    widths = rects[:, 2] - rects[:, 0]
    heights = rects[:, 3] - rects[:, 1]
    areas = widths * heights
    total = areas.sum()
    if total <= 0:
        areas = np.ones(len(rects))
        total = float(len(rects))
    ordered = np.lexsort((ys, xs))
    counts = np.floor(areas / total * len(ordered)).astype(int)
    while counts.sum() < len(ordered):
        counts[int(np.argmax(areas / np.maximum(counts, 1)))] += 1
    pos = 0
    for ri in range(len(rects)):
        count = counts[ri]
        sel = ordered[pos : pos + count]
        pos += count
        n = len(sel)
        if not n:
            continue
        width, height = widths[ri], heights[ri]
        aspect = width / max(height, 1e-9)
        cols = min(max(int(round(math.sqrt(n * aspect))), 1), n)
        rows_per_col = math.ceil(n / cols)
        gids, gx, gy = ids[sel], xs[sel], ys[sel]
        # columns of the (x, y, id) order, each re-sorted by (y, x,
        # id): one lexsort with the column index as the primary key
        by_x = np.lexsort((gids, gy, gx))
        col_of = np.arange(n) // rows_per_col
        within = np.lexsort((gids[by_x], gx[by_x], gy[by_x], col_of))
        cell = sel[by_x[within]]
        col = col_of[within]
        col_len = np.bincount(col_of)
        col_start = np.concatenate(([0], np.cumsum(col_len)))[:-1]
        rank = np.arange(n) - col_start[col]
        fx = (col + 0.5) / cols
        fy = (rank + 0.5) / col_len[col]
        hw = np.minimum(half_w[cell], width / 2)
        hh = np.minimum(half_h[cell], height / 2)
        new_x[cell] = rects[ri, 0] + hw + fx * np.maximum(width - 2 * hw, 0.0)
        new_y[cell] = rects[ri, 1] + hh + fy * np.maximum(height - 2 * hh, 0.0)
    return new_x, new_y


def spread_outcome(
    netlist: Netlist, outcome: PartitionOutcome, targets: TransportTargets
) -> None:
    """Spread each target's assigned cells into the target's area."""
    _mv, half_w, half_h = netlist.cell_dims()
    groups: Dict[int, List[int]] = {}
    for cell, key in outcome.assignment.items():
        groups.setdefault(id(key), []).append(cell)
    for key, area in zip(targets.keys, targets.areas):
        if id(key) not in groups:
            continue
        ci = np.asarray(groups[id(key)], dtype=np.int64)
        netlist.x[ci], netlist.y[ci] = spread_into_rects(
            ci, netlist.x[ci], netlist.y[ci], half_w[ci], half_h[ci],
            rect_array(area),
        )


def block_targets(
    windows, usage: Dict, density_target: float
) -> TransportTargets:
    """The targets of a block of windows: every region with free
    capacity ``capacity - usage > 0``, keyed ``(window index, region)``;
    its cells spread into its free area, else the region's area."""
    keys: List[Tuple[int, object]] = []
    caps: List[float] = []
    for w in windows:
        for wr in w.regions:
            cap = wr.capacity(density_target) - usage.get(
                (w.index, wr.region.index), 0.0
            )
            if cap > 0:
                keys.append((w.index, wr))
                caps.append(cap)
    regions = [wr for _w, wr in keys]
    return TransportTargets(
        keys,
        np.array(caps),
        [r.free_area if not r.free_area.is_empty else r.area for r in regions],
        [r.admits for r in regions],
    )


def complete_partition(
    problem: TransportProblem,
    targets: TransportTargets,
    tr: TransportResult,
    relax_stage: int,
) -> PartitionOutcome:
    """Turn a solved transportation instance into a whole-cell
    assignment (rounding + overflow repair against the *exact*
    capacities)."""
    if not tr.feasible:
        return PartitionOutcome(False)
    supplies, caps, costs = (
        problem.supplies,
        problem.capacities,
        problem.costs,
    )
    assignment, overflow = round_almost_integral(tr, supplies, caps, costs)
    if overflow > 0:
        overflow = _repair_overflow(assignment, supplies, caps, costs)
    out = PartitionOutcome(
        True, {}, tr.cost, overflow, relaxed=relax_stage > 0
    )
    for a, i in enumerate(problem.cells):
        out.assignment[i] = targets.keys[assignment[a]]
    return out


def partition_cells(
    netlist: Netlist,
    cell_indices: Sequence[int],
    targets: TransportTargets,
    relax_on_failure: bool = True,
) -> PartitionOutcome:
    """Assign cells to targets minimizing L1 movement under capacities
    and movebound admissibility.

    When the exact instance is infeasible (e.g. rounding debt from an
    earlier step) and ``relax_on_failure`` is set, capacities are
    relaxed by 10 % and then unboundedly, so the caller always gets an
    assignment plus a ``relaxed`` flag instead of an exception.
    """
    problem = build_transport_problem(netlist, cell_indices, targets)
    if problem is None:
        return PartitionOutcome(True, {}, 0.0)
    chain = RELAX_CHAIN_PARTITION if relax_on_failure else (
        RELAX_CHAIN_PARTITION[:1]
    )
    tr, stage = solve_transportation_with_relaxation(
        problem.supplies,
        problem.capacities,
        problem.costs,
        chain=chain,
    )
    return complete_partition(problem, targets, tr, stage)


def _repair_overflow(
    assignment: np.ndarray,
    supplies: np.ndarray,
    caps: np.ndarray,
    costs: np.ndarray,
) -> float:
    """Relocate whole cells out of overfull targets into admissible
    targets with slack, cheapest extra cost first.  Returns the
    remaining maximum overflow (0 when fully repaired).

    Array form of a scan over (member of j) x (target): ``bincount``
    adds the supplies in cell order, and the first minimum of the
    row-major masked extra-cost matrix is the pair a strict ``<`` scan
    in member-list order keeps — so member lists keep their append
    order, it is the tie-break."""
    k = len(caps)
    load = np.bincount(assignment, weights=supplies, minlength=k)
    limit = caps + 1e-9
    admissible = np.isfinite(costs)
    by_target = np.argsort(assignment, kind="stable")
    cuts = np.searchsorted(assignment[by_target], np.arange(1, k))
    members = [m.tolist() for m in np.split(by_target, cuts)]
    evictions = cascades = 0

    def move(a: int, src: int, dst: int) -> None:
        assignment[a] = dst
        members[src].remove(a)
        members[dst].append(a)
        load[src] -= supplies[a]
        load[dst] += supplies[a]

    for j in range(k):
        guard = 0
        while load[j] > limit[j] and guard < 10000:
            guard += 1
            own = np.asarray(members[j], dtype=np.int64)
            room = admissible[own] & ~(
                load + supplies[own][:, None] > limit
            )
            room[:, j] = False
            if room.any():
                extra = np.full(room.shape, np.inf)
                np.subtract(
                    costs[own], costs[own, j][:, None], out=extra, where=room
                )
                pick, t = divmod(int(np.argmin(extra)), k)
                a = int(own[pick])
            else:
                # cascade: make room in some admissible target t by
                # first moving one of t's members elsewhere (default
                # cells crowding a movebound region are the usual case)
                cascade = _find_cascade(
                    j, members, supplies, caps, limit, admissible, load
                )
                if cascade is None:
                    break  # genuinely stuck; leave the overflow
                (m, t, u), a = cascade
                move(m, t, u)
                cascades += 1
            move(a, j, t)
            evictions += 1
    overflow = float(np.max(np.maximum(load - caps, 0.0), initial=0.0))
    incr("partition.repair.calls")
    incr("partition.repair.moves", evictions + cascades)
    incr("partition.repair.cascades", cascades)
    incr("partition.repair.stuck", int(overflow > 0))
    return overflow


def _find_cascade(
    j: int,
    members: List[List[int]],
    supplies: np.ndarray,
    caps: np.ndarray,
    limit: np.ndarray,
    admissible: np.ndarray,
    load: np.ndarray,
):
    """Find a two-step repair: member m of target t moves to u (which
    has slack), freeing room in t for a cell a of the overfull j.
    Returns ``((m, t, u), a)`` or None.

    Cells of j and members of t are tried smallest supply first (stable,
    so equal supplies keep list order), targets ascending; per t the
    sorted members and their slack targets are worked out once."""
    prepared: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    own = np.asarray(members[j], dtype=np.int64)
    for a in own[np.argsort(supplies[own], kind="stable")].tolist():
        for t in np.nonzero(admissible[a])[0].tolist():
            if t == j:
                continue
            deficit = load[t] + supplies[a] - caps[t]
            if deficit <= 1e-9:
                continue  # direct move possible; handled by caller
            if t not in prepared:
                ms = np.asarray(members[t], dtype=np.int64)
                ms = ms[np.argsort(supplies[ms], kind="stable")]
                room = admissible[ms] & (
                    load + supplies[ms][:, None] <= limit
                )
                room[:, [t, j]] = False
                prepared[t] = (ms, room, room.any(axis=1))
            ms, room, has_room = prepared[t]
            big_enough = has_room & ~(supplies[ms] + 1e-9 < deficit)
            if big_enough.any():
                pick = int(np.argmax(big_enough))
                return (int(ms[pick]), t, int(np.argmax(room[pick]))), a
    return None
