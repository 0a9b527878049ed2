"""The §III partitioning step.

Given a set of cells and a set of capacitated *targets* (a window's
regions in realization's final step, the regions of a block of
windows in reflow, ECO repair and recursive partitioning, the
legalization regions), compute a minimum-movement assignment subject
to capacities and movebound admissibility:

    cost(c, target) = L1 distance,  or +inf when the cell's movebound
    does not cover the target,

solved as an unbalanced transportation problem and rounded to an
almost-integral assignment (at most |targets| - 1 split cells in the
fractional optimum; whole-cell rounding may overflow a target by at
most one cell).  The overflow is then repaired by relocating whole
cells (:func:`_repair_overflow`): an array pass per eviction that takes
the decisions of a scan over every (member, target) pair, in its order.

One instance type serves every caller: :func:`build_instance` makes a
picklable :class:`TransportInstance` from a cell set and its
:class:`TransportTargets`, :func:`solve_instances` solves a list of
them (a pure function, run by pool workers and in-process alike), and
:func:`spread_step` spreads each target's cells into its rectangles.
Realization's windows and recursive partitioning batch their instances
through :func:`repro.runstate.pool.solve_instance_batch`; legalization
and the reflow / ECO blocks (over :func:`block_targets`) call
:func:`partition_cells`, which keys the result back to its targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows import (
    RELAX_CHAIN_PARTITION,
    round_almost_integral,
    solve_transportation_with_relaxation,
)
from repro.geometry import RectSet, rect_array, rect_distances
from repro.netlist import Netlist
from repro.obs import incr
from repro.resilience.errors import InfeasibleInputError

#: a relaxation chain: ``(capacity multiplier, supply fraction)`` stages
Chain = Tuple[Tuple[float, float], ...]


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
class TransportInstance:
    """One §III step as arrays: cell arrays aligned with ``cells``
    (ascending ids), target arrays in the targets' order."""

    cells: np.ndarray  # int64, ascending
    #: per cell: its row of ``admits``
    codes: np.ndarray
    #: (bound codes, targets): may a cell of that code use the target
    admits: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    sizes: np.ndarray
    half_w: np.ndarray
    half_h: np.ndarray
    caps: np.ndarray
    #: per target: its (R, 4) :func:`~repro.geometry.rect_array`, for
    #: the costs and the spread
    rects: Tuple[np.ndarray, ...]

    @property
    def trivial(self) -> bool:
        """One target, with rectangles, admitting every cell: the
        assignment is forced."""
        return (
            len(self.caps) == 1
            and len(self.rects[0]) > 0
            and bool(self.admits[self.codes, 0].all())
        )


@dataclass
class StepResult:
    """The solve of one :class:`TransportInstance`."""

    #: the stage of the relaxation chain that was solved (0: exact)
    stage: int
    #: per cell: the index of its target; None when no stage is feasible
    target: Optional[np.ndarray]
    #: the transportation's cost (NaN where the closed form answered)
    cost: float = float("inf")

    @property
    def feasible(self) -> bool:
        return self.target is not None

    @property
    def relaxed(self) -> bool:
        return self.stage > 0


@dataclass
class PartitionOutcome(StepResult):
    """A :class:`StepResult` keyed back to its targets: ``assignment``
    maps each cell to its target's key (empty when infeasible)."""

    instance: Optional[TransportInstance] = None
    assignment: Dict[int, object] = field(default_factory=dict)


def build_instance(
    netlist: Netlist,
    cells: Sequence[int],
    targets: TransportTargets,
    admits: Optional[np.ndarray] = None,
) -> TransportInstance:
    """The instance assigning ``cells`` (ascending) to ``targets``.

    The cells' codes are the netlist's movebound group codes.  A caller
    with a (codes x targets) ``admits`` table of its own passes it;
    otherwise each movebound of the cells asks every target's
    ``admits`` once.
    """
    cells = np.asarray(cells, dtype=np.int64)
    all_codes, names = netlist.movebound_groups()
    codes = all_codes[cells]
    if admits is None:
        admits = np.zeros((len(names), len(targets.keys)), dtype=bool)
        for b in np.unique(codes).tolist():
            admits[b] = [ok(names[b]) for ok in targets.admits]
    _mv, half_w, half_h = netlist.cell_dims()
    return TransportInstance(
        cells=cells,
        codes=codes,
        admits=admits,
        xs=np.asarray(netlist.x[cells], dtype=np.float64),
        ys=np.asarray(netlist.y[cells], dtype=np.float64),
        sizes=netlist.cell_sizes()[cells],
        half_w=half_w[cells],
        half_h=half_h[cells],
        caps=np.asarray(targets.capacities, dtype=np.float64),
        rects=tuple(rect_array(area) for area in targets.areas),
    )


def _trivial_stage(total, cap, chain: Chain) -> Optional[int]:
    """First relaxation stage whose scaled capacity covers ``total``
    (the closed form of a one-column transportation feasibility check:
    ``cap * mult + frac * total`` is exactly the capacity the solver
    builds at that stage)."""
    for stage, (mult, frac) in enumerate(chain):
        if total <= cap * mult + frac * total:
            return stage
    return None


def solve_instances(
    instances: Sequence[TransportInstance],
    chain: Chain = RELAX_CHAIN_PARTITION,
    realize: bool = False,
) -> List[StepResult]:
    """Solve each instance over ``chain`` (the first feasible stage),
    round against the exact capacities and move whole cells out of the
    targets the rounding overfilled.

    ``realize`` marks realization's final windows, which keep their
    rounding debt (the caller accounts it) and need no LP when
    :attr:`~TransportInstance.trivial`: the assignment is forced and
    the stage is the first whose capacity covers the supply
    (:func:`_trivial_stage`).  That is the LP route's assignment
    (rounding a one-column flow can only pick column 0); only the stage
    could differ, for a supply within the LP's feasibility tolerance of
    a stage's capacity.
    """
    out: List[StepResult] = []
    for inst in instances:
        stage = None
        if realize and inst.trivial:
            stage = _trivial_stage(inst.sizes.sum(), inst.caps[0], chain)
        if stage is not None:
            forced = np.zeros(len(inst.cells), dtype=np.int64)
            out.append(StepResult(stage, forced, cost=math.nan))
            continue
        costs = transport_costs(
            inst.xs, inst.ys, inst.admits[inst.codes], inst.rects
        )
        tr, stage = solve_transportation_with_relaxation(
            inst.sizes, inst.caps, costs, chain=chain
        )
        if not tr.feasible:
            out.append(StepResult(stage, None))
            continue
        target, overflow = round_almost_integral(
            tr, inst.sizes, inst.caps, costs
        )
        if not realize and overflow > 0:
            _repair_overflow(target, inst.sizes, inst.caps, costs)
        out.append(StepResult(stage, target, tr.cost))
    return out


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


def spread_step(
    inst: TransportInstance, target: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """New positions of the instance's cells: each target's cells
    spread into its rectangles from their positions in the instance."""
    new_x = inst.xs.copy()
    new_y = inst.ys.copy()
    for b in np.unique(target):
        local = np.nonzero(target == b)[0]
        new_x[local], new_y[local] = spread_into_rects(
            inst.cells[local],
            inst.xs[local],
            inst.ys[local],
            inst.half_w[local],
            inst.half_h[local],
            inst.rects[int(b)],
        )
    return new_x, new_y


def block_targets(
    windows, usage: Dict, density_target: float
) -> TransportTargets:
    """The targets of a block of windows: every region with free
    capacity ``capacity - usage > 0``, keyed ``(window index, region)``;
    its cells spread into its free area."""
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
        [r.free_area for r in regions],
        [r.admits for r in regions],
    )


def partition_cells(
    netlist: Netlist,
    cell_indices: Sequence[int],
    targets: TransportTargets,
) -> PartitionOutcome:
    """Assign cells to targets minimizing L1 movement under capacities
    and movebound admissibility: one repaired step under the
    partitioning chain.

    When the exact instance is infeasible (e.g. rounding debt from an
    earlier step), capacities are relaxed by 10 % and then unboundedly,
    so the caller gets an assignment plus a ``relaxed`` flag instead of
    an exception.
    """
    if not len(cell_indices):
        return PartitionOutcome(0, np.empty(0, dtype=np.int64), 0.0)
    inst = build_instance(netlist, sorted(cell_indices), targets)
    (step,) = solve_instances([inst])
    out = PartitionOutcome(step.stage, step.target, step.cost, inst)
    if step.feasible:
        keys = [targets.keys[t] for t in step.target.tolist()]
        out.assignment = dict(zip(inst.cells.tolist(), keys))
    return out


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
