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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows import (
    RELAX_CHAIN_PARTITION,
    TransportResult,
    round_almost_integral,
    solve_transportation_with_relaxation,
)
from repro.geometry import RectSet
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
    k = len(targets.keys)
    costs = np.full((len(cells), k), np.inf)
    # one vectorized distance pass per target instead of a Python loop
    # per (cell, target) pair; admissibility is resolved once per
    # distinct movebound name (identical values to the scalar path)
    bound_names = [
        netlist.cells[i].movebound or DEFAULT_BOUND for i in cells
    ]
    xs = np.asarray(netlist.x[cells], dtype=np.float64)
    ys = np.asarray(netlist.y[cells], dtype=np.float64)
    # encode each cell's movebound as an index into the distinct names
    # once; each target then answers admissibility once per distinct
    # name and the per-cell mask is a single vectorized gather
    unique_bounds, codes = np.unique(np.asarray(bound_names), return_inverse=True)
    uniq = [str(b) for b in unique_bounds]
    for j in range(k):
        area = targets.areas[j]
        if area.is_empty:
            continue
        admits_j = targets.admits[j]
        admit_u = np.fromiter(
            (admits_j(b) for b in uniq), dtype=bool, count=len(uniq)
        )
        mask = admit_u[codes]
        if not mask.any():
            continue
        d = area.distances_to_points(xs, ys)
        costs[mask, j] = d[mask]
    return TransportProblem(
        cells, supplies, targets.capacities.astype(float), costs
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
