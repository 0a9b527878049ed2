"""Realization of the FBP flow (paper §IV.B, Figure 4).

A solved MinCostFlow prescribes, per movebound M and window w, how much
cell area must leave or enter over each window boundary.  Realization
turns this abstract flow into actual cell movement:

1. Directed cycles among flow-carrying external arcs are cancelled
   (they are cost-free at optimality, since all costs are >= 0), and
   :func:`repro.fbp.schedule.compute_schedule` groups the remaining
   arcs into rounds: an arc ``(v -> w, M, f)`` is ready once all
   external inflow of M into v has been realized, so enough M-cells
   are physically present in v, and the arcs of one round have
   disjoint *coarse windows* (the 2x3 / 3x2 block around v and w).
2. Per round, one local QP with all outside cells fixed refreshes the
   union of the round's coarse windows — the paper's
   connectivity-aware selection; the blocks are disjoint, so the joint
   system is block-diagonal.  It runs only when those blocks hold at
   most ``local_qp_cell_limit`` cells.
3. Each arc of the round is then shipped greedily (:func:`_ship_arc`):
   cells of M in v closest to the crossing transit point move to w
   until the arc's flow is covered.  Cells move whole, so each arc
   ships within half a cell of its flow; the deviation is accounted in
   ``rounding_error``.  Those per-arc errors add up in a window fed by
   several arcs, so the one-cell slack bound of the paper's "almost
   integral" guarantee does not hold here — the strict xfail
   ``tests/test_fbp_realization.py::TestFanInRounding`` pins a window
   that ends 5.0 over against a largest cell of 3.0.
4. Finally, every window partitions its cells among its regions R_w by
   the movebound-aware transportation of §III (the step that restores
   condition (1) inside each window) and cells are spread into their
   region's free area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.flows import RELAX_CHAIN_WINDOW, FlowResult
from repro.grid import Grid
from repro.netlist import Netlist
from repro.obs import incr, span
from repro.partitioning.transport import (
    TransportInstance,
    TransportTargets,
    build_instance,
    spread_step,
)
from repro.qp import QPOptions, solve_qp
from repro.resilience.faultinject import inject
from repro.fbp.model import ExternalArc, FBPModel


@dataclass
class RealizationResult:
    """Outcome and accounting of a realization pass."""

    arcs_realized: int = 0
    moved_area: float = 0.0
    #: total |shipped - prescribed| over all arcs (integrality slack)
    rounding_error: float = 0.0
    #: windows whose final transportation needed relaxed capacities
    relaxed_windows: List[int] = field(default_factory=list)
    #: the final partitioning: cell ``cells[k]`` went to region
    #: ``regions[k]`` of window ``windows[k]`` (windows ascending,
    #: cells ascending within a window)
    cells: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    windows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    regions: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    local_qp_calls: int = 0
    shipped_cells: int = 0
    seconds: float = 0.0
    #: capacity overflow of the final assignment (whole-cell rounding
    #: debt: each arc ships within half a cell of its flow, so a window
    #: fed by several arcs can end more than one cell over)
    total_overflow: float = 0.0
    max_overflow: float = 0.0

    @property
    def assignment(self) -> Dict[int, Tuple[int, int]]:
        """cell -> (window index, region index), built on demand."""
        return dict(zip(
            self.cells.tolist(),
            zip(self.windows.tolist(), self.regions.tolist()),
        ))


def cancel_external_cycles(
    flows: List[Tuple[ExternalArc, float]]
) -> List[Tuple[ExternalArc, float]]:
    """Cancel directed cycles among flow-carrying external arcs of the
    same movebound.  External arcs cost 0, so cancellation preserves
    optimality; it guarantees a topological order exists."""
    by_bound: Dict[str, List[List]] = {}
    for arc, f in flows:
        by_bound.setdefault(arc.bound, []).append([arc, f])

    out: List[Tuple[ExternalArc, float]] = []
    for bound, items in by_bound.items():
        # adjacency on windows
        changed = True
        while changed:
            changed = False
            adj: Dict[int, List[int]] = {}
            for idx, (arc, f) in enumerate(items):
                if f > 1e-9:
                    adj.setdefault(arc.src_window, []).append(idx)
            # DFS for a directed cycle
            color: Dict[int, int] = {}
            stack_edges: List[int] = []

            def dfs(u: int) -> Optional[List[int]]:
                color[u] = 1
                for idx in adj.get(u, ()):  # noqa: B023
                    arc, f = items[idx]
                    v = arc.dst_window
                    if color.get(v, 0) == 1:
                        # found cycle: unwind stack_edges back to v
                        cycle = [idx]
                        for eidx in reversed(stack_edges):
                            cycle.append(eidx)
                            if items[eidx][0].src_window == v:
                                break
                        return cycle
                    if color.get(v, 0) == 0:
                        stack_edges.append(idx)
                        found = dfs(v)
                        stack_edges.pop()
                        if found:
                            return found
                color[u] = 2
                return None

            for start in list(adj):
                if color.get(start, 0) == 0:
                    cycle = dfs(start)
                    if cycle:
                        delta = min(items[i][1] for i in cycle)
                        for i in cycle:
                            items[i][1] -= delta
                        changed = True
                        break
        out.extend(
            (arc, f) for arc, f in items if f > 1e-9
        )
    return out


def _crossing_point(grid: Grid, arc: ExternalArc) -> Tuple[float, float]:
    """The boundary point where the arc's flow crosses into the target."""
    return grid.windows[arc.src_window].boundary_center(arc.direction)


def _ids(cells) -> np.ndarray:
    """Member cells as ascending ids: the model's member arrays are
    ascending already, a set (or list) is sorted."""
    if isinstance(cells, np.ndarray):
        return cells
    return np.sort(np.fromiter(cells, np.int64, count=len(cells)))


def _mutable(members: Dict[Tuple[str, int], object], key) -> Set[int]:
    """The member set of ``key``; the model's (immutable) member array
    is copied into a set only when an arc first moves a cell out of or
    into it."""
    cur = members.get(key)
    if not isinstance(cur, set):
        cur = set() if cur is None else set(
            np.asarray(cur, dtype=np.int64).tolist()
        )
        members[key] = cur
    return cur


def _ship_arc(
    netlist: Netlist,
    grid: Grid,
    arc: ExternalArc,
    f: float,
    members: Dict[Tuple[str, int], object],
    cell_window: np.ndarray,
    sizes: np.ndarray,
    out: RealizationResult,
) -> None:
    """Ship the cells of ``arc.bound`` closest to the crossing point
    from the source into the destination window until ``f`` is covered;
    they land just inside it, keeping the coordinate parallel to the
    crossed boundary."""
    key_src = (arc.bound, arc.src_window)
    cand = _ids(members.get(key_src, ()))
    if not len(cand):
        out.rounding_error += f
        return
    # stable argsort over ascending ids: nearest first, ties by id
    cx, cy = _crossing_point(grid, arc)
    dist = np.abs(netlist.x[cand] - cx) + np.abs(netlist.y[cand] - cy)
    cand = cand[np.argsort(dist, kind="stable")]
    # cumsum adds left to right, so cum[k] is the area shipped after
    # cell k bit for bit and done[k] the area shipped before it
    cum = np.cumsum(sizes[cand])
    done = np.concatenate(([0.0], cum[:-1]))
    # stop once f is covered, or where overshooting would hurt more
    # than stopping short
    stop = (done >= f) | (cum - f > f - done)
    count = int(np.argmax(stop)) if stop.any() else len(cand)
    shipped = 0.0
    if count:
        moved = cand[:count]
        shipped = float(cum[count - 1])
        dst = grid.windows[arc.dst_window].rect
        if arc.direction in ("E", "W"):
            pad = min(dst.width * 0.05, 1.0)
            netlist.x[moved] = (
                dst.x_lo + pad if arc.direction == "E" else dst.x_hi - pad
            )
            netlist.y[moved] = np.minimum(
                np.maximum(netlist.y[moved], dst.y_lo), dst.y_hi
            )
        else:
            pad = min(dst.height * 0.05, 1.0)
            netlist.y[moved] = (
                dst.y_lo + pad if arc.direction == "N" else dst.y_hi - pad
            )
            netlist.x[moved] = np.minimum(
                np.maximum(netlist.x[moved], dst.x_lo), dst.x_hi
            )
        cell_window[moved] = arc.dst_window
        # in shipped order: the sets are iterated later, so their
        # insertion history is part of the result
        ids = moved.tolist()
        _mutable(members, key_src).difference_update(ids)
        _mutable(members, (arc.bound, arc.dst_window)).update(ids)
        out.shipped_cells += count
    out.moved_area += shipped
    out.rounding_error += abs(shipped - f)
    out.arcs_realized += 1


def realize_flow(
    model: FBPModel,
    result: FlowResult,
    qp_options: Optional[QPOptions] = None,
    run_local_qp: bool = True,
    local_qp_cell_limit: int = 500,
) -> RealizationResult:
    """Execute the full realization pass on the model's netlist.

    Mutates cell positions; returns accounting plus the final
    (cell, window, region) assignment as arrays.
    """
    inject("stage.fbp.realize")
    with span("realize") as sp:
        out = _realize_flow_impl(
            model,
            result,
            qp_options,
            run_local_qp,
            local_qp_cell_limit,
        )
    out.seconds = sp.wall_s
    incr("realize.arcs_realized", out.arcs_realized)
    incr("realize.local_qp_calls", out.local_qp_calls)
    incr("realize.shipped_cells", out.shipped_cells)
    incr("realize.moved_area", out.moved_area)
    return out


def _realize_flow_impl(
    model: FBPModel,
    result: FlowResult,
    qp_options: Optional[QPOptions],
    run_local_qp: bool,
    local_qp_cell_limit: int,
) -> RealizationResult:
    netlist = model.netlist
    grid = model.grid
    out = RealizationResult()
    qp_opts = qp_options or QPOptions()

    cell_window = model.cell_windows.copy()
    # (bound, window) -> member cells, kept current while moving (the
    # common zero-external-flow pass never pays a copy, see _mutable)
    names, start = model.bound_names, model.group_start.tolist()
    members: Dict[Tuple[str, int], object] = {
        (names[b], w): model.group_cells[start[g]:start[g + 1]]
        for g, (b, w) in enumerate(zip(
            model.group_bound.tolist(), model.group_window.tolist()
        ))
    }
    capacity = model.region_capacity

    sizes = netlist.cell_sizes()

    # Group arcs into rounds of independent realizations (disjoint
    # coarse windows, dependencies respected) — the paper's parallel
    # schedule, built on the cycle-cancelled flow.  One local QP covers
    # a whole round, since its blocks are disjoint: the joint system is
    # block-diagonal, and solving it once is cheaper than one solve per
    # arc.
    from repro.fbp.schedule import compute_schedule

    schedule = compute_schedule(model, model.external_flows(result))

    for round_arcs in schedule.rounds:
        if run_local_qp and round_arcs:
            block_ids: Set[int] = set()
            for arc in round_arcs:
                for w in grid.coarse_block(
                    grid.windows[arc.src_window],
                    grid.windows[arc.dst_window],
                ):
                    block_ids.add(w.index)
            # the member groups partition the cells: count the block's
            # first, and build its mask only when the local QP runs
            groups = [
                cells for key, cells in members.items()
                if key[1] in block_ids and len(cells)
            ]
            n_in_block = sum(map(len, groups))
            if 0 < n_in_block <= local_qp_cell_limit:
                in_block = np.zeros(netlist.num_cells, dtype=bool)
                for cells in groups:
                    in_block[_ids(cells)] = True
                net_ids = netlist.nets_of_cells(np.nonzero(in_block)[0])
                with span("realize.local_qp"):
                    solve_qp(
                        netlist, qp_opts, movable_mask=in_block, net_ids=net_ids
                    )
                out.local_qp_calls += 1

        for arc in round_arcs:
            _ship_arc(
                netlist,
                grid,
                arc,
                schedule.flow[arc.arc_id],
                members,
                cell_window,
                sizes,
                out,
            )

    # ------------------------------------------------------------------
    # final intra-window partitioning (§III, with movebound costs)
    # ------------------------------------------------------------------
    # group member cells per home window as cell-array parts; the
    # per-cell python walk of the former implementation only survives
    # for the rare stranded groups (window with no admissible region),
    # everything else is bulk array work
    window_parts: Dict[int, List[np.ndarray]] = {}
    # admissible (window, region) targets per bound, for stranding repair
    admissible_targets: Dict[str, List[Tuple[int, object]]] = {}

    def admissible(w, bound: str) -> list:
        """The regions of ``w`` with capacity whose area ``bound`` covers."""
        return [
            wr for wr in w.regions
            if wr.admits(bound)
            and capacity.get((w.index, wr.region.index), 0.0) > 0
        ]

    for (bound, widx), cells in members.items():
        if not len(cells):
            continue
        if admissible(grid.windows[widx], bound):
            window_parts.setdefault(widx, []).append(_ids(cells))
            continue
        # whole-cell rounding stranded these cells in a window with no
        # admissible region; send each to the nearest admissible one
        if bound not in admissible_targets:
            admissible_targets[bound] = [
                (w.index, wr) for w in grid for wr in admissible(w, bound)
            ]
        for c in cells:
            home = widx
            best = None
            for twidx, wr in admissible_targets[bound]:
                d = wr.free_area.distance_to_point(netlist.x[c], netlist.y[c])
                if best is None or d < best[0]:
                    best = (d, twidx)
            if best is not None:
                home = best[1]
                out.rounding_error += float(sizes[c])
            window_parts.setdefault(home, []).append(
                np.array([c], dtype=np.int64)
            )

    with span("realize.partition"):
        _partition_windows(model, capacity, out, window_parts)

    netlist.clamp_into_die()
    return out


def _partition_windows(
    model: FBPModel,
    capacity: Mapping[Tuple[int, int], float],
    out: RealizationResult,
    window_parts: Dict[int, List[np.ndarray]],
) -> None:
    """Final intra-window partitioning (§III) of the realization.

    Each window becomes one §III instance onto its regions with
    positive capacity, in window-region order; the netlist's movebound
    group codes and a per-(region, code) memo fill its admissibility
    table.  The instances are solved in window order (through the
    worker pool when one is active) as realization's steps: closed
    form, no repair.
    """
    from repro.runstate.pool import solve_instance_batch

    netlist = model.netlist
    grid = model.grid
    bound_of, bound_names = netlist.movebound_groups()
    #: per window: its index, each target's region index, its instance
    windows: List[Tuple[int, List[int], TransportInstance]] = []
    admit_memo: Dict[Tuple[int, int], bool] = {}
    with span("realize.specs"):
        for widx in sorted(window_parts):
            regions = [
                wr for wr in grid.windows[widx].regions
                if capacity.get((widx, wr.region.index), 0.0) > 0
            ]
            if not regions:
                # no region capacity: relaxed, cells left in place
                out.relaxed_windows.append(widx)
                continue
            ids = np.sort(np.concatenate(window_parts[widx]))
            codes = bound_of[ids]
            admits = np.empty((len(bound_names), len(regions)), dtype=bool)
            present = np.unique(codes).tolist()
            for b, wr in enumerate(regions):
                for code in present:
                    key = (wr.region.index, code)
                    if key not in admit_memo:
                        admit_memo[key] = bool(wr.admits(bound_names[code]))
                    admits[code, b] = admit_memo[key]
            keys = [wr.region.index for wr in regions]
            targets = TransportTargets(
                keys,
                np.array([capacity[(widx, r)] for r in keys]),
                [wr.free_area for wr in regions],
                [wr.admits for wr in regions],
            )
            inst = build_instance(netlist, ids, targets, admits)
            windows.append((widx, keys, inst))
    instances = [inst for _w, _k, inst in windows]
    incr("realize.windows", len(instances))
    incr("realize.trivial_windows", sum(i.trivial for i in instances))

    with span("realize.solve"):
        steps = solve_instance_batch(
            instances, RELAX_CHAIN_WINDOW, realize=True
        )

    assigned: List[Tuple[np.ndarray, int, np.ndarray]] = []
    with span("realize.merge"):
        for (widx, keys, inst), step in zip(windows, steps):
            if not step.feasible:
                # a cell no region admits: relaxed, cells left in place
                out.relaxed_windows.append(widx)
                continue
            netlist.x[inst.cells], netlist.y[inst.cells] = spread_step(
                inst, step.target
            )
            if step.relaxed:
                out.relaxed_windows.append(widx)
            assigned.append(
                (inst.cells, widx, np.asarray(keys)[step.target])
            )
            # overflow accounting of the final assignment — same float
            # accumulation order as the former global dict walk (cells
            # ascending within the window, regions in first-appearance
            # order, one window's regions never split across windows)
            loads = np.zeros(len(inst.caps))
            np.add.at(loads, step.target, inst.sizes)
            _vals, first = np.unique(step.target, return_index=True)
            for b in step.target[np.sort(first)]:
                over = float(loads[b]) - capacity.get(
                    (widx, keys[int(b)]), 0.0
                )
                if over > 0:
                    out.total_overflow += over
                    out.max_overflow = max(out.max_overflow, over)
    if assigned:
        cells, widx, ridx = zip(*assigned)
        out.cells = np.concatenate(cells).astype(np.int32)
        out.windows = np.repeat(
            np.asarray(widx, dtype=np.int32), [len(c) for c in cells]
        )
        out.regions = np.concatenate(ridx).astype(np.int32)
