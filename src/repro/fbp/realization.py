"""Realization of the FBP flow (paper §IV.B, Figure 4).

A solved MinCostFlow prescribes, per movebound M and window w, how much
cell area must leave or enter over each window boundary.  Realization
turns this abstract flow into actual cell movement:

1. Directed cycles among flow-carrying external arcs are cancelled
   (they are cost-free at optimality, since all costs are >= 0).
2. The remaining external arcs are processed in topological order of
   the flow-carrying graph; an arc ``(v -> w, M, f)`` can only be
   realized once all external inflow of M into v has been realized, so
   enough M-cells are physically present in v.
3. For each arc, a *coarse window* (the 2x3 / 3x2 block around v and w)
   is refreshed by a local QP with all outside cells fixed — this is
   the paper's connectivity-aware selection — and then cells of M in v
   closest (after QP) to the crossing transit point are shipped to w
   until the arc's flow is covered.  Cells move whole, so the shipped
   area matches f up to half the largest cell size; the deviation is
   tracked and absorbed by capacity slack, mirroring the paper's
   "almost integral" guarantee.
4. Finally, every window partitions its cells among its regions R_w by
   the movebound-aware transportation of §III (the step that restores
   condition (1) inside each window) and cells are spread into their
   region's free area.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flows import RELAX_CHAIN_WINDOW, FlowResult
from repro.geometry import Rect
from repro.grid import Grid
from repro.netlist import Netlist
from repro.obs import incr, span
from repro.qp import QPOptions, solve_qp
from repro.resilience.errors import PipelineStageError
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
    #: cell -> (window index, region index) after final partitioning
    assignment: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    local_qp_calls: int = 0
    shipped_cells: int = 0
    seconds: float = 0.0
    #: capacity overflow of the final assignment (whole-cell rounding
    #: debt; the paper's "almost integral" guarantee bounds max by one
    #: cell per window-region)
    total_overflow: float = 0.0
    max_overflow: float = 0.0


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


def topological_arc_order(
    flows: List[Tuple[ExternalArc, float]]
) -> List[Tuple[ExternalArc, float]]:
    """Order external arcs so every arc appears after all arcs flowing
    into its source window (per movebound).  Requires acyclic input
    (run :func:`cancel_external_cycles` first)."""
    order: List[Tuple[ExternalArc, float]] = []
    by_bound: Dict[str, List[Tuple[ExternalArc, float]]] = {}
    for arc, f in flows:
        by_bound.setdefault(arc.bound, []).append((arc, f))
    for bound in sorted(by_bound):
        items = by_bound[bound]
        indegree: Dict[int, int] = {}
        outgoing: Dict[int, List[int]] = {}
        for idx, (arc, _f) in enumerate(items):
            indegree.setdefault(arc.src_window, 0)
            indegree[arc.dst_window] = indegree.get(arc.dst_window, 0) + 1
            outgoing.setdefault(arc.src_window, []).append(idx)
        ready = sorted(w for w, d in indegree.items() if d == 0)
        emitted = [False] * len(items)
        queue = list(ready)
        while queue:
            w = queue.pop(0)
            for idx in outgoing.get(w, ()):  # all arcs out of w are ready
                if emitted[idx]:
                    continue
                emitted[idx] = True
                arc, f = items[idx]
                order.append((arc, f))
                indegree[arc.dst_window] -= 1
                if indegree[arc.dst_window] == 0:
                    queue.append(arc.dst_window)
        if not all(emitted):
            raise PipelineStageError(
                f"external flow of movebound {bound!r} is cyclic; "
                "run cancel_external_cycles first",
                stage="fbp.realize",
            )
    return order


def _crossing_point(grid: Grid, arc: ExternalArc) -> Tuple[float, float]:
    """The boundary point where the arc's flow crosses into the target."""
    return grid.windows[arc.src_window].boundary_center(arc.direction)


def _mutable(members: Dict[Tuple[str, int], object], key) -> Set[int]:
    """The member set of ``key``; the model's (immutable) list is copied
    into a set only when an arc first moves a cell out of or into it."""
    cur = members.get(key)
    if not isinstance(cur, set):
        cur = set(cur) if cur is not None else set()
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
    candidates = sorted(members.get(key_src, ()))
    if not candidates:
        out.rounding_error += f
        return
    # stable argsort over ascending ids: nearest first, ties by id
    cx, cy = _crossing_point(grid, arc)
    cand = np.asarray(candidates, dtype=np.int64)
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


def _spread_into_rects(
    netlist: Netlist,
    cell_indices: List[int],
    rects: Sequence[Rect],
) -> None:
    """Place a group of cells inside a set of rectangles, allocating
    cells to rectangles proportionally to area and rescaling relative
    positions so ordering is preserved."""
    if not len(cell_indices) or not rects:
        return
    rects = sorted(rects, key=lambda r: (r.x_lo, r.y_lo))
    areas = np.array([r.area for r in rects])
    total = areas.sum()
    if total <= 0:
        areas = np.ones(len(rects))
        total = float(len(rects))
    # order cells by x to keep left-to-right structure (lexsort is
    # stable, so coincident positions keep the incoming order — same
    # tie-break as sorting on the (x, y) tuple)
    ci = np.asarray(cell_indices, dtype=np.int64)
    _mv, half_w, half_h = netlist._dim_arrays()
    ordered = ci[np.lexsort((netlist.y[ci], netlist.x[ci]))]
    counts = np.floor(areas / total * len(ordered)).astype(int)
    while counts.sum() < len(ordered):
        counts[int(np.argmax(areas / np.maximum(counts, 1)))] += 1
    pos = 0
    for rect, count in zip(rects, counts):
        group = ordered[pos : pos + count]
        pos += count
        if not len(group):
            continue
        # Rank-based ordered spreading: cells are laid out on a grid of
        # columns (by x-rank) and rows within each column (by y-rank).
        # This preserves the relative order of the incoming placement —
        # the information that matters at window granularity — while
        # guaranteeing an even spread even when positions coincide
        # (local QPs can collapse a dense group onto a point).
        n = len(group)
        aspect = rect.width / max(rect.height, 1e-9)
        cols = min(max(int(round(math.sqrt(n * aspect))), 1), n)
        rows_per_col = math.ceil(n / cols)
        by_x = group[np.lexsort((group, netlist.y[group], netlist.x[group]))]
        for col in range(cols):
            column = by_x[col * rows_per_col : (col + 1) * rows_per_col]
            column = column[
                np.lexsort((column, netlist.x[column], netlist.y[column]))
            ]
            fx = (col + 0.5) / cols
            fy = (np.arange(len(column)) + 0.5) / len(column)
            hw = np.minimum(half_w[column], rect.width / 2)
            hh = np.minimum(half_h[column], rect.height / 2)
            netlist.x[column] = rect.x_lo + hw + fx * np.maximum(
                rect.width - 2 * hw, 0.0
            )
            netlist.y[column] = rect.y_lo + hh + fy * np.maximum(
                rect.height - 2 * hh, 0.0
            )


def realize_flow(
    model: FBPModel,
    result: FlowResult,
    qp_options: Optional[QPOptions] = None,
    run_local_qp: bool = True,
    local_qp_cell_limit: int = 500,
    transport_method: str = "auto",
    realize_tiles: Optional[int] = None,
) -> RealizationResult:
    """Execute the full realization pass on the model's netlist.

    Mutates cell positions; returns accounting plus the final
    cell -> (window, region) assignment.  ``transport_method`` selects
    the backend of the final per-window transportation solves
    (``"ns"`` warm-starts relaxation-chain re-solves).

    ``realize_tiles`` controls the tile-parallel dispatch of the final
    per-window partitioning when a worker pool is active: ``None``
    picks ``min(8, nx, ny)`` tiles per axis, ``0``/``1`` force the
    in-process serial path.  Output bits are identical either way.
    """
    inject("stage.fbp.realize")
    with span("realize") as sp:
        out = _realize_flow_impl(
            model,
            result,
            qp_options,
            run_local_qp,
            local_qp_cell_limit,
            transport_method,
            realize_tiles,
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
    transport_method: str = "auto",
    realize_tiles: Optional[int] = None,
) -> RealizationResult:
    netlist = model.netlist
    grid = model.grid
    out = RealizationResult()
    qp_opts = qp_options or QPOptions()

    cell_window = model.cell_windows.copy()
    # (bound, window) -> member cells, kept current while moving (the
    # common zero-external-flow pass never pays a copy, see _mutable)
    members: Dict[Tuple[str, int], object] = dict(model.group_cells)

    sizes = netlist.cell_sizes()

    flows = cancel_external_cycles(model.external_flows(result))

    # Group arcs into rounds of independent realizations (disjoint
    # coarse windows, dependencies respected) — the paper's parallel
    # schedule.  One local QP covers a whole round, since its blocks
    # are disjoint: the joint system is block-diagonal, and solving it
    # once is cheaper than one solve per arc.
    from repro.fbp.schedule import compute_schedule

    schedule = compute_schedule(model, flows)
    flow_of = {arc.arc_id: f for arc, f in flows}

    for round_arcs in schedule.rounds:
        if run_local_qp and round_arcs:
            in_block = np.zeros(netlist.num_cells, dtype=bool)
            block_ids: Set[int] = set()
            for arc in round_arcs:
                for w in grid.coarse_block(
                    grid.windows[arc.src_window],
                    grid.windows[arc.dst_window],
                ):
                    block_ids.add(w.index)
            for key, cells in members.items():
                if key[1] in block_ids and len(cells):
                    in_block[
                        np.fromiter(cells, np.int64, count=len(cells))
                    ] = True
            n_in_block = int(in_block.sum())
            if 0 < n_in_block <= local_qp_cell_limit:
                net_ids = netlist.nets_of_cells(np.nonzero(in_block)[0])
                local_nets = [netlist.nets[i] for i in net_ids.tolist()]
                with span("realize.local_qp"):
                    solve_qp(
                        netlist,
                        qp_opts,
                        movable_mask=in_block,
                        nets=local_nets,
                    )
                out.local_qp_calls += 1

        for arc in round_arcs:
            _ship_arc(
                netlist,
                grid,
                arc,
                flow_of[arc.arc_id],
                members,
                cell_window,
                sizes,
                out,
            )

    # ------------------------------------------------------------------
    # final intra-window partitioning (§III, with movebound costs)
    # ------------------------------------------------------------------
    # group member cells per home window as (cell array, bound code)
    # parts; the per-cell python walk of the former implementation only
    # survives for the rare stranded groups (window with no admissible
    # region), everything else is bulk array work
    window_parts: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    bound_code: Dict[str, int] = {}
    bound_names: List[str] = []
    # admissible (window, region) targets per bound, for stranding repair
    admissible_targets: Dict[str, List[Tuple[int, object]]] = {}
    for (bound, widx), cells in members.items():
        if not len(cells):
            continue
        code = bound_code.get(bound)
        if code is None:
            code = len(bound_names)
            bound_code[bound] = code
            bound_names.append(bound)
        has_admissible = any(
            wr.admits(bound)
            and model.region_capacity.get(
                (widx, wr.region.index), 0.0
            )
            > 0
            for wr in grid.windows[widx].regions
        )
        if has_admissible:
            arr = np.fromiter(cells, dtype=np.int64, count=len(cells))
            window_parts.setdefault(widx, []).append((arr, code))
            continue
        # whole-cell rounding stranded these cells in a window with no
        # admissible region; send each to the nearest admissible one
        if bound not in admissible_targets:
            targets = []
            for w in grid:
                for wr in w.regions:
                    if (
                        wr.admits(bound)
                        and model.region_capacity.get(
                            (w.index, wr.region.index), 0.0
                        )
                        > 0
                    ):
                        targets.append((w.index, wr))
            admissible_targets[bound] = targets
        for c in cells:
            home = widx
            best = None
            for twidx, wr in admissible_targets[bound]:
                d = wr.free_area.distance_to_point(
                    netlist.x[c], netlist.y[c]
                ) if not wr.free_area.is_empty else float("inf")
                if best is None or d < best[0]:
                    best = (d, twidx)
            if best is not None:
                home = best[1]
                out.rounding_error += float(sizes[c])
            window_parts.setdefault(home, []).append(
                (np.array([c], dtype=np.int64), code)
            )

    with span("realize.partition"):
        _partition_windows(
            model,
            out,
            window_parts,
            bound_names,
            method=transport_method,
            realize_tiles=realize_tiles,
        )

    netlist.clamp_into_die()
    return out


def _partition_windows(
    model: FBPModel,
    out: RealizationResult,
    window_parts: Dict[int, List[Tuple[np.ndarray, int]]],
    bound_names: Sequence[str],
    method: str = "auto",
    realize_tiles: Optional[int] = None,
) -> None:
    """Final intra-window partitioning (§III) of the realization.

    Each window becomes a self-contained
    :class:`~repro.fbp.realize_windows.WindowSpec` (built in
    deterministic window order); specs are realized — tile-parallel
    through the supervised worker pool when one is active, serially
    otherwise; both paths are bit-identical — and the outcomes are
    merged back in sorted window order, so neither the tiling nor the
    pool size can affect output bits.
    """
    from repro.fbp.realize_windows import build_window_specs
    from repro.runstate.pool import solve_realize_batch

    netlist = model.netlist
    grid = model.grid

    # one (cells, codes) entry per window, cells ascending
    entries: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for widx in sorted(window_parts):
        parts = window_parts[widx]
        ids = np.concatenate([a for a, _c in parts])
        codes = np.concatenate(
            [np.full(len(a), c, dtype=np.int64) for a, c in parts]
        )
        order = np.argsort(ids)
        entries.append((widx, ids[order], codes[order]))

    with span("realize.specs"):
        specs, skipped = build_window_specs(model, entries, bound_names)
    # windows with no region capacity: relaxed, cells left in place
    out.relaxed_windows.extend(skipped)
    incr("realize.windows", len(specs))
    incr(
        "realize.trivial_windows", sum(1 for s in specs if s.trivial)
    )

    with span("realize.solve"):
        outcomes = solve_realize_batch(
            specs,
            grid,
            chain=RELAX_CHAIN_WINDOW,
            method=method,
            tiles=realize_tiles,
        )

    if os.environ.get("REPRO_VERIFY_REALIZE"):
        _verify_realize(specs, outcomes, method)

    with span("realize.merge"):
        for spec, oc in zip(specs, outcomes):
            netlist.x[oc.cells] = oc.new_x
            netlist.y[oc.cells] = oc.new_y
            if oc.stage > 0:
                out.relaxed_windows.append(oc.widx)
            region_idx = np.asarray(spec.region_idx, dtype=np.int64)
            ridx = region_idx[oc.assignment]
            out.assignment.update(
                zip(
                    oc.cells.tolist(),
                    zip([oc.widx] * len(oc.cells), ridx.tolist()),
                )
            )
            # overflow accounting of the final assignment — same float
            # accumulation order as the former global dict walk (cells
            # ascending within the window, regions in first-appearance
            # order, one window's regions never split across windows)
            loads = np.zeros(len(spec.caps))
            np.add.at(loads, oc.assignment, spec.sizes)
            _vals, first = np.unique(oc.assignment, return_index=True)
            for b in oc.assignment[np.sort(first)]:
                over = float(loads[b]) - model.region_capacity.get(
                    (oc.widx, spec.region_idx[int(b)]), 0.0
                )
                if over > 0:
                    out.total_overflow += over
                    out.max_overflow = max(out.max_overflow, over)


def _verify_realize(specs, outcomes, method: str) -> None:
    """Shadow mode (``REPRO_VERIFY_REALIZE=1``): re-realize every
    window serially through the general LP path (fast path disabled)
    and require bitwise-identical positions and assignments.

    The reported relaxation *stage* is deliberately not compared: at
    exact capacity boundaries the closed-form feasibility check and the
    LP solver's tolerance can disagree on the stage while producing the
    same placement."""
    from repro.fbp.realize_windows import realize_unit

    ref = realize_unit(
        specs,
        chain=RELAX_CHAIN_WINDOW,
        method=method,
        use_fast_path=False,
    )
    for oc, rf in zip(outcomes, ref):
        if (
            oc.new_x.tobytes() != rf.new_x.tobytes()
            or oc.new_y.tobytes() != rf.new_y.tobytes()
            or not np.array_equal(oc.assignment, rf.assignment)
        ):
            raise PipelineStageError(
                "realization shadow verify mismatch in window "
                f"{oc.widx}",
                stage="fbp.realize",
            )
    incr("realize.verified", len(specs))
