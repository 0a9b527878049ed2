"""The global MinCostFlow model of FBP (paper §IV.A, Figures 2-3).

Node types per window w (per movebound M where applicable):

* cell group ``('cg', M, w)`` — supply = total size of M-cells in w,
  embedded at the cells' center of gravity;
* transit ``('t', M, w, d)`` for d in N/E/S/W — flow buffers, embedded
  at the boundary centers, zero balance;
* region ``('r', w, r)`` for r in R_w — demand = -capa(r), embedded at
  the center of gravity of the region's free area.

Edge sets per window and movebound (all uncapacitated, cost = L1
distance of embeddings):

* ``E^cr``: cell group -> admissible regions,
* ``E^ct``: cell group -> each transit,
* ``E^tt``: every ordered transit pair,
* ``E^tr``: transit -> admissible regions,

plus zero-cost external arcs between facing transit nodes of adjacent
windows (both directions).

Following the paper (and [22]) the model is pruned: transit and cell
group nodes of a movebound M appear only in windows intersecting
A(M)'s bounding box, empty cell groups are omitted, and border transits
with no external partner are dropped.  With this pruning |V| and |E|
are linear in |W| + |R| (Table I reports the ratio |E|/|V| ~ 4-5.5).

Theorem 3: this instance is feasible iff a fractional placement with
movebounds exists — the solver's feasibility flag is the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.flows import FlowResult, MinCostFlowProblem
from repro.grid import Grid, Window
from repro.grid.grid import DIRECTIONS
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet
from repro.netlist import Netlist
from repro.resilience.budget import SolverBudget
from repro.resilience.solver import ResilientSolver

#: Facing direction of each compass direction.
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


def _l1(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class ExternalArc:
    """A flow arc between transit nodes of adjacent windows."""

    arc_id: int
    bound: str
    src_window: int
    dst_window: int
    direction: str  # direction of travel seen from src (N/E/S/W)


@dataclass
class ModelStats:
    """Size accounting for Table I."""

    num_nodes: int = 0
    num_arcs: int = 0
    num_windows: int = 0
    num_regions: int = 0
    num_cell_groups: int = 0
    num_transits: int = 0
    num_external_arcs: int = 0

    @property
    def arc_node_ratio(self) -> float:
        return self.num_arcs / max(self.num_nodes, 1)


class FBPModel:
    """A built (but not yet solved) FBP MinCostFlow instance.

    Attributes
    ----------
    problem:
        The underlying :class:`MinCostFlowProblem`.
    cell_windows:
        Window index per cell (the input assignment).
    group_cells:
        ``(bound, window)`` -> movable cell indices in that group.
    region_arc_ids / external_arcs:
        Arc catalogs for flow readback by the realization step.
    """

    def __init__(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        grid: Grid,
        density_target: float,
    ) -> None:
        self.netlist = netlist
        self.bounds = bounds
        self.grid = grid
        self.density_target = density_target
        self.problem = MinCostFlowProblem()
        self.cell_windows: np.ndarray = np.zeros(0, dtype=np.int64)
        self.group_cells: Dict[Tuple[str, int], List[int]] = {}
        self.group_supply: Dict[Tuple[str, int], float] = {}
        #: (bound, window, region_index) -> arc id, for E^cr and E^tr arcs
        self.region_arc_ids: Dict[Tuple[str, int, int], List[int]] = {}
        self.external_arcs: List[ExternalArc] = []
        self.stats = ModelStats()
        self.region_capacity: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def solve(
        self,
        method: str = "lp",
        budget: Optional[SolverBudget] = None,
    ) -> FlowResult:
        """Solve the MinCostFlow; ``result.feasible`` is Theorem 3.

        The solve runs through :class:`ResilientSolver`: when the HiGHS
        LP exhausts its budget or hits numeric trouble, the Dinic-based
        transportation heuristic behind it still produces a
        feasibility answer.  The attempt log is available as
        ``result.attempts``.
        """
        solver = ResilientSolver.for_method(method, budget)
        return solver.solve(self.problem)

    def external_flows(
        self, result: FlowResult, tol: float = 1e-7
    ) -> List[Tuple[ExternalArc, float]]:
        """External arcs carrying flow, with their flow values."""
        out = []
        for arc in self.external_arcs:
            f = result.flow_on(arc.arc_id)
            if f > tol:
                out.append((arc, f))
        return out

    def prescribed_content(
        self, result: FlowResult
    ) -> Dict[Tuple[str, int], float]:
        """Final prescribed cell area per (bound, window):
        supply + external inflow - external outflow."""
        content = dict(self.group_supply)
        for arc, f in self.external_flows(result):
            key_src = (arc.bound, arc.src_window)
            key_dst = (arc.bound, arc.dst_window)
            content[key_src] = content.get(key_src, 0.0) - f
            content[key_dst] = content.get(key_dst, 0.0) + f
        return content

    def region_inflow(
        self, result: FlowResult
    ) -> Dict[Tuple[int, int], float]:
        """Flow absorbed by each (window, region) across all movebounds."""
        inflow: Dict[Tuple[int, int], float] = {}
        for (bound, widx, ridx), arc_ids in self.region_arc_ids.items():
            total = sum(result.flow_on(a) for a in arc_ids)
            if total > 0:
                key = (widx, ridx)
                inflow[key] = inflow.get(key, 0.0) + total
        return inflow


def fixed_cell_usage(
    netlist: Netlist, grid: Grid
) -> Dict[Tuple[int, int], float]:
    """Area consumed by fixed cells per (window, region), to be deducted
    from region capacities.  Blockages are already excluded from free
    areas; fixed *cells* (pre-placed macros) are handled here.

    Each fixed cell is intersected with the free area of every
    (window, region) piece of the windows its rectangle touches.
    """
    usage: Dict[Tuple[int, int], float] = {}
    for i in np.flatnonzero(netlist.fixed_mask).tolist():
        rect = netlist.cell_rect(i)
        lo = grid.window_at(rect.x_lo, rect.y_lo)
        hi = grid.window_at(
            min(rect.x_hi, grid.die.x_hi - 1e-12),
            min(rect.y_hi, grid.die.y_hi - 1e-12),
        )
        for iy in range(lo.iy, hi.iy + 1):
            for ix in range(lo.ix, hi.ix + 1):
                window = grid.window(ix, iy)
                for wr in window.regions:
                    overlap = wr.free_area.intersection_area(rect)
                    if overlap > 0:
                        key = (window.index, wr.region.index)
                        usage[key] = usage.get(key, 0.0) + overlap
    return usage


def build_fbp_model(
    netlist: Netlist,
    bounds: MoveBoundSet,
    grid: Grid,
    density_target: float = 1.0,
    cell_windows: Optional[np.ndarray] = None,
) -> FBPModel:
    """Build the FBP MinCostFlow instance for the current placement.

    ``cell_windows`` is the initial cell->window assignment (from a QP,
    a previous partitioning, or an incremental placement); it defaults
    to the windows containing the current cell centers.
    """
    model = FBPModel(netlist, bounds, grid, density_target)
    problem = model.problem

    if cell_windows is None:
        cell_windows = grid.assign_cells(netlist)
    model.cell_windows = cell_windows

    # ------------------------------------------------------------------
    # cell groups C_{Mw} — built by one stable sort over a combined
    # (movebound, window) key instead of a per-cell dict loop, so a
    # million-cell build stays array-speed.  Stable sort keeps members
    # in ascending cell order, matching the former append order.
    # ------------------------------------------------------------------
    group_stats: Dict[Tuple[str, int], Tuple[float, float, float]] = {}
    mv_idx = netlist.movable_indices
    if len(mv_idx):
        bcode, uniq_bounds = netlist.movebound_groups()
        combined = bcode[mv_idx] * len(grid) + np.asarray(
            cell_windows, dtype=np.int64
        )[mv_idx]
        order = np.argsort(combined, kind="stable")
        sorted_idx = mv_idx[order]
        sorted_comb = combined[order]
        starts = np.concatenate(
            ([0], np.nonzero(np.diff(sorted_comb))[0] + 1)
        )
        sizes = netlist.cell_sizes()[sorted_idx]
        wsum = np.add.reduceat(sizes, starts)
        wx = np.add.reduceat(sizes * netlist.x[sorted_idx], starts)
        wy = np.add.reduceat(sizes * netlist.y[sorted_idx], starts)
        ends = np.concatenate((starts[1:], [len(sorted_comb)]))
        for gi, (s, e) in enumerate(zip(starts, ends)):
            code = int(sorted_comb[s])
            key = (uniq_bounds[code // len(grid)], code % len(grid))
            model.group_cells[key] = sorted_idx[s:e].tolist()
            group_stats[key] = (
                float(wsum[gi]),
                float(wx[gi] / wsum[gi]),
                float(wy[gi] / wsum[gi]),
            )

    # Windows each movebound may use: bounding-box pruning ([22]).  The
    # box is widened to include windows currently holding the bound's
    # cells (an incremental placement may start them far from A(M)),
    # and kept rectangular so the transit network stays connected.
    bound_windows: Dict[str, Set[int]] = {}
    all_window_ids = {w.index for w in grid}
    group_windows: Dict[str, Set[int]] = {}
    for (bound_name, widx) in model.group_cells:
        group_windows.setdefault(bound_name, set()).add(widx)
    for bound in bounds.all_bounds():
        if bound.name == DEFAULT_BOUND:
            bound_windows[bound.name] = set(all_window_ids)
            continue
        bbox = bound.area.bounding_box()
        for widx in group_windows.get(bound.name, ()):
            bbox = bbox.bbox_union(grid.windows[widx].rect)
        ids = {
            w.index for w in grid if w.rect.overlaps(bbox)
        }
        ids |= group_windows.get(bound.name, set())
        bound_windows[bound.name] = ids

    # ------------------------------------------------------------------
    # region nodes (demand) and capacity bookkeeping
    # ------------------------------------------------------------------
    usage = fixed_cell_usage(netlist, grid)
    region_nodes: Dict[int, List[Tuple[int, Tuple[float, float]]]] = {}
    for window in grid:
        entries = []
        for wr in window.regions:
            cap = wr.capacity(density_target)
            cap -= usage.get((window.index, wr.region.index), 0.0)
            if cap <= 1e-12:
                continue
            key = ("r", window.index, wr.region.index)
            problem.add_node(key, -cap)
            model.region_capacity[(window.index, wr.region.index)] = cap
            entries.append((wr.region.index, wr.centroid()))
            model.stats.num_regions += 1
        region_nodes[window.index] = entries

    # fast admissibility lookup: window -> region_index -> WindowRegion
    wr_lookup: Dict[int, Dict[int, object]] = {
        w.index: {wr.region.index: wr for wr in w.regions} for w in grid
    }

    # ------------------------------------------------------------------
    # per-movebound subgraphs
    # ------------------------------------------------------------------
    active_bounds = sorted(
        {b for (b, _w) in model.group_cells}
        | {b.name for b in bounds.all_bounds() if bound_windows.get(b.name)}
    )
    # only build transit networks for movebounds that have cells
    bounds_with_cells = sorted({b for (b, _w) in model.group_cells})

    transit_exists: Set[Tuple[str, int, str]] = set()
    for bound_name in bounds_with_cells:
        windows = bound_windows.get(bound_name, set())
        for widx in sorted(windows):
            window = grid.windows[widx]
            for d in DIRECTIONS:
                neighbor = grid.neighbor(window, d)
                if neighbor is not None and neighbor.index in windows:
                    transit_exists.add((bound_name, widx, d))

    for bound_name in bounds_with_cells:
        windows = bound_windows.get(bound_name, set())
        for widx in sorted(windows):
            window = grid.windows[widx]
            transits = [
                d for d in DIRECTIONS if (bound_name, widx, d) in transit_exists
            ]
            for d in transits:
                problem.add_node(("t", bound_name, widx, d), 0.0)
                model.stats.num_transits += 1
            n_t = len(transits)
            t_keys = [("t", bound_name, widx, d) for d in transits]
            tpts = np.array(
                [window.boundary_center(d) for d in transits],
                dtype=np.float64,
            ).reshape(n_t, 2)
            # admissibility evaluated once per region (not once per
            # transit×region pair); the arc cost matrices below
            # broadcast coordinate-wise |Δx| + |Δy|, which is the same
            # float expression _l1 evaluates arc by arc
            adm = [
                (ridx, centroid)
                for ridx, centroid in region_nodes[widx]
                if wr_lookup[widx][ridx].admits(bound_name)
            ]
            n_r = len(adm)
            r_keys = [("r", widx, ridx) for ridx, _ in adm]
            rpts = np.array(
                [c for _, c in adm], dtype=np.float64
            ).reshape(n_r, 2)

            # E^tt — ordered transit pairs inside the window
            if n_t > 1:
                dist_tt = np.abs(
                    tpts[:, None, 0] - tpts[None, :, 0]
                ) + np.abs(tpts[:, None, 1] - tpts[None, :, 1])
                i1, i2 = np.nonzero(~np.eye(n_t, dtype=bool))
                problem.add_arcs(
                    [t_keys[i] for i in i1],
                    [t_keys[j] for j in i2],
                    dist_tt[i1, i2],
                )
            # E^tr — transit to admissible regions (transit-major, the
            # row-major ravel of the T x R distance matrix)
            if n_t and n_r:
                dist_tr = np.abs(
                    tpts[:, None, 0] - rpts[None, :, 0]
                ) + np.abs(tpts[:, None, 1] - rpts[None, :, 1])
                arc_ids = iter(
                    problem.add_arcs(
                        [tk for tk in t_keys for _ in range(n_r)],
                        r_keys * n_t,
                        dist_tr.ravel(),
                    )
                )
                for _ in transits:
                    for (ridx, _c), aid in zip(adm, arc_ids):
                        model.region_arc_ids.setdefault(
                            (bound_name, widx, ridx), []
                        ).append(aid)

            # cell group of this window (if any)
            key = (bound_name, widx)
            cells = model.group_cells.get(key)
            if cells:
                supply, gx, gy = group_stats[key]
                cg_key = ("cg", bound_name, widx)
                problem.add_node(cg_key, supply)
                model.group_supply[key] = supply
                model.stats.num_cell_groups += 1
                # E^cr
                if n_r:
                    dist_cr = np.abs(gx - rpts[:, 0]) + np.abs(
                        gy - rpts[:, 1]
                    )
                    cr_ids = problem.add_arcs(
                        [cg_key] * n_r, r_keys, dist_cr
                    )
                    for (ridx, _c), aid in zip(adm, cr_ids):
                        model.region_arc_ids.setdefault(
                            (bound_name, widx, ridx), []
                        ).append(aid)
                # E^ct
                if n_t:
                    dist_ct = np.abs(gx - tpts[:, 0]) + np.abs(
                        gy - tpts[:, 1]
                    )
                    problem.add_arcs(
                        [cg_key] * n_t, t_keys, dist_ct
                    )

        # E^ext — zero-cost arcs between facing transits
        for widx in sorted(windows):
            window = grid.windows[widx]
            for d in ("N", "E"):  # each adjacency handled once, both arcs added
                if (bound_name, widx, d) not in transit_exists:
                    continue
                neighbor = grid.neighbor(window, d)
                if neighbor is None or neighbor.index not in windows:
                    continue
                od = OPPOSITE[d]
                if (bound_name, neighbor.index, od) not in transit_exists:
                    continue
                a = ("t", bound_name, widx, d)
                b = ("t", bound_name, neighbor.index, od)
                aid = problem.add_arc(a, b, 0.0)
                model.external_arcs.append(
                    ExternalArc(aid, bound_name, widx, neighbor.index, d)
                )
                bid = problem.add_arc(b, a, 0.0)
                model.external_arcs.append(
                    ExternalArc(bid, bound_name, neighbor.index, widx, od)
                )

    model.stats.num_windows = len(grid)
    model.stats.num_nodes = len(problem.nodes)
    model.stats.num_arcs = len(problem.arcs)
    model.stats.num_external_arcs = len(model.external_arcs)
    return model
