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

Storage.  The model is arrays from end to end: :func:`build_fbp_model`
emits the node and arc columns of :class:`MinCostFlowProblem` by array
operations over all (movebound, window) pairs of a movebound at once,
and the model keeps its cell groups (a CSR), region nodes, external
arcs and node names as columns too.  The keys above, the
:class:`~repro.flows.Arc` records and the :class:`ExternalArc` records
are built on demand by the views (``problem.nodes`` / ``problem.arcs``,
:attr:`FBPModel.external_arcs`); a flow readback is one mask or one
``bincount``.  The rows and columns are those of the former per-arc
builder, in its order:

* nodes: the region nodes in grid order, then per movebound (sorted)
  and window (ascending) the window's transits N/E/S/W and its cell
  group;
* arcs, per (movebound, window): ``E^tt`` transit-major without the
  diagonal, ``E^tr`` transit-major, ``E^cr``, ``E^ct``; then the
  movebound's external pairs, window-ascending, N before E, both
  directions;

and every cost is the same ``|Δx| + |Δy|`` float expression, so HiGHS
receives the identical LP (``tests/test_fbp_lp_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.flows import FlowResult, MinCostFlowProblem
from repro.grid import Grid
from repro.grid.grid import DIRECTIONS
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet
from repro.netlist import Netlist
from repro.records import Records
from repro.resilience.budget import SolverBudget
from repro.resilience.solver import ResilientSolver

#: Facing direction of each compass direction.
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


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


def _ints(n: int = 0) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


class FBPModel:
    """A built (but not yet solved) FBP MinCostFlow instance.

    Attributes
    ----------
    problem:
        The underlying :class:`MinCostFlowProblem`.
    cell_windows:
        Window index per cell (the input assignment).
    bound_names:
        The netlist's movebound group names (sorted); every bound code
        below indexes it.
    group_*:
        The cell groups C_{Mw} in (bound code, window) order: group
        ``g`` of bound ``group_bound[g]`` in window ``group_window[g]``
        holds cells ``group_cells[group_start[g]:group_start[g + 1]]``
        (ascending) of total area ``group_area[g]``; ``group_node[g]``
        is its cell-group node (-1 where the bound has no windows).
    region_*:
        Node ``r < len(region_cap)`` is region ``region_index[r]`` of
        window ``region_window[r]`` with capacity ``region_cap[r]``.
    ext_*:
        External arc ``k`` is arc ``ext_arc[k]``, from window
        ``ext_src[k]`` to ``ext_dst[k]`` of bound ``ext_bound[k]``,
        travelling ``DIRECTIONS[ext_dir[k]]``.
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
        self.cell_windows: np.ndarray = _ints()
        self.bound_names: List[str] = []
        self.group_bound = self.group_window = self.group_node = _ints()
        self.group_start = _ints(1)
        self.group_cells = _ints()
        self.group_area = np.zeros(0)
        self.region_window = self.region_index = _ints()
        self.region_cap = np.zeros(0)
        self.ext_arc = self.ext_bound = _ints()
        self.ext_src = self.ext_dst = self.ext_dir = _ints()
        self.stats = ModelStats()

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

    # ------------------------------------------------------------------
    # views, built on demand
    # ------------------------------------------------------------------
    def _external_rows(self, ids) -> List[ExternalArc]:
        names = self.bound_names
        return [
            ExternalArc(a, names[b], s, t, DIRECTIONS[d])
            for a, b, s, t, d in zip(
                *(col[ids].tolist() for col in (
                    self.ext_arc, self.ext_bound, self.ext_src,
                    self.ext_dst, self.ext_dir,
                ))
            )
        ]

    @property
    def external_arcs(self) -> Records:
        """The external arcs as :class:`ExternalArc` records."""
        return Records(
            lambda: len(self.ext_arc),
            lambda a, b: iter(self._external_rows(slice(a, b))),
        )

    @property
    def group_supply(self) -> Mapping[Tuple[str, int], float]:
        """Supply per (bound, window) cell-group node (read-only)."""
        has = np.flatnonzero(self.group_node >= 0)
        names = self.bound_names
        return MappingProxyType({
            (names[b], w): s
            for b, w, s in zip(
                self.group_bound[has].tolist(),
                self.group_window[has].tolist(),
                self.group_area[has].tolist(),
            )
        })

    @property
    def region_capacity(self) -> Mapping[Tuple[int, int], float]:
        """Capacity per (window, region) node (read-only)."""
        return MappingProxyType(dict(zip(
            zip(self.region_window.tolist(), self.region_index.tolist()),
            self.region_cap.tolist(),
        )))

    # ------------------------------------------------------------------
    # flow readback
    # ------------------------------------------------------------------
    def external_flows(
        self, result: FlowResult, tol: float = 1e-7
    ) -> List[Tuple[ExternalArc, float]]:
        """External arcs carrying flow, with their flow values."""
        flows = result.flows[self.ext_arc]
        carrying = np.flatnonzero(flows > tol)
        return list(zip(
            self._external_rows(carrying), flows[carrying].tolist()
        ))

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
        """Flow absorbed by each (window, region) across all movebounds.

        Region nodes are the first nodes and only region arcs end at
        them, so this is one ``bincount`` over the arcs' heads."""
        n = len(self.region_cap)
        heads = self.problem.heads
        into = heads < n
        inflow = np.bincount(
            heads[into], weights=result.flows[into], minlength=n
        )
        got = np.flatnonzero(inflow > 0)
        return dict(zip(
            zip(self.region_window[got].tolist(),
                self.region_index[got].tolist()),
            inflow[got].tolist(),
        ))


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


def _node_keys(window, bound, sub, names, nodes: np.ndarray) -> list:
    """The keys of ``nodes`` from the model's node columns: ``bound`` is
    -1 for a region node, ``sub`` its region index, a transit's
    direction index, or -1 for a cell group."""
    return [
        ("r", w, s) if b < 0
        else ("cg", names[b], w) if s < 0
        else ("t", names[b], w, DIRECTIONS[s])
        for w, b, s in zip(
            window[nodes].tolist(), bound[nodes].tolist(), sub[nodes].tolist()
        )
    ]


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, rank)`` per item when owner ``i`` holds ``counts[i]``
    consecutive items: item ``k`` is the ``rank[k]``-th of ``owner[k]``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


def _cell_groups(model: FBPModel) -> Tuple[np.ndarray, np.ndarray]:
    """The groups C_{Mw} by one stable sort over a combined (movebound,
    window) key: members stay in ascending cell order.  Returns each
    group's center of gravity (x, y)."""
    netlist, n_win = model.netlist, len(model.grid)
    codes, names = netlist.movebound_groups()
    model.bound_names = list(names)
    mv_idx = netlist.movable_indices
    if not len(mv_idx):
        return np.zeros(0), np.zeros(0)
    combined = codes[mv_idx] * n_win + np.asarray(
        model.cell_windows, dtype=np.int64
    )[mv_idx]
    order = np.argsort(combined, kind="stable")
    cells = mv_idx[order]
    combined = combined[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(combined)) + 1))
    model.group_bound, model.group_window = np.divmod(combined[starts], n_win)
    model.group_start = np.append(starts, len(cells))
    model.group_cells = cells
    sizes = netlist.cell_sizes()[cells]
    area = model.group_area = np.add.reduceat(sizes, starts)
    model.group_node = np.full(len(starts), -1, dtype=np.int64)
    return (
        np.add.reduceat(sizes * netlist.x[cells], starts) / area,
        np.add.reduceat(sizes * netlist.y[cells], starts) / area,
    )


@dataclass
class _Geometry:
    """Per-window arrays of the grid: the neighbor (-1 at the border)
    and the boundary center (transit embedding) in each direction, and
    the window rectangles for the bounding-box pruning."""

    neighbor: np.ndarray  # (windows, 4)
    bx: np.ndarray  # (windows, 4)
    by: np.ndarray
    rects: np.ndarray  # (windows, 4): x_lo, y_lo, x_hi, y_hi

    @classmethod
    def of(cls, grid: Grid) -> "_Geometry":
        rects = np.array(
            [(w.rect.x_lo, w.rect.y_lo, w.rect.x_hi, w.rect.y_hi)
             for w in grid],
            dtype=np.float64,
        )
        ix = np.array([w.ix for w in grid], dtype=np.int64)
        iy = np.array([w.iy for w in grid], dtype=np.int64)
        idx = np.arange(len(grid))
        # N, E, S, W
        neighbor = np.column_stack([
            np.where(iy + 1 < grid.ny, idx + grid.nx, -1),
            np.where(ix + 1 < grid.nx, idx + 1, -1),
            np.where(iy > 0, idx - grid.nx, -1),
            np.where(ix > 0, idx - 1, -1),
        ])
        x_lo, y_lo, x_hi, y_hi = rects.T
        cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        bx = np.column_stack([cx, x_hi, cx, x_lo])
        by = np.column_stack([y_hi, cy, y_lo, cy])
        return cls(neighbor, bx, by, rects)


def _bound_windows(
    model: FBPModel, code: int, geometry: _Geometry
) -> np.ndarray:
    """Windows bound ``code`` may use (a mask): bounding-box pruning
    ([22]).  The box is widened to include windows currently holding
    the bound's cells (an incremental placement may start them far from
    A(M)), and kept rectangular so the transit network stays
    connected."""
    name = model.bound_names[code]
    n_win = len(model.grid)
    if name == DEFAULT_BOUND:
        return np.ones(n_win, dtype=bool)
    if name not in model.bounds:
        return np.zeros(n_win, dtype=bool)
    held = model.group_window[model.group_bound == code]
    box = model.bounds.get(name).area.bounding_box()
    x_lo, y_lo, x_hi, y_hi = geometry.rects[held].T
    bx_lo = min(box.x_lo, float(x_lo.min()))
    by_lo = min(box.y_lo, float(y_lo.min()))
    bx_hi = max(box.x_hi, float(x_hi.max()))
    by_hi = max(box.y_hi, float(y_hi.max()))
    x_lo, y_lo, x_hi, y_hi = geometry.rects.T
    mask = (x_lo < bx_hi) & (bx_lo < x_hi) & (y_lo < by_hi) & (by_lo < y_hi)
    mask[held] = True
    return mask


@dataclass
class _Regions:
    """The region nodes, numbered first and in grid order: window,
    region index, capacity, embedding and the region itself (for
    admissibility)."""

    window: np.ndarray
    index: np.ndarray
    cap: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    regions: list

    @classmethod
    def of(cls, model: FBPModel) -> "_Regions":
        usage = fixed_cell_usage(model.netlist, model.grid)
        rows, regions = [], []
        for window in model.grid:
            for wr in window.regions:
                cap = wr.capacity(model.density_target)
                cap -= usage.get((window.index, wr.region.index), 0.0)
                if cap <= 1e-12:
                    continue
                rows.append((window.index, wr.region.index, cap,
                             *wr.centroid()))
                regions.append(wr.region)
        cols = list(zip(*rows)) or [()] * 5
        window, index = (np.array(c, dtype=np.int64) for c in cols[:2])
        cap, rx, ry = (np.array(c, dtype=np.float64) for c in cols[2:])
        return cls(window, index, cap, rx, ry, regions)


def _bound_block(
    model: FBPModel,
    code: int,
    geometry: _Geometry,
    regions: _Regions,
    center: Tuple[np.ndarray, np.ndarray],
    node_base: int,
    arc_base: int,
) -> Tuple[tuple, tuple, tuple]:
    """The nodes, arcs and external arcs of one movebound's subgraph.

    Returns the columns ``(supply, window, bound, sub)`` of its nodes
    (see :func:`_node_keys`), ``(tails, heads, costs)`` of its arcs and
    ``(arc, bound, src, dst, dir)`` of its external arcs, numbered from
    ``node_base`` / ``arc_base``.
    """
    n_win = len(model.grid)
    name = model.bound_names[code]
    wl = np.flatnonzero(_bound_windows(model, code, geometry))
    n = len(wl)
    # transits: towards a neighbor the bound may use too
    nb = geometry.neighbor[wl]
    inside = np.zeros(n_win + 1, dtype=bool)  # [-1] = off the grid
    inside[wl] = True
    ex = inside[nb]
    n_t = ex.sum(axis=1)
    group_of = np.full(n_win, -1, dtype=np.int64)
    mine = np.flatnonzero(model.group_bound == code)
    group_of[model.group_window[mine]] = mine
    g_of = group_of[wl]
    has_g = g_of >= 0

    # nodes: per window its transits N/E/S/W, then its cell group
    slots = np.column_stack([ex, has_g])
    rows, slot = np.nonzero(slots)
    slot_node = np.full((n, 5), -1, dtype=np.int64)
    slot_node[rows, slot] = node_base + np.arange(len(rows))
    supply = np.zeros(len(rows))
    cg = slot == 4
    supply[cg] = model.group_area[g_of[rows[cg]]]
    model.group_node[g_of[has_g]] = slot_node[has_g, 4]
    node_cols = (
        supply, wl[rows], np.full(len(rows), code), np.where(cg, -1, slot)
    )

    # admissible regions per window, in the window's order
    admits = np.fromiter(
        (r.admits(name) for r in regions.regions), bool, len(regions.regions)
    )
    adm = np.flatnonzero(admits)
    per_window = np.bincount(regions.window[adm], minlength=n_win)
    r_first = (np.cumsum(per_window) - per_window)[wl]
    n_r = per_window[wl]

    # arc slots per window: E^tt, E^tr, E^cr, E^ct
    counts = np.column_stack([
        n_t * (n_t - 1), n_t * n_r, has_g * n_r, has_g * n_t
    ])
    block_at = np.cumsum(counts.ravel()).reshape(n, 4) - counts
    m = int(counts.sum())
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    costs = np.empty(m, dtype=np.float64)
    bx, by = geometry.bx[wl], geometry.by[wl]
    gx, gy = center[0][g_of], center[1][g_of]

    def emit(block, row, rank, tail, head, cost):
        at = block_at[row, block] + rank
        tails[at], heads[at], costs[at] = tail, head, cost

    # E^tt — ordered transit pairs, transit-major
    pairs = ex[:, :, None] & ex[:, None, :] & ~np.eye(4, dtype=bool)
    r, d1, d2 = np.nonzero(pairs)
    emit(0, r, _ragged(counts[:, 0])[1], slot_node[r, d1], slot_node[r, d2],
         np.abs(bx[r, d1] - bx[r, d2]) + np.abs(by[r, d1] - by[r, d2]))
    # E^tr — each transit to the admissible regions
    tr, td = np.nonzero(ex)
    k, j = _ragged(n_r[tr])
    r, d = tr[k], td[k]
    reg = adm[r_first[r] + j]
    emit(1, r, _ragged(counts[:, 1])[1], slot_node[r, d], reg,
         np.abs(bx[r, d] - regions.rx[reg])
         + np.abs(by[r, d] - regions.ry[reg]))
    # E^cr — the cell group to the admissible regions
    gr = np.flatnonzero(has_g)
    k, j = _ragged(n_r[gr])
    r = gr[k]
    reg = adm[r_first[r] + j]
    emit(2, r, j, slot_node[r, 4], reg,
         np.abs(gx[r] - regions.rx[reg]) + np.abs(gy[r] - regions.ry[reg]))
    # E^ct — the cell group to each transit
    k, j = _ragged(n_t[gr])
    r = gr[k]
    d = td[(np.cumsum(n_t) - n_t)[r] + j]
    emit(3, r, j, slot_node[r, 4], slot_node[r, d],
         np.abs(gx[r] - bx[r, d]) + np.abs(gy[r] - by[r, d]))

    # E^ext — zero-cost arcs between facing transits, both directions
    er, ed = np.nonzero(ex[:, :2])  # N before E
    row_of = np.full(n_win, -1, dtype=np.int64)
    row_of[wl] = np.arange(n)
    src, dst = wl[er], nb[er, ed]
    a, b = slot_node[er, ed], slot_node[row_of[dst], ed + 2]
    arcs = (
        np.concatenate([tails, np.column_stack([a, b]).ravel()]),
        np.concatenate([heads, np.column_stack([b, a]).ravel()]),
        np.concatenate([costs, np.zeros(2 * len(er))]),
    )
    ext = (
        arc_base + m + np.arange(2 * len(er)),
        np.full(2 * len(er), code),
        np.column_stack([src, dst]).ravel(),
        np.column_stack([dst, src]).ravel(),
        np.column_stack([ed, ed + 2]).ravel(),
    )
    return node_cols, arcs, ext


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
    if cell_windows is None:
        cell_windows = grid.assign_cells(netlist)
    model.cell_windows = cell_windows
    center = _cell_groups(model)

    regions = _Regions.of(model)
    model.region_window, model.region_index = regions.window, regions.index
    model.region_cap = regions.cap
    n_reg = len(regions.cap)

    # per-movebound subgraphs, for the movebounds that have cells
    geometry = _Geometry.of(grid)
    nodes = [(-regions.cap, regions.window, np.full(n_reg, -1), regions.index)]
    arcs = [(_ints(), _ints(), np.zeros(0))]
    ext = [(_ints(),) * 5]
    num_nodes, num_arcs = n_reg, 0
    for code in np.unique(model.group_bound).tolist():
        node_cols, arc_cols, ext_cols = _bound_block(
            model, code, geometry, regions, center, num_nodes, num_arcs
        )
        nodes.append(node_cols)
        arcs.append(arc_cols)
        ext.append(ext_cols)
        num_nodes += len(node_cols[0])
        num_arcs += len(arc_cols[0])

    supply, *keyed = (np.concatenate(c) for c in zip(*nodes))
    window, bound, sub = (c.astype(np.int32) for c in keyed)
    model.problem = MinCostFlowProblem(
        partial(_node_keys, window, bound, sub, model.bound_names)
    )
    model.problem.add_nodes(supply)
    model.problem.add_arcs(*(np.concatenate(c) for c in zip(*arcs)))
    (model.ext_arc, model.ext_bound, model.ext_src, model.ext_dst,
     model.ext_dir) = (np.concatenate(c) for c in zip(*ext))

    has = model.group_node >= 0
    model.stats = ModelStats(
        num_nodes=num_nodes,
        num_arcs=num_arcs,
        num_windows=len(grid),
        num_regions=n_reg,
        num_cell_groups=int(has.sum()),
        num_transits=num_nodes - n_reg - int(has.sum()),
        num_external_arcs=len(model.ext_arc),
    )
    return model
