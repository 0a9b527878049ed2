"""Sharded solving of the global FBP MinCostFlow (scale sweep path).

The monolithic model of :mod:`repro.fbp.model` couples every window
through the transit network; at a million cells (128x128 windows) one
flat MinCostFlow solve dominates the runtime and working set.
Sharding splits the window grid into ``sx x sy`` spatial *tiles* and
solves each tile independently through the same supervised
transportation machinery (:func:`repro.runstate.pool.
solve_transport_batch`) the intra-window partitioning already uses:

1. External arcs whose endpoints fall in different tiles (the *cut*
   arcs) are severed; every other arc stays.
2. Within one (movebound, tile) the remaining network is uncapacitated
   with non-negative costs, so its optimal flow decomposes into
   shortest source->sink paths.  Each tile therefore collapses to a
   plain transportation problem: sources are the tile's cell groups,
   sinks the tile's region capacities, and costs are Dijkstra
   shortest-path distances on the (movebound, tile) subgraph.
3. The tile solutions are read back onto the original arcs by walking
   the Dijkstra predecessor trees, producing a synthetic
   :class:`~repro.flows.mincostflow.FlowResult` over the *full* model
   that the unchanged realization pass consumes.

Cross-tile *reconciliation*: when some tile cannot hold its own supply
(or a source has no admissible sink inside its tile), a coarse FBP
model at tile granularity — the same builder, on a ``sx x sy`` grid
whose regions are the unions of the fine pieces — prescribes inter-tile
transfers.  Each coarse transfer is mapped onto one deterministic fine
cut arc (the one whose crossing point lies closest to the shared tile
boundary's midpoint) and injected into the tile transportation
problems as a virtual sink column (exporter) / virtual source row
(importer) priced at the Dijkstra distance to/from that arc's transit
nodes.

Contract (asserted by ``tests/test_sharding.py`` and stated in
``docs/performance.md``):

* **Zero-cut identity** — when the sharded run reports zero flow on
  cut arcs *and* zero flow on surviving external arcs, and the
  monolithic solve also routes no external flow, both paths hand the
  identical group membership to the identical final intra-window
  partitioning, so the resulting placements are byte-identical.
* **Bounded degradation** — when cuts do carry flow the sharded
  placement is an approximation; the report carries the cut flow area
  and relaxed-tile list so callers (and the scale benchmark) can gate
  on a bounded HPWL delta instead of silently accepting drift.
* Sharded solves are bit-identical across pool sizes: tile tasks are
  built and read back in deterministic tile order and the batch solve
  itself is pooled/serial bit-identical by the pool's own contract.

The path never makes a feasible instance infeasible: any situation the
tile decomposition cannot express (coarse model infeasible, a coarse
transfer with no matching fine cut arc, a tile transportation that
stays infeasible after the relaxation chain) falls back to the
monolithic solve and says so in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fbp.model import OPPOSITE, ExternalArc, FBPModel, build_fbp_model
from repro.fbp.realization import cancel_external_cycles
from repro.flows import RELAX_CHAIN_WINDOW, FlowResult
from repro.flows.mincostflow import SolveStats
from repro.flows.tolerances import SIGNIFICANCE_EPS, scale_eps
from repro.geometry import RectSet
from repro.grid import Grid
from repro.grid.grid import WindowRegion
from repro.obs import incr, span


@dataclass
class ShardReport:
    """Accounting of one sharded solve (attached to the FBP report)."""

    tiles_x: int
    tiles_y: int
    num_tiles: int
    #: tiles that actually held supply or received a transfer
    active_tiles: int = 0
    #: fine external arcs severed by the tiling
    cut_arcs: int = 0
    #: flow the final result carries across tile cuts (0 = exact regime)
    cut_flow_area: float = 0.0
    #: flow on surviving (intra-tile) external arcs
    nonlocal_flow_area: float = 0.0
    #: tiles whose transportation needed relaxed capacities
    relaxed_tiles: List[int] = field(default_factory=list)
    #: whether the coarse tile-level reconciliation ran
    reconciled: bool = False
    #: inter-tile transfers prescribed by the coarse model
    reconcile_transfers: int = 0
    coarse_cost: float = float("nan")
    #: set when the sharded path gave up and solved monolithically
    fallback: Optional[str] = None


@dataclass
class _Transfer:
    """One coarse inter-tile transfer pinned to a fine cut arc."""

    bound: str
    src_tile: int
    dst_tile: int
    flow: float
    fine: ExternalArc

    @property
    def exit_key(self) -> tuple:
        return ("t", self.bound, self.fine.src_window, self.fine.direction)

    @property
    def entry_key(self) -> tuple:
        d = OPPOSITE[self.fine.direction]
        return ("t", self.bound, self.fine.dst_window, d)


class _TileGraph:
    """The (movebound, tile) subgraph in local-index form."""

    __slots__ = ("index", "edges", "dist", "pred", "src_row")

    def __init__(self) -> None:
        self.index: Dict[tuple, int] = {}
        #: (u, v) local pair -> (cost, arc id); parallel arcs keep the min
        self.edges: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self.dist: Optional[np.ndarray] = None
        self.pred: Optional[np.ndarray] = None
        self.src_row: Dict[tuple, int] = {}

    def node(self, key: tuple) -> int:
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.index)
            self.index[key] = idx
        return idx

    def add(self, tail: tuple, head: tuple, cost: float, aid: int) -> None:
        uv = (self.node(tail), self.node(head))
        prev = self.edges.get(uv)
        if prev is None or cost < prev[0]:
            self.edges[uv] = (cost, aid)

    def run_dijkstra(self, sources: Sequence[tuple]) -> None:
        """Shortest paths from every listed source key (skipping keys
        the graph never saw — their distances read as unreachable)."""
        # imported here: only the sharded solve uses scipy.sparse (an
        # unsharded place never loads it)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        self.src_row = {}
        present = [k for k in sources if k in self.index]
        n = len(self.index)
        if not present or not n:
            self.dist = None
            return
        rows = np.fromiter(
            (u for u, _v in self.edges), dtype=np.int64, count=len(self.edges)
        )
        cols = np.fromiter(
            (v for _u, v in self.edges), dtype=np.int64, count=len(self.edges)
        )
        costs = np.fromiter(
            (c for c, _a in self.edges.values()),
            dtype=np.float64,
            count=len(self.edges),
        )
        mat = csr_matrix((costs, (rows, cols)), shape=(n, n))
        idx = [self.index[k] for k in present]
        self.dist, self.pred = dijkstra(
            mat, directed=True, indices=idx, return_predecessors=True
        )
        self.src_row = {k: r for r, k in enumerate(present)}

    def distance(self, src: tuple, dst: tuple) -> float:
        if self.dist is None:
            return float("inf")
        row = self.src_row.get(src)
        tgt = self.index.get(dst)
        if row is None or tgt is None:
            return float("inf")
        return float(self.dist[row, tgt])

    def walk(
        self, src: tuple, dst: tuple, amount: float, flows: np.ndarray
    ) -> None:
        """Accumulate ``amount`` onto every arc of the shortest
        ``src -> dst`` path (predecessor walk, arc ids via edges)."""
        row = self.src_row[src]
        v = self.index[dst]
        o = self.index[src]
        pred = self.pred[row]
        while v != o:
            u = int(pred[v])
            if u < 0:  # disconnected — caller guaranteed finite distance
                raise RuntimeError("predecessor walk left the tree")
            flows[self.edges[(u, v)][1]] += amount
            v = u


class _NeedReconcile(Exception):
    """A tile cannot route its supply locally; coarse pass required."""


class _ShardFallback(Exception):
    """The tile decomposition cannot express this instance."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def tile_of_windows(grid: Grid, sx: int, sy: int) -> np.ndarray:
    """Tile index of every window for an ``sx x sy`` tiling."""
    out = np.empty(len(grid.windows), dtype=np.int64)
    for w in grid.windows:
        tx = w.ix * sx // grid.nx
        ty = w.iy * sy // grid.ny
        out[w.index] = ty * sx + tx
    return out


def _build_tile_graphs(
    model: FBPModel, wtile: np.ndarray, cut_ids: frozenset
) -> Dict[Tuple[str, int], _TileGraph]:
    """Group every surviving arc into its (movebound, tile) subgraph.

    Only cell-group and transit nodes ever appear as arc tails, and
    both carry their movebound and window in the key, so the owning
    subgraph is read straight off the tail.  All non-external arcs
    stay inside one window; external arcs were pre-classified.
    """
    graphs: Dict[Tuple[str, int], _TileGraph] = {}
    for aid, arc in enumerate(model.problem.arcs):
        if aid in cut_ids:
            continue
        tail = arc.tail
        key = (tail[1], int(wtile[tail[2]]))
        g = graphs.get(key)
        if g is None:
            g = graphs[key] = _TileGraph()
        g.add(tail, arc.head, arc.cost, aid)
    return graphs


def _coarse_tile_grid(grid: Grid, sx: int, sy: int, wtile: np.ndarray) -> Grid:
    """A ``sx x sy`` grid whose R_w are the unions of the fine window
    pieces — geometrically identical to re-clipping the decomposition,
    just split into more rectangles (areas, capacities, centroids and
    admissibility all agree)."""
    coarse = Grid(grid.die, sx, sy)
    per: Dict[Tuple[int, int], Tuple[object, List, List]] = {}
    for w in grid.windows:
        t = int(wtile[w.index])
        for wr in w.regions:
            entry = per.get((t, wr.region.index))
            if entry is None:
                entry = per[(t, wr.region.index)] = (wr.region, [], [])
            entry[1].extend(wr.area)
            entry[2].extend(wr.free_area)
    for (t, _ridx), (region, rects, free) in sorted(
        per.items(), key=lambda kv: kv[0]
    ):
        coarse.windows[t].regions.append(
            WindowRegion(t, region, RectSet(rects), RectSet(free))
        )
    return coarse


def _plan_transfers(
    model: FBPModel,
    wtile: np.ndarray,
    sx: int,
    sy: int,
    report: ShardReport,
) -> List[_Transfer]:
    """Solve the coarse tile-level FBP and pin each inter-tile flow to
    one deterministic fine cut arc."""
    grid = model.grid
    coarse = _coarse_tile_grid(grid, sx, sy, wtile)
    coarse_cw = wtile[model.cell_windows]
    coarse_model = build_fbp_model(
        model.netlist,
        model.bounds,
        coarse,
        model.density_target,
        cell_windows=coarse_cw,
    )
    coarse_result = coarse_model.solve()
    if not coarse_result.feasible:
        raise _ShardFallback("coarse tile model infeasible")
    report.coarse_cost = coarse_result.cost
    flows = cancel_external_cycles(coarse_model.external_flows(coarse_result))

    cut_by_pair: Dict[Tuple[str, int, int], List[ExternalArc]] = {}
    for ext in model.external_arcs:
        st, dt = int(wtile[ext.src_window]), int(wtile[ext.dst_window])
        if st != dt:
            cut_by_pair.setdefault((ext.bound, st, dt), []).append(ext)

    transfers: List[_Transfer] = []
    for carc, f in flows:
        cands = cut_by_pair.get((carc.bound, carc.src_window, carc.dst_window))
        if not cands:
            raise _ShardFallback(
                "coarse transfer has no matching fine cut arc"
            )
        mx, my = coarse.windows[carc.src_window].boundary_center(
            carc.direction
        )

        def rank(e: ExternalArc) -> tuple:
            cx, cy = grid.windows[e.src_window].boundary_center(e.direction)
            return (abs(cx - mx) + abs(cy - my), e.src_window, e.arc_id)

        fine = min(cands, key=rank)
        transfers.append(
            _Transfer(carc.bound, carc.src_window, carc.dst_window, f, fine)
        )
    transfers.sort(key=lambda tr: (tr.bound, tr.fine.arc_id))
    return transfers


@dataclass
class _TileTask:
    """One tile's transportation instance plus readback bookkeeping."""

    tile: int
    #: (bound, origin node key) per row — cell groups then virtual inflows
    rows: List[Tuple[str, tuple]]
    #: (bound filter, target node key, cut arc id or -1) per column
    cols: List[Tuple[Optional[str], tuple, int]]
    supplies: np.ndarray
    caps: np.ndarray
    costs: np.ndarray
    num_real_rows: int = 0


def _build_tasks(
    model: FBPModel,
    wtile: np.ndarray,
    graphs: Dict[Tuple[str, int], _TileGraph],
    transfers: List[_Transfer],
    reconciled: bool,
) -> List[_TileTask]:
    """Assemble every tile's transportation problem (deterministic tile
    order), pricing real sinks and virtual transfer columns with the
    Dijkstra distances."""
    group_supply = model.group_supply
    region_capacity = model.region_capacity
    tile_sources: Dict[int, List[Tuple[str, int]]] = {}
    for bound, widx in sorted(group_supply):
        tile_sources.setdefault(int(wtile[widx]), []).append((bound, widx))
    tile_sinks: Dict[int, List[Tuple[int, int]]] = {}
    for widx, ridx in sorted(region_capacity):
        tile_sinks.setdefault(int(wtile[widx]), []).append((widx, ridx))
    tile_out: Dict[int, List[_Transfer]] = {}
    tile_in: Dict[int, List[_Transfer]] = {}
    for tr in transfers:
        tile_out.setdefault(tr.src_tile, []).append(tr)
        tile_in.setdefault(tr.dst_tile, []).append(tr)

    # one Dijkstra sweep per (bound, tile): sources are the tile's cell
    # groups plus the entry transits of inbound transfers
    wanted: Dict[Tuple[str, int], List[tuple]] = {}
    for tile, groups in tile_sources.items():
        for bound, widx in groups:
            wanted.setdefault((bound, tile), []).append(("cg", bound, widx))
    for tr in transfers:
        wanted.setdefault((tr.bound, tr.dst_tile), []).append(tr.entry_key)
    for key, sources in wanted.items():
        g = graphs.get(key)
        if g is not None:
            g.run_dijkstra(sources)

    tiles = sorted(set(tile_sources) | set(tile_in))
    tasks: List[_TileTask] = []
    for tile in tiles:
        rows: List[Tuple[str, tuple]] = [
            (bound, ("cg", bound, widx))
            for bound, widx in tile_sources.get(tile, [])
        ]
        num_real = len(rows)
        supplies = [
            group_supply[(bound, widx)]
            for bound, widx in tile_sources.get(tile, [])
        ]
        for tr in tile_in.get(tile, []):
            rows.append((tr.bound, tr.entry_key))
            supplies.append(tr.flow)
        cols: List[Tuple[Optional[str], tuple, int]] = [
            (None, ("r", widx, ridx), -1)
            for widx, ridx in tile_sinks.get(tile, [])
        ]
        caps = [
            region_capacity[(widx, ridx)]
            for widx, ridx in tile_sinks.get(tile, [])
        ]
        for tr in tile_out.get(tile, []):
            cols.append((tr.bound, tr.exit_key, tr.fine.arc_id))
            caps.append(tr.flow)

        costs = np.full((len(rows), len(cols)), np.inf)
        for i, (bound, origin) in enumerate(rows):
            g = graphs.get((bound, tile))
            if g is None:
                continue
            for j, (col_bound, target, _aid) in enumerate(cols):
                if col_bound is not None and col_bound != bound:
                    continue
                costs[i, j] = g.distance(origin, target)
        finite_rows = np.isfinite(costs).any(axis=1)
        if not finite_rows[:num_real].all() and not reconciled:
            # a cell group with no admissible sink in its own tile —
            # only a cross-tile transfer can place it
            raise _NeedReconcile()
        tasks.append(
            _TileTask(
                tile,
                rows,
                cols,
                np.asarray(supplies, dtype=np.float64),
                np.asarray(caps, dtype=np.float64),
                costs,
                num_real,
            )
        )
    return tasks


def solve_sharded(
    model: FBPModel,
    shard_tiles: int,
) -> Tuple[FlowResult, ShardReport]:
    """Solve the built FBP model tile-by-tile; see the module docstring
    for the exactness contract.  Returns the synthetic flow result over
    the full model plus the shard accounting."""
    grid = model.grid
    sx = max(1, min(int(shard_tiles), grid.nx))
    sy = max(1, min(int(shard_tiles), grid.ny))
    report = ShardReport(sx, sy, sx * sy)
    incr("shard.solves")
    if sx * sy <= 1:
        report.fallback = "single tile"
        return model.solve(), report

    wtile = tile_of_windows(grid, sx, sy)
    cut_ids = frozenset(
        ext.arc_id
        for ext in model.external_arcs
        if wtile[ext.src_window] != wtile[ext.dst_window]
    )
    report.cut_arcs = len(cut_ids)
    incr("shard.cut_arcs", len(cut_ids))

    try:
        return _solve_sharded_impl(
            model, wtile, sx, sy, cut_ids, report
        )
    except _ShardFallback as exc:
        report.fallback = exc.reason
        incr("shard.fallbacks")
        return model.solve(), report


def _solve_sharded_impl(
    model: FBPModel,
    wtile: np.ndarray,
    sx: int,
    sy: int,
    cut_ids: frozenset,
    report: ShardReport,
) -> Tuple[FlowResult, ShardReport]:
    from repro.runstate.pool import solve_transport_batch

    with span("shard.graphs"):
        graphs = _build_tile_graphs(model, wtile, cut_ids)

    # aggregate precheck: a tile holding more supply than capacity can
    # only be solved with cross-tile transfers
    supply_by_tile: Dict[int, float] = {}
    for (bound, widx), s in model.group_supply.items():
        t = int(wtile[widx])
        supply_by_tile[t] = supply_by_tile.get(t, 0.0) + s
    cap_by_tile: Dict[int, float] = {}
    for (widx, ridx), c in model.region_capacity.items():
        t = int(wtile[widx])
        cap_by_tile[t] = cap_by_tile.get(t, 0.0) + c
    eps = scale_eps(max(supply_by_tile.values(), default=0.0))
    need_reconcile = any(
        s > cap_by_tile.get(t, 0.0) + eps
        for t, s in supply_by_tile.items()
    )

    transfers: List[_Transfer] = []
    while True:
        if need_reconcile and not report.reconciled:
            with span("shard.coarse"):
                transfers = _plan_transfers(
                    model, wtile, sx, sy, report
                )
            report.reconciled = True
            report.reconcile_transfers = len(transfers)
            incr("shard.reconciled_runs")
            incr("shard.reconcile_transfers", len(transfers))
        try:
            with span("shard.build"):
                tasks = _build_tasks(
                    model, wtile, graphs, transfers, report.reconciled
                )
            break
        except _NeedReconcile:
            need_reconcile = True

    report.active_tiles = len(tasks)
    incr("shard.tiles", len(tasks))

    with span("shard.solve"):
        solved = solve_transport_batch(
            [(t.supplies, t.caps, t.costs) for t in tasks],
            chain=RELAX_CHAIN_WINDOW,
        )
    for task, (tr, stage) in zip(tasks, solved):
        if not tr.feasible:
            raise _ShardFallback(
                f"tile {task.tile} transportation infeasible"
            )
        if stage > 0:
            report.relaxed_tiles.append(task.tile)
    incr("shard.relaxed_tiles", len(report.relaxed_tiles))

    with span("shard.readback"):
        flows = np.zeros(model.problem.num_arcs, dtype=np.float64)
        routed = 0.0
        for task, (tres, _stage) in zip(tasks, solved):
            tol = scale_eps(
                float(np.max(tres.flow, initial=0.0)),
                base=SIGNIFICANCE_EPS,
            )
            routed += float(
                tres.flow[: task.num_real_rows].sum()
            )
            for i, (bound, origin) in enumerate(task.rows):
                row = tres.flow[i]
                g = graphs.get((bound, task.tile))
                if g is None:  # all-inf cost row: carries no flow
                    continue
                for j in np.nonzero(row > tol)[0]:
                    _cb, target, cut_aid = task.cols[j]
                    g.walk(origin, target, float(row[j]), flows)
                    if cut_aid >= 0:
                        flows[cut_aid] += float(row[j])

    if cut_ids:
        ids = np.fromiter(cut_ids, dtype=np.int64, count=len(cut_ids))
        report.cut_flow_area = float(flows[ids].sum())
    intra_ext = [
        ext.arc_id for ext in model.external_arcs
        if ext.arc_id not in cut_ids
    ]
    if intra_ext:
        report.nonlocal_flow_area = float(
            flows[np.asarray(intra_ext, dtype=np.int64)].sum()
        )
    incr("shard.cut_flow_area", report.cut_flow_area)

    cost = float(np.dot(flows, model.problem.costs))
    result = FlowResult(
        feasible=True,
        cost=cost,
        flows=flows,
        arcs=model.problem.arcs,
        routed=routed,
        stats=SolveStats(
            method="sharded",
            nodes=model.stats.num_nodes,
            arcs=model.stats.num_arcs,
            objective=cost,
            routed=routed,
        ),
    )
    return result, report
