"""BonnPlaceFBP — the paper's global placer.

The multilevel loop of partitioning-based analytical placement (§III)
with the new flow-based partitioning (§IV) as the core routine:

1. feasibility check (Theorem 2) — fail fast with a witness when no
   placement with the given movebounds exists;
2. unconstrained global QP;
3. per level L = 1, 2, ...: grid 2^L x 2^L, **FBP partitioning**
   (global MinCostFlow + realization), then an anchored global QP that
   restores connectivity while pseudo-nets of growing strength hold the
   spreading;
4. optional repartitioning (reflow) passes — off by default, since FBP
   removes the need; kept as an ablation knob;
5. region-aware legalization honoring all movebounds simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.fbp import FBPReport, fbp_partition
from repro.feasibility import check_feasibility
from repro.geometry import Rect, RectSet
from repro.grid import Grid
from repro.legalize import LegalityReport, check_legality
from repro.legalize import legalize_with_movebounds
from repro.legalize.detailed import detailed_place
from repro.movebounds import (
    MoveBoundSet,
    RegionDecomposition,
    decompose_regions,
)
from repro.netlist import DEFAULT_BOUND, Netlist, PlacementSnapshot
from repro.obs import incr, maybe_check, span
from repro.partitioning import (
    block_windows,
    enforce_blocks,
    repartition_pass,
)
from repro.place.base import (
    InfeasiblePlacementError,
    PlacementError,
    PlacerResult,
)
from repro.qp import QPOptions, solve_qp
from repro.resilience.diagnose import diagnose_infeasibility, relax_to_feasible
from repro.resilience.errors import (
    InfeasibleInputError,
    PipelineStageError,
    ReproError,
    SolverBudgetExceeded,
    SolverNumericsError,
)
from repro.resilience.faultinject import inject
from repro.resilience.validate import validate_instance
from repro.runstate import DurableRunState, config_hash


@dataclass
class BonnPlaceOptions:
    """Tuning knobs of BonnPlaceFBP."""

    density_target: float = 0.97  # the paper's experimental setting
    target_cells_per_window: int = 14
    max_levels: Optional[int] = None
    anchor_base: float = 0.02
    qp: QPOptions = field(default_factory=QPOptions)
    run_local_qp: bool = True
    repartition_passes: int = 0  # ablation: reflow after each level
    final_reflow: bool = True  # one repartitioning pass at the last level
    legalize: bool = True
    #: post-legalization detailed placement passes (0 disables)
    detailed_passes: int = 1
    min_window_rows: float = 3.0  # stop refining below this window height
    #: BestChoice clustering ratio (paper: 5 industrial, 2 ISPD);
    #: None places flat
    cluster_ratio: Optional[float] = None
    #: graceful degradation: on an infeasible instance, relax capacities
    #: uniformly (up to ``max_relax``x) instead of raising
    relax_infeasible: bool = False
    max_relax: float = 8.0
    #: shard each level's FBP MinCostFlow into an N x N tile grid
    #: (None/<=1 = monolithic solve; exact when no flow crosses tile
    #: cuts, reported approximation otherwise — see repro.fbp.sharding)
    shard_tiles: Optional[int] = None


def projected_position(
    netlist: Netlist, bounds: MoveBoundSet, idx: int
) -> Optional[Tuple[float, float, float]]:
    """``(distance, x, y)``: the nearest point of the cell's movebound
    at which its rectangle fits (first rectangle on ties), or None for
    an unbounded cell.  The ECO frontier and the projection below both
    read it, so the frontier holds the window the cell lands in."""
    codes, names = netlist.movebound_groups()
    name = names[codes[idx]]
    if name == DEFAULT_BOUND:
        return None
    x, y = float(netlist.x[idx]), float(netlist.y[idx])
    w, h = float(netlist.width[idx]), float(netlist.height[idx])
    best = None
    for r in bounds.get(name).area:
        hw = min(w / 2, r.width / 2)
        hh = min(h / 2, r.height / 2)
        px = min(max(x, r.x_lo + hw), r.x_hi - hw)
        py = min(max(y, r.y_lo + hh), r.y_hi - hh)
        d = abs(px - x) + abs(py - y)
        if best is None or d < best[0]:
            best = (d, px, py)
    return best


def _project_into_bounds(netlist: Netlist, bounds: MoveBoundSet, cells) -> None:
    """Deterministically move re-assigned cells to the nearest interior
    point of their (new) movebound.  The scoped frontier transportation
    only shuffles cells within their own 2x2 block, so a cell far from
    its new bound must arrive there before its block is repaired."""
    for idx in cells:
        best = projected_position(netlist, bounds, idx)
        if best is not None and best[0] > 0.0:
            netlist.x[int(idx)] = best[1]
            netlist.y[int(idx)] = best[2]


def _legalization_scope(netlist: Netlist, grid: Grid, frontier) -> RectSet:
    """The frontier windows, each grown by one window, snapped outward
    to the row and site grid and clipped to the die: one rectangle per
    run of consecutive windows in a row of windows."""
    die, h, site = netlist.die, netlist.row_height, netlist.site_width

    def snap(v: float, lo: float, step: float, up: bool) -> float:
        if step <= 0:
            return v
        k = (v - lo) / step
        return lo + (math.ceil(k - 1e-9) if up else math.floor(k + 1e-9)) * step

    grown = np.zeros((grid.ny, grid.nx + 2), dtype=bool)
    for fx, fy in frontier:
        grown[max(fy - 1, 0) : fy + 2, max(fx, 1) : fx + 3] = True
    grown[:, [0, -1]] = False  # columns 1..nx are windows 0..nx-1
    rects = []
    for iy, row in enumerate(grown):
        edges = np.flatnonzero(np.diff(row)).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            rects.append(Rect(
                max(snap(grid.xs[start], die.x_lo, site, False), die.x_lo),
                max(snap(grid.ys[iy], die.y_lo, h, False), die.y_lo),
                min(snap(grid.xs[stop], die.x_lo, site, True), die.x_hi),
                min(snap(grid.ys[iy + 1], die.y_lo, h, True), die.y_hi),
            ))
    # rows of runs overlap where the outward row snap crosses a window
    return RectSet(rects)


class BonnPlaceFBP:
    """Flow-based-partitioning global placer with movebound support."""

    name = "BonnPlaceFBP"

    def __init__(
        self,
        options: Optional[BonnPlaceOptions] = None,
        run_state: Optional[DurableRunState] = None,
    ) -> None:
        self.options = options or BonnPlaceOptions()
        #: per-level FBP reports of the last run (Table I consumes
        #: these; after a resume only the levels run by *this* process
        #: are present)
        self.level_reports: List[FBPReport] = []
        #: capacity relaxation factor applied by the last run (1.0 =
        #: none); > 1 only with ``relax_infeasible`` on an infeasible
        #: instance
        self.relax_factor: float = 1.0
        #: durable checkpoint/resume driver (``--run-dir``/``--resume``);
        #: None keeps the pre-existing purely in-memory behavior
        self.run_state = run_state

    # ------------------------------------------------------------------
    def num_levels(self, netlist: Netlist) -> int:
        """Refine until windows hold ~target_cells_per_window cells,
        but never shrink windows below a few row heights."""
        opts = self.options
        if opts.max_levels is not None:
            return opts.max_levels
        n_movable = len(netlist.movable_indices)
        by_cells = math.log2(
            max(n_movable / max(opts.target_cells_per_window, 1), 1)
        ) / 2
        by_rows = math.log2(
            max(
                netlist.die.height
                / (opts.min_window_rows * netlist.row_height),
                1,
            )
        )
        return max(1, min(int(math.ceil(by_cells)), int(by_rows), 7))

    # ------------------------------------------------------------------
    def place(
        self,
        netlist: Netlist,
        bounds: Optional[MoveBoundSet] = None,
    ) -> PlacerResult:
        """Run global placement + legalization on the netlist in place.

        The per-window solves run on the active worker pool, if a
        caller installed one (:func:`repro.runstate.activated`).
        """
        opts = self.options
        if bounds is None:
            bounds = MoveBoundSet(netlist.die)
        bounds.normalize()
        validate_instance(netlist, bounds, opts.density_target)
        return self._place_body(netlist, bounds)

    def incremental_refine(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition: RegionDecomposition,
        frontier=None,
        touched_cells=None,
    ) -> PlacerResult:
        """Incremental refinement from the *current* placement.

        The ECO engine's incremental solve (:mod:`repro.eco`).  With
        ``frontier`` — a set of finest-grid ``(ix, iy)`` window coords
        the delta touches — the solve is *scoped*: the re-assigned
        ``touched_cells`` are projected into their (new) movebounds,
        the movebound-aware block transportation is re-run over the
        frontier's 2x2 blocks only (enforced, not HPWL-gated), and the
        detailed passes sweep only the frontier's cells.  Everything
        outside the frontier keeps its partition — that locality is
        what makes a delta solve several times cheaper than the full
        multilevel loop.

        Without a frontier (net re-weighting, density changes — global
        effects), fall back to one full finest-level FBP pass: QP +
        partitioning at grid 2^L starting from the existing near-legal
        positions, then reflow, legalization and detailed passes.  FBP
        guarantees a feasible partitioning for *any* given placement
        (§IV), so both paths honor the just-patched movebounds.

        The caller is responsible for the Theorem-2 feasibility check
        (the engine runs it during delta validation) and hands in the
        region ``decomposition`` of ``bounds`` that check used.  A
        scoped solve that cannot place its frontier locally raises
        :class:`PlacementError`; the engine degrades to the full solve.
        """
        opts = self.options
        bounds.normalize()
        validate_instance(netlist, bounds, opts.density_target)
        if frontier:
            return self._refine_scoped(
                netlist, bounds, decomposition, frontier, touched_cells or ()
            )
        return self._refine_body(netlist, bounds, decomposition)

    def _refine_scoped(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition: RegionDecomposition,
        frontier,
        touched_cells,
    ) -> PlacerResult:
        opts = self.options
        density = opts.density_target
        levels = self.num_levels(netlist)
        n = 2**levels
        with span("place.incremental") as sp_global:
            entry = netlist.snapshot()
            grid = Grid(netlist.die, n, n)
            blocks = sorted(
                {(ix - ix % 2, iy - iy % 2) for ix, iy in frontier}
            )
            # the block transportation is the only reader of R_w here,
            # so only the blocks' windows are clipped
            grid.build_regions(decomposition, windows=[
                w.index for bx, by in blocks
                for w in block_windows(grid, bx, by)
            ])
            _project_into_bounds(netlist, bounds, touched_cells)
            with span("place.partition"):
                ok = enforce_blocks(
                    netlist,
                    bounds,
                    grid,
                    blocks,
                    density_target=density,
                    qp_options=opts.qp,
                    run_local_qp=opts.run_local_qp,
                )
            if not ok:
                raise PlacementError(
                    "frontier transportation infeasible during scoped "
                    "incremental refine (the delta's windows cannot "
                    "absorb their cells locally)",
                    stage="place.partition",
                    level=levels,
                )
        global_seconds = sp_global.wall_s

        # cells the scoped detailed pass may touch: everything now in a
        # frontier window, plus the re-assigned cells themselves
        widx = {grid.window(ix, iy).index for ix, iy in frontier}
        cw = grid.assign_cells(netlist)
        scoped = sorted(
            {i for i in netlist.movable_indices.tolist() if int(cw[i]) in widx}
            | {int(i) for i in touched_cells}
        )

        legal_seconds = 0.0
        legality = None
        if opts.legalize:
            with span("place.legalize") as sp_legal:
                legality = self._legalize_frontier(
                    netlist, bounds, decomposition,
                    _legalization_scope(netlist, grid, frontier),
                    entry, scoped,
                )
            legal_seconds = sp_legal.wall_s
            maybe_check("movebound.containment", netlist, bounds)
        if legality is None:
            legality = check_legality(netlist, bounds)
        incr("place.incremental_refines")
        incr("place.incremental_scoped")
        return PlacerResult(
            placer=self.name,
            instance=netlist.name,
            hpwl=netlist.hpwl(),
            global_seconds=global_seconds,
            legal_seconds=legal_seconds,
            legality=legality,
        )

    def _legalize(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition: RegionDecomposition,
        density: float,
        scope: Optional[RectSet] = None,
        cells: Optional[List[int]] = None,
    ) -> None:
        """Legalize (inside ``scope``, else on the whole die), then run
        the detailed passes (over ``cells``, else all cells)."""
        legalize_with_movebounds(netlist, bounds, decomposition, scope)
        if self.options.detailed_passes > 0:
            detailed_place(
                netlist, bounds, decomposition,
                passes=self.options.detailed_passes,
                density_target=density,
                cells=cells,
            )

    def _legalize_frontier(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition: RegionDecomposition,
        scope: RectSet,
        entry: PlacementSnapshot,
        cells: List[int],
    ) -> LegalityReport:
        """Legalize inside ``scope``, the rest of the die frozen (legal
        by induction from the committed base), then the scoped detailed
        passes; returns the full-die audit that checks the induction.
        The whole-die pass (``legalize.scope_fallbacks``) takes over
        when a cell moved since ``entry`` is a macro or centred outside
        the scope, when the scoped pass raises, or its audit fails."""
        def run(scope: Optional[RectSet]) -> LegalityReport:
            self._legalize(
                netlist, bounds, decomposition,
                self.options.density_target, scope, cells,
            )
            return check_legality(netlist, bounds)

        x, y = netlist.x, netlist.y
        moved = (x != entry.x) | (y != entry.y)
        if not (
            moved[netlist.macro_indices].any()
            or np.any(moved & (scope.distances_to_points(x, y) > 0))
        ):
            before = netlist.snapshot()
            try:
                legality = run(scope)
                if legality.is_legal:
                    return legality
            except ReproError:
                pass
            netlist.restore(before)
        incr("legalize.scope_fallbacks")
        return run(None)

    def _refine_body(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition: RegionDecomposition,
    ) -> PlacerResult:
        opts = self.options
        density = opts.density_target
        with span("place.incremental") as sp_global:
            self._partition_step(
                netlist, bounds, decomposition, self.num_levels(netlist),
                density, passes=int(opts.final_reflow),
            )
        global_seconds = sp_global.wall_s

        legal_seconds = 0.0
        if opts.legalize:
            with span("place.legalize") as sp_legal:
                self._legalize(netlist, bounds, decomposition, density)
            legal_seconds = sp_legal.wall_s
            maybe_check("movebound.containment", netlist, bounds)
        legality = check_legality(netlist, bounds)
        incr("place.incremental_refines")
        return PlacerResult(
            placer=self.name,
            instance=netlist.name,
            hpwl=netlist.hpwl(),
            global_seconds=global_seconds,
            legal_seconds=legal_seconds,
            legality=legality,
        )

    def _place_body(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
    ) -> PlacerResult:
        opts = self.options
        decomposition = decompose_regions(
            netlist.die, bounds, netlist.blockages
        )

        self.relax_factor = 1.0
        density = opts.density_target
        with span("place.feasibility"):
            feas = check_feasibility(
                netlist, bounds, decomposition, density
            )
        if not feas.feasible:
            if opts.relax_infeasible:
                factor, feas = relax_to_feasible(
                    netlist,
                    bounds,
                    decomposition,
                    density,
                    max_relax=opts.max_relax,
                )
                self.relax_factor = factor
                density = opts.density_target * factor
                incr("place.relaxed_runs")
            else:
                diagnosis = diagnose_infeasibility(
                    netlist, bounds, decomposition, density, report=feas
                )
                raise InfeasiblePlacementError(
                    f"instance infeasible: {diagnosis.summary()}",
                    witness=feas.witness,
                    deficit=feas.deficit,
                    stage="place.feasibility",
                    context={"density_target": density},
                )

        self.level_reports = []

        with span("place.global") as sp_global:
            if opts.cluster_ratio is not None and opts.cluster_ratio > 1.0:
                self._global_clustered(netlist, bounds, decomposition, density)
            else:
                self._global_flat(netlist, bounds, decomposition, density)
        global_seconds = sp_global.wall_s

        legal_seconds = 0.0
        legalized = False
        if opts.legalize:
            with span("place.legalize") as sp_legal:
                try:
                    self._legalize(netlist, bounds, decomposition, density)
                    legalized = True
                except ReproError:
                    # a relaxed run placed more area than physically
                    # fits — a legal placement cannot exist, so return
                    # the overfilled placement with its legality report
                    # instead of failing the whole degraded run
                    if self.relax_factor <= 1.0:
                        raise
                    incr("place.relaxed_legalize_failures")
            legal_seconds = sp_legal.wall_s
            if legalized:
                maybe_check("movebound.containment", netlist, bounds)

        legality = check_legality(netlist, bounds)
        return PlacerResult(
            placer=self.name,
            instance=netlist.name,
            hpwl=netlist.hpwl(),
            global_seconds=global_seconds,
            legal_seconds=legal_seconds,
            legality=legality,
        )

    # ------------------------------------------------------------------
    def _global_flat(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition,
        density: float,
    ) -> None:
        """The multilevel QP + FBP loop on an unclustered netlist.

        The placement is snapshotted in memory after every completed
        level, and a retryable solver/stage failure restores that
        snapshot and re-runs the failed level once before giving up —
        so a transient fault costs one level, not the whole run.

        With a :class:`DurableRunState` attached, every completed level
        (and the initial QP, as level 0) is additionally persisted to
        the run directory; on resume the newest durable level's
        placement is restored and the loop continues from the next
        level, reproducing the uninterrupted run bit-for-bit (levels
        are deterministic functions of the incoming placement).
        """
        opts = self.options
        levels = self.num_levels(netlist)
        rs = self.run_state

        start_level = 0
        resumed = None
        if rs is not None:
            cfg = config_hash(self._config_payload(netlist, density, levels))
            with span("place.runstate.begin"):
                resumed = rs.begin(netlist, cfg, levels)
        if resumed is None:
            with span("place.qp"):
                solve_qp(netlist, opts.qp)
            if rs is not None:
                rs.save_level(0, netlist)
        else:
            # positions already restored by rs.begin(); skip the work
            # the durable levels already cover
            start_level = resumed
            incr("place.resumed_runs")

        # the placement after level - 1: the one a failed level restarts
        # from (only the latest is kept, never a stack of levels)
        snapshot = netlist.snapshot()
        incr("place.checkpoint.saved")
        retried = set()
        level = start_level + 1
        while level <= levels:
            try:
                self._run_level(netlist, bounds, decomposition, level,
                                levels, density)
            except (
                SolverBudgetExceeded,
                SolverNumericsError,
                PipelineStageError,
            ) as exc:
                # infeasibility is a property of the input, not a
                # transient fault — never retried
                if isinstance(exc, InfeasibleInputError):
                    raise
                if level in retried:
                    # permanent: annotate with the failing level and
                    # re-raise unchanged so the classification (and
                    # CLI exit code) of the root cause survives
                    exc.level = level
                    exc.context["failed_after_retry"] = True
                    raise
                retried.add(level)
                netlist.restore(snapshot)
                incr("place.checkpoint.restored")
                # level_reports only holds levels run by this process
                del self.level_reports[level - 1 - start_level:]
                incr("place.level_retries")
                continue
            snapshot = netlist.snapshot()
            incr("place.checkpoint.saved")
            if rs is not None:
                rs.save_level(level, netlist)
            level += 1

    def _config_payload(
        self, netlist: Netlist, density: float, levels: int
    ) -> dict:
        """What must match for a resume to be sound: the instance
        shape and every option that influences the level schedule."""
        from dataclasses import asdict

        payload = asdict(self.options)
        payload.update(
            num_cells=netlist.num_cells,
            num_nets=netlist.num_nets,
            density=density,
            levels=levels,
        )
        return payload

    def _run_level(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition,
        level: int,
        levels: int,
        density: float,
    ) -> None:
        """One level of the multilevel loop: FBP partitioning at the
        2^level grid, optional reflow, and the anchored QP."""
        opts = self.options
        inject("stage.place.level")
        incr("place.levels")
        passes = opts.repartition_passes
        if level == levels and opts.final_reflow:
            passes = max(passes, 1)
        self._partition_step(
            netlist, bounds, decomposition, level, density, passes
        )
        if level < levels:
            weight = opts.anchor_base * (2.0**level)
            with span("place.qp"):
                solve_qp(
                    netlist, opts.qp, anchors=(netlist.x, netlist.y, weight)
                )

    # ------------------------------------------------------------------
    def _global_clustered(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition,
        density: float,
    ) -> None:
        """BestChoice clustering (paper §V experimental setup): place
        the clustered netlist, then one flat refinement pass."""
        opts = self.options
        if self.run_state is not None:
            raise PipelineStageError(
                "durable run state (--run-dir/--resume) is only "
                "supported for flat runs (cluster_ratio=None)",
                stage="place.runstate",
            )
        from dataclasses import replace as dc_replace

        from repro.cluster import bestchoice_cluster

        with span("place.cluster"):
            clustering = bestchoice_cluster(netlist, opts.cluster_ratio)
        sub = BonnPlaceFBP(
            dc_replace(
                opts,
                cluster_ratio=None,
                legalize=False,
                density_target=density,
            )
        )
        sub.place(clustering.clustered, bounds)
        self.level_reports = list(sub.level_reports)
        clustering.uncluster()
        # flat refinement: one partitioning pass at the finest grid
        self._partition_step(
            netlist, bounds, decomposition, self.num_levels(netlist),
            density, passes=int(opts.final_reflow),
        )

    def _partition_step(
        self,
        netlist: Netlist,
        bounds: MoveBoundSet,
        decomposition,
        level: int,
        density: float,
        passes: int,
    ) -> None:
        """FBP partitioning on the 2^level grid, then ``passes``
        repartitioning (reflow) passes on the same grid."""
        opts = self.options
        n = 2**level
        grid = Grid(netlist.die, n, n)
        grid.build_regions(decomposition)
        with span("place.partition"):
            report = fbp_partition(
                netlist,
                bounds,
                grid,
                density_target=density,
                qp_options=opts.qp,
                run_local_qp=opts.run_local_qp,
                shard_tiles=opts.shard_tiles,
            )
        self.level_reports.append(report)
        if not report.feasible:
            raise PlacementError(
                f"FBP infeasible at level {level} "
                f"(should not happen after the Theorem-2 check)",
                stage="place.partition",
                level=level,
            )
        for _ in range(passes):
            with span("place.repartition"):
                repartition_pass(
                    netlist,
                    bounds,
                    grid,
                    density_target=density,
                    qp_options=opts.qp,
                )
