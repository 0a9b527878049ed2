"""Region-aware legalization with movebounds (paper §III, last part).

Pipeline:

1. Decompose the chip into maximal regions; partition all movable
   standard cells onto regions with the §III transportation step
   (capacities = region free area; forbidden arcs per movebounds).
   After global placement this assignment is near-identity — cells are
   already in admissible regions — so movement is small.
2. For each region, build row segments clipped to the region's free
   rectangles and run Abacus there.  Cells of *different* movebounds
   that share a region are hence legalized simultaneously, which is the
   paper's point about overlapping movebounds.

Movable macros (taller than a row) are placed first by a greedy
minimum-displacement search and then act as obstacles for the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect, RectSet
from repro.legalize.abacus import abacus_legalize
from repro.legalize.rows import (
    RowSegment,
    build_segments,
    max_std_cell_width,
    usable_row_capacity,
)
from repro.movebounds import (
    MoveBoundSet,
    RegionDecomposition,
    decompose_regions,
)
from repro.netlist import Netlist
from repro.obs import incr, span
from repro.partitioning.transport import TransportTargets, partition_cells
from repro.resilience.errors import InfeasibleInputError, PipelineStageError
from repro.resilience.faultinject import inject


@dataclass
class LegalizationReport:
    """Accounting of a movebound-aware legalization run."""

    total_sq_movement: float = 0.0
    macro_count: int = 0
    region_runs: int = 0
    relaxed: bool = False
    seconds: float = 0.0


def _legalize_macros(netlist: Netlist, macros: List[int]) -> int:
    """Greedy minimum-displacement placement of movable macros on the
    row grid; placed macros become fixed obstacles for later cells."""
    die = netlist.die
    h = netlist.row_height
    placed: List[Rect] = [
        netlist.cell_rect(i)
        for i in np.flatnonzero(netlist.fixed_mask).tolist()
    ] + list(netlist.blockages)
    # big ones first
    sizes = netlist.cell_sizes().tolist()
    macros = sorted(macros, key=lambda i: -sizes[i])
    widths, heights = netlist.width.tolist(), netlist.height.tolist()
    for i in macros:
        w, ht = widths[i], heights[i]
        best: Optional[Tuple[float, float, float]] = None
        # spiral search over row-aligned candidate positions
        y0 = die.y_lo + round((netlist.y[i] - ht / 2 - die.y_lo) / h) * h
        for ky in range(0, 2 * int(die.height / h) + 1):
            sign = 1 if ky % 2 == 0 else -1
            y = y0 + sign * ((ky + 1) // 2) * h
            if y < die.y_lo or y + ht > die.y_hi:
                continue
            if best is not None and abs(y - (netlist.y[i] - ht / 2)) > best[0]:
                break
            step = max(netlist.site_width, w / 8)
            x0 = netlist.x[i] - w / 2
            for kx in range(0, 2 * int(die.width / step) + 1):
                sx = 1 if kx % 2 == 0 else -1
                x = x0 + sx * ((kx + 1) // 2) * step
                if x < die.x_lo or x + w > die.x_hi:
                    continue
                cand = Rect(x, y, x + w, y + ht)
                cost = abs(x - x0) + abs(y - (netlist.y[i] - ht / 2))
                if best is not None and cost >= best[0]:
                    if abs(x - x0) > best[0]:
                        break
                    continue
                if any(cand.overlaps(p) for p in placed):
                    continue
                best = (cost, x, y)
        if best is None:
            raise PipelineStageError(
                f"cannot legalize macro {netlist.cell_names[i]!r}",
                stage="legalize.macros",
            )
        _cost, x, y = best
        netlist.x[i] = x + w / 2
        netlist.y[i] = y + ht / 2
        placed.append(netlist.cell_rect(i))
        # obstacle for the rest; restored by caller
        netlist.set_cells([i], fixed=True)
    return len(macros)


def legalize_with_movebounds(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    decomposition: Optional[RegionDecomposition] = None,
    scope: Optional[RectSet] = None,
) -> LegalizationReport:
    """Legalize the current placement, honoring movebounds exactly.

    A ``scope`` (the ECO frontier plus halo, row- and site-aligned)
    re-places only the standard cells centred in it; every other cell
    keeps its position (see :func:`_split_scope`).  ``scope=None`` is
    the whole-die pass.
    """
    inject("stage.legalize")
    with span("legalize.region") as sp:
        report = _legalize_with_movebounds_impl(
            netlist, bounds, decomposition, scope
        )
    report.seconds = sp.wall_s
    incr("legalize.runs")
    incr("legalize.region_runs", report.region_runs)
    incr("legalize.macros", report.macro_count)
    return report


def _split_scope(
    netlist: Netlist, scope: RectSet, reach: float
) -> Tuple[List[int], List[Rect], RectSet]:
    """Free cells (movable standard cells centred in the scope), row
    obstacles (every other movable cell with area in the rows) and the
    area the rows are cut from: the scope widened by ``reach``, half
    the widest standard cell, so a free cell straddling the scope's
    edge keeps its own room."""
    die = netlist.die
    rows_area = RectSet(
        Rect(max(r.x_lo - reach, die.x_lo), r.y_lo,
             min(r.x_hi + reach, die.x_hi), r.y_hi)
        for r in scope
    )
    movable, hw, hh = netlist.cell_dims()
    x, y = netlist.x, netlist.y
    inside = scope.distances_to_points(x, y) == 0.0
    r = np.array([q.as_tuple() for q in rows_area]).reshape(-1, 4).T[..., None]
    overlaps = (
        (r[0] < x + hw) & (x - hw < r[2]) & (r[1] < y + hh) & (y - hh < r[3])
    ).any(axis=0)
    std = netlist.std_cell_mask
    free = np.flatnonzero(std & inside)
    others = np.flatnonzero(movable & overlaps & ~(std & inside))
    return free.tolist(), [netlist.cell_rect(int(i)) for i in others], rows_area


def _legalize_with_movebounds_impl(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet],
    decomposition: Optional[RegionDecomposition],
    scope: Optional[RectSet] = None,
) -> LegalizationReport:
    report = LegalizationReport()
    if bounds is None:
        bounds = MoveBoundSet(netlist.die)
    if decomposition is None:
        decomposition = decompose_regions(
            netlist.die, bounds, netlist.blockages
        )

    # 1. movable macros first (they become row obstacles); a scoped
    # pass leaves them where they are
    macros = netlist.macro_indices.tolist() if scope is None else []
    unfix = []
    if macros:
        with span("legalize.macros"):
            report.macro_count = _legalize_macros(netlist, macros)
        unfix = macros

    try:
        w_max = max_std_cell_width(netlist)
        obstacles: List[Rect] = []
        if scope is None:
            std_cells = np.flatnonzero(netlist.std_cell_mask).tolist()
        else:
            std_cells, obstacles, rows_area = _split_scope(
                netlist, scope, w_max / 2
            )
            incr("legalize.scoped")
            incr("legalize.scope_cells", len(std_cells))

        # 2 + 3. partition standard cells onto regions (§III) and run
        # per-region Abacus.  When a region's segment packing fails
        # (fragmented slivers), its advertised capacity shrinks and the
        # partition re-runs — a small feedback loop that converges
        # because capacity only ever decreases.
        region_segments: Dict[int, List[RowSegment]] = {}
        base_caps: Dict[int, float] = {}
        areas_by_region: Dict[int, RectSet] = {}
        for region in decomposition:
            area = region.free_area
            if scope is not None:
                area = area.intersect(rows_area)
                if area.is_empty:
                    continue
            segments = build_segments(netlist, area, obstacles=obstacles)
            if not segments:
                continue
            region_segments[region.index] = segments
            base_caps[region.index] = 0.97 * usable_row_capacity(
                segments, w_max
            )
            areas_by_region[region.index] = area
        region_by_index = {r.index: r for r in decomposition}

        multiplier: Dict[int, float] = {r: 1.0 for r in base_caps}
        before = netlist.snapshot()
        last_error: Optional[Exception] = None
        for _attempt in range(6):
            netlist.restore(before)
            keys = sorted(base_caps)
            targets = TransportTargets(
                keys,
                np.array([base_caps[r] * multiplier[r] for r in keys]),
                [areas_by_region[r] for r in keys],
                [region_by_index[r].admits for r in keys],
            )
            with span("legalize.partition"):
                outcome = partition_cells(netlist, std_cells, targets)
            if not outcome.feasible:
                raise InfeasibleInputError(
                    "legalization: no feasible region partition",
                    stage="legalize.partition",
                )
            report.relaxed = report.relaxed or outcome.relaxed

            by_region: Dict[int, List[int]] = {}
            for cell, ridx in outcome.assignment.items():
                by_region.setdefault(ridx, []).append(cell)
            failed: List[int] = []
            report.region_runs = 0
            report.total_sq_movement = 0.0
            for ridx, cells in sorted(by_region.items()):
                try:
                    with span("legalize.abacus"):
                        movement = abacus_legalize(
                            netlist, cells, region_segments[ridx]
                        )
                except ValueError as exc:
                    failed.append(ridx)
                    last_error = exc
                    continue
                report.region_runs += 1
                report.total_sq_movement += movement
            if not failed:
                break
            for ridx in failed:
                multiplier[ridx] *= 0.85
        else:
            raise PipelineStageError(
                f"legalization did not converge: {last_error}",
                stage="legalize",
            )
    finally:
        if unfix:
            netlist.set_cells(unfix, fixed=False)

    return report
