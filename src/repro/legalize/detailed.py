"""Detailed placement: legal-to-legal HPWL refinement.

After legalization, placers run local refinement: move each cell
toward the median of its connected pins when a legal spot exists, and
swap same-width cell pairs when that shortens wirelength.  BonnPlace
has such a stage too (outside this paper's scope); it is included here
because downstream users expect a placer to ship one.

Everything stays legal by construction:

* moves only into gaps at least as wide as the cell, on the row grid,
  site-aligned;
* swaps only between equal-width cells;
* with movebounds, a destination is admissible only if the cell's
  rectangle stays inside its bound and outside foreign exclusive
  areas (checked via the region decomposition's signatures).

Deterministic: cells are visited in index order; every accepted move
strictly decreases HPWL, so passes terminate.  The loops run on tables
(pins as tuples in lists — numpy per 2-12 pin net is slower — gaps and
swap partners in padded 2-D arrays) and keep every comparison,
tie-break and float operation order of the ``Pin``/``Rect`` loops they
replaced: ``tests/test_legalize_identity.py`` pins the bytes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect
from repro.legalize.rows import RowSegment, build_segments
from repro.movebounds import (
    DEFAULT_BOUND,
    MoveBoundSet,
    RegionDecomposition,
    decompose_regions,
)
from repro.netlist import Netlist
from repro.obs import incr, span

_INF = float("inf")


@dataclass
class DetailedReport:
    """Outcome of a detailed placement run."""

    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    moves: int = 0
    swaps: int = 0
    passes: int = 0

    @property
    def improvement(self) -> float:
        if self.hpwl_before <= 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


class _Rows:
    """Occupancy: per segment the sorted ``(x_left, cell)`` entries and,
    rebuilt only when that segment changes, its row of three padded
    arrays — ``cells`` (entries in x order, then -1) and ``gap_lo`` /
    ``gap_hi`` (the free interval before each entry and after the last;
    a closed one has ``gap_hi`` -inf).  Segments are sorted by (row, x),
    so a band of rows is one slice of each array."""

    def __init__(self, netlist: Netlist, segments: List[RowSegment]):
        self.netlist = netlist
        self.segments = segments
        self.y_center = np.array([s.y_center for s in segments])
        # Python-float mirrors of the coordinates for the scalar loops
        self.x, self.y = netlist.x.tolist(), netlist.y.tolist()
        self.width = [c.width for c in netlist.cells]
        self.entries: List[List[Tuple[float, int]]] = [[] for _ in segments]
        self.seg_of_cell: Dict[int, int] = {}  # in cell index order
        self.rebuilds = 0
        segs_by_row: Dict[float, List[int]] = {}
        for j, seg in enumerate(segments):
            segs_by_row.setdefault(seg.y_lo, []).append(j)
        for i, c in enumerate(netlist.cells):
            if c.fixed or c.height > netlist.row_height + 1e-9:
                continue
            x_lo, x_hi = self.x[i] - c.width / 2, self.x[i] + c.width / 2
            for j in segs_by_row.get(self.y[i] - c.height / 2, ()):
                seg = segments[j]
                if seg.x_lo - 1e-6 <= x_lo and x_hi <= seg.x_hi + 1e-6:
                    insort(self.entries[j], (x_lo, i))
                    self.seg_of_cell[i] = j
                    break  # (cells off the row grid stay untouched)
        self._allocate(max(map(len, self.entries), default=0) + 4)

    def _allocate(self, slots: int) -> None:
        shape = (len(self.segments), slots + 1)
        self.cells = np.full(shape, -1, dtype=np.int64)
        self.gap_lo = np.zeros(shape)
        self.gap_hi = np.full(shape, -_INF)
        for j in range(len(self.segments)):
            self._rebuild(j)

    def _rebuild(self, j: int) -> None:
        entries, seg = self.entries[j], self.segments[j]
        n = len(entries)
        if n >= self.cells.shape[1]:
            return self._allocate(2 * n)
        self.rebuilds += 1
        lo, hi, cursor = [], [], seg.x_lo
        for x_left, cell in entries:
            lo.append(cursor)
            hi.append(x_left if x_left > cursor + 1e-9 else -_INF)
            if x_left + self.width[cell] > cursor:
                cursor = x_left + self.width[cell]
        lo.append(cursor)
        hi.append(seg.x_hi if cursor < seg.x_hi - 1e-9 else -_INF)
        self.gap_lo[j, : n + 1] = lo
        self.gap_hi[j] = -_INF
        self.gap_hi[j, : n + 1] = hi
        self.cells[j] = -1
        self.cells[j, :n] = [c for _x, c in entries]

    def relocate(self, cell: int, j: int, x: float, y: float) -> None:
        old = self.seg_of_cell[cell]
        half = self.width[cell] / 2
        self.entries[old].remove((self.x[cell] - half, cell))
        self.x[cell] = self.netlist.x[cell] = x
        self.y[cell] = self.netlist.y[cell] = y
        insort(self.entries[j], (x - half, cell))
        self.seg_of_cell[cell] = j
        for k in {old, j}:
            self._rebuild(k)


def detailed_place(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    decomposition: Optional[RegionDecomposition] = None,
    passes: int = 2,
    row_radius: int = 4,
    max_candidates: int = 12,
    density_target: Optional[float] = None,
    cells: Optional[List[int]] = None,
) -> DetailedReport:
    """Refine a legal placement without breaking legality.

    With ``density_target`` set, moves into bins whose utilization
    already exceeds the target are rejected (keeps the ISPD-style
    density penalty from creeping back in through refinement).
    ``cells`` restricts the sweep to the given cell indices (the ECO
    frontier); row occupancy is still built for the whole die, so
    scoped moves respect every neighbor.
    """
    with span("legalize.detailed"):
        report = DetailedReport(hpwl_before=netlist.hpwl())
        if bounds is None:
            bounds = MoveBoundSet(netlist.die)
        if decomposition is None:
            decomposition = decompose_regions(
                netlist.die, bounds, netlist.blockages
            )
        # movable macros act as obstacles for the row structure (they were
        # already legalized; standard cells must not slide under them)
        macros = [
            netlist.cell_rect(c.index)
            for c in netlist.cells
            if not c.fixed and c.height > netlist.row_height + 1e-9
        ]
        rows = _Rows(netlist, build_segments(netlist, obstacles=macros))
        x, y, width = rows.x, rows.y, rows.width
        all_widths = np.array(width)
        site = netlist.site_width
        reach = (row_radius + 0.5) * netlist.row_height
        nets_of = netlist.nets_of_cell()
        pins = [
            [(p.cell_index, p.offset_x, p.offset_y) for p in net.pins]
            for net in netlist.nets
        ]
        weight = [net.weight for net in netlist.nets]
        areas = {b.name: b.area for b in bounds.all_bounds()}
        priced = 0

        dmap = None
        if density_target is not None:
            from repro.metrics.density import DensityMap, default_bin_count

            nb = default_bin_count(netlist)
            dmap = DensityMap(netlist, nb, nb)

        def scan(cell: int):
            """One pass over the cell's nets: the median of the other pins
            (a net counts once per pin the cell has on it) and, per distinct
            net in first-occurrence order, ``(weight, box of the other pins,
            extents of the cell's own pin offsets)``."""
            xs, ys, boxes = [], [], {}
            for n in nets_of[cell]:
                ox, oy, dxs, dys = [], [], [], []
                for pc, dx, dy in pins[n]:
                    if pc == cell:
                        dxs.append(dx)
                        dys.append(dy)
                    elif pc >= 0:
                        ox.append(x[pc] + dx)
                        oy.append(y[pc] + dy)
                    else:  # fixed terminal: absolute coordinates
                        ox.append(dx)
                        oy.append(dy)
                xs += ox
                ys += oy
                boxes[n] = (
                    weight[n],
                    min(ox, default=_INF), max(ox, default=-_INF),
                    min(oy, default=_INF), max(oy, default=-_INF),
                    min(dxs), max(dxs), min(dys), max(dys),
                )
            if not xs:
                return x[cell], y[cell], boxes.values()
            return median(xs), median(ys), boxes.values()

        def hpwl_at(boxes, cx: float, cy: float) -> float:
            """HPWL of the scanned nets with the cell at (cx, cy)."""
            total = 0.0
            for w, x_lo, x_hi, y_lo, y_hi, dx_lo, dx_hi, dy_lo, dy_hi in boxes:
                l, r, b, t = cx + dx_lo, cx + dx_hi, cy + dy_lo, cy + dy_hi
                total += w * (
                    ((r if r > x_hi else x_hi) - (l if l < x_lo else x_lo))
                    + ((t if t > y_hi else y_hi) - (b if b < y_lo else y_lo))
                )
            return total

        def hpwl_of(nets) -> float:
            total = 0.0
            for n in nets:
                px = [x[pc] + dx if pc >= 0 else dx for pc, dx, _dy in pins[n]]
                py = [y[pc] + dy if pc >= 0 else dy for pc, _dx, dy in pins[n]]
                total += weight[n] * (
                    (max(px) - min(px)) + (max(py) - min(py))
                )
            return total

        # three pure predicates accept a destination; the conjunction does
        # not depend on their order, so the cheapest run first: HPWL, then
        # the bound's few rectangles, then the scan over all regions
        def admissible(cell: int, xc: float, yc: float) -> bool:
            c = netlist.cells[cell]
            name = c.movebound or DEFAULT_BOUND
            if c.movebound or len(bounds):
                hw, hh = c.width / 2, c.height / 2
                if name not in areas or not areas[name].contains_rect(
                    Rect(xc - hw, yc - hh, xc + hw, yc + hh)
                ):
                    return False
            region = decomposition.region_at(xc, yc)
            return region is not None and region.admits(name)

        def density_ok(cell: int, xc: float, yc: float) -> bool:
            if dmap is None:
                return True
            i, j = dmap.bin_of(xc, yc)
            cap = dmap.capacity[i, j]
            if cap <= 1e-9:
                return False
            # moving within the same bin never changes its utilization
            if dmap.bin_of(x[cell], y[cell]) == (i, j):
                return True
            size = netlist.cells[cell].size
            return (dmap.usage[i, j] + size) / cap <= density_target + 1e-9

        def commit(cell: int, j: int, xc: float, yc: float) -> None:
            if dmap is not None:
                src, dst = dmap.bin_of(x[cell], y[cell]), dmap.bin_of(xc, yc)
                if src != dst:
                    dmap.usage[src] -= netlist.cells[cell].size
                    dmap.usage[dst] += netlist.cells[cell].size
            rows.relocate(cell, j, xc, yc)

        def try_move(cell, tx, ty, boxes, j0, j1) -> bool:
            nonlocal priced
            w = width[cell]
            lo, hi = rows.gap_lo[j0:j1], rows.gap_hi[j0:j1]
            seg, slot = np.nonzero(hi - lo >= w - 1e-9)
            g_lo, g_hi = lo[seg, slot], hi[seg, slot]
            x_left = np.minimum(np.maximum(tx - w / 2, g_lo), g_hi - w)
            if site > 0:  # np.rint rounds half to even, like round()
                x_left = g_lo + np.rint((x_left - g_lo) / site) * site
                x_left[x_left + w > g_hi + 1e-9] -= site
                keep = x_left >= g_lo - 1e-9
                x_left, seg = x_left[keep], seg[keep]
            seg += j0
            xc, yc = x_left + w / 2, rows.y_center[seg]
            d = np.abs(xc - tx) + np.abs(yc - ty)
            best = np.lexsort((xc, seg, d))[:max_candidates]
            before = hpwl_at(boxes, x[cell], y[cell])
            for xk, yk, j in zip(
                xc[best].tolist(), yc[best].tolist(), seg[best].tolist()
            ):
                priced += 1
                if (
                    hpwl_at(boxes, xk, yk) < before - 1e-9
                    and admissible(cell, xk, yk)
                    and density_ok(cell, xk, yk)
                ):
                    commit(cell, j, xk, yk)
                    return True
            return False

        def try_swap(cell, tx, ty, j0, j1) -> bool:
            # partner: the same-width cell nearest the target, first on ties
            ids = rows.cells[j0:j1]
            d = np.abs(netlist.x[ids] - tx) + np.abs(netlist.y[ids] - ty)
            same = np.abs(all_widths[ids] - width[cell]) <= 1e-9
            d[~(same & (ids >= 0) & (ids != cell))] = _INF
            k = int(np.argmin(d))
            if d.flat[k] == _INF:
                return False
            other = int(ids.flat[k])
            a, b = (x[cell], y[cell]), (x[other], y[other])
            nets = dict.fromkeys(nets_of[cell] + nets_of[other])
            before = hpwl_of(nets)
            (x[cell], y[cell]), (x[other], y[other]) = b, a
            after = hpwl_of(nets)
            (x[cell], y[cell]), (x[other], y[other]) = a, b
            if (
                after < before - 1e-9
                and admissible(cell, *b)
                and admissible(other, *a)
            ):
                j_cell = rows.seg_of_cell[cell]
                commit(cell, rows.seg_of_cell[other], *b)
                commit(other, j_cell, *a)
                return True
            return False

        sweep = list(rows.seg_of_cell)
        if cells is not None:
            scoped = set(int(c) for c in cells)
            sweep = [c for c in sweep if c in scoped]

        for _pass in range(passes):
            report.passes += 1
            changed = 0
            for cell in sweep:
                tx, ty, boxes = scan(cell)
                near = np.flatnonzero(np.abs(rows.y_center - ty) <= reach)
                if not len(near):
                    continue  # no row in reach of the target
                j0, j1 = near[0], near[-1] + 1
                if try_move(cell, tx, ty, boxes, j0, j1):
                    report.moves += 1
                    changed += 1
                elif try_swap(cell, tx, ty, j0, j1):
                    report.swaps += 1
                    changed += 1
            if changed == 0:
                break

        report.hpwl_after = netlist.hpwl()
    incr("detailed.moves", report.moves)
    incr("detailed.swaps", report.swaps)
    incr("detailed.candidates", priced)
    incr("detailed.gap_rebuilds", rows.rebuilds)
    return report
