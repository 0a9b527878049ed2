"""Abacus-style row legalization (minimum quadratic movement per row).

Cells assigned to a row segment are placed in x-order without overlap,
minimizing the sum of squared displacements, by the classical cluster
dynamic programming: cells are appended one by one; whenever a cell
collides with the previous cluster, the clusters merge and the merged
cluster's optimal position is recomputed in O(1) from accumulated
weights.  Site alignment is applied at the end.

Row *assignment* (which segment each cell goes to) is a greedy
nearest-row search with capacity bookkeeping — the combination is the
standard practical pipeline (Spindler et al.'s Abacus), and a faithful
stand-in for the minimum-movement legalization [6] the paper calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.legalize.rows import RowSegment
from repro.netlist import Netlist


@dataclass
class _Cluster:
    x: float  # optimal left edge
    weight: float = 0.0
    q: float = 0.0  # sum of w_i * (x_i' - offset_i)
    width: float = 0.0
    cells: List[int] = field(default_factory=list)


def _place_row(
    netlist: Netlist,
    segment: RowSegment,
    cells: Sequence[int],
) -> float:
    """Abacus placeRow: legalize `cells` (sorted by x) into the segment.

    Returns the total squared displacement; writes positions (centers).
    """
    clusters: List[_Cluster] = []
    for i in cells:
        w = netlist.cells[i].width
        weight = max(netlist.cells[i].size, 1e-9)
        x_pref = netlist.x[i] - w / 2  # preferred left edge
        x_pref = min(max(x_pref, segment.x_lo), segment.x_hi - w)
        cluster = _Cluster(x=x_pref, weight=weight, q=weight * x_pref, width=w)
        cluster.cells.append(i)
        clusters.append(cluster)
        # merge while overlapping the previous cluster
        while len(clusters) > 1:
            prev, cur = clusters[-2], clusters[-1]
            if prev.x + prev.width <= cur.x + 1e-12:
                break
            # merge cur into prev
            prev.q += cur.q - cur.weight * prev.width
            prev.weight += cur.weight
            prev.cells.extend(cur.cells)
            prev.width += cur.width
            prev.x = prev.q / prev.weight
            prev.x = min(
                max(prev.x, segment.x_lo), segment.x_hi - prev.width
            )
            clusters.pop()
        # clamp the (possibly fresh) last cluster
        last = clusters[-1]
        last.x = min(max(last.x, segment.x_lo), segment.x_hi - last.width)

    total_sq = 0.0
    site = netlist.site_width
    for cluster in clusters:
        # site alignment of the cluster's left edge
        x = cluster.x
        if site > 0:
            snapped = segment.x_lo + round((x - segment.x_lo) / site) * site
            if snapped + cluster.width <= segment.x_hi + 1e-9:
                x = max(snapped, segment.x_lo)
            else:
                x = segment.x_lo + math.floor(
                    (segment.x_hi - cluster.width - segment.x_lo) / site
                ) * site
        for i in cluster.cells:
            w = netlist.cells[i].width
            old_x, old_y = netlist.x[i], netlist.y[i]
            netlist.x[i] = x + w / 2
            netlist.y[i] = segment.y_lo + netlist.row_height / 2
            total_sq += (netlist.x[i] - old_x) ** 2 + (
                netlist.y[i] - old_y
            ) ** 2
            x += w
    return total_sq


def _assign_to_segments(
    netlist: Netlist,
    cells: List[int],
    segs: List[RowSegment],
    candidates: int,
) -> Dict[int, List[int]]:
    """Minimum-movement cell->segment assignment via transportation.

    Each cell only gets arcs to its `candidates` nearest segments (by a
    displacement lower bound); if that restriction is infeasible the
    candidate set widens until it covers all segments.
    """
    from repro.flows import round_almost_integral, solve_transportation

    n, k = len(cells), len(segs)
    supplies = np.array([netlist.cells[i].width for i in cells])
    caps = np.array([s.width for s in segs])
    x, y = netlist.x[cells], netlist.y[cells]
    seg_lo = np.array([s.x_lo for s in segs])
    seg_hi = np.array([s.x_hi for s in segs])
    seg_y = np.array([s.y_center for s in segs])

    def lower_bounds(rows) -> np.ndarray:
        """(rows x segments) displacement lower bound — vertical
        distance plus horizontal overhang — in two buffers."""
        half = supplies[rows, None] / 2
        cx, cy = x[rows, None], y[rows, None]
        dx = seg_lo + half
        dx -= cx
        np.maximum(dx, 0.0, out=dx)
        out = seg_hi - half
        np.subtract(cx, out, out=out)
        np.maximum(dx, out, out=dx)
        np.subtract(seg_y, cy, out=out)
        np.abs(out, out=out)
        out += dx
        return out

    limit = min(max(candidates, 4), k)
    while True:
        # the bound matrix becomes the cost matrix in place: nothing
        # else of its size is alive during the solve
        costs = lower_bounds(slice(None))
        order = np.argsort(costs, axis=1, kind="stable")
        np.put_along_axis(costs, order[:, limit:], np.inf, axis=1)
        del order
        tr = solve_transportation(supplies, caps, costs)
        if tr.feasible:
            break
        if limit >= k:
            raise ValueError(
                "segment assignment infeasible even with all candidates"
            )
        limit = min(limit * 4, k)

    assignment, _overflow = round_almost_integral(tr, supplies, caps, costs)
    load = np.bincount(assignment, weights=supplies, minlength=k)

    def first_fit(i: int, skip: int = -1) -> Optional[int]:
        """Nearest segment (ties: lowest index) with room for cell i."""
        for t in np.argsort(lower_bounds([i])[0], kind="stable").tolist():
            if t != skip and load[t] + supplies[i] <= caps[t] + 1e-9:
                return t
        return None

    # repair: shift whole-cell overflow to segments with slack
    repaired = True
    for j in range(k):
        while repaired and load[j] > caps[j] + 1e-9:
            movers = np.flatnonzero(assignment == j).tolist()
            for i in sorted(movers, key=lambda i: supplies[i]):
                t = first_fit(i, skip=j)
                if t is not None:
                    assignment[i] = t
                    load[j] -= supplies[i]
                    load[t] += supplies[i]
                    break
            else:
                repaired = False
    if not repaired:
        # first-fit decreasing over all cells: the bin-packing fallback
        assignment = np.full(n, -1, dtype=np.int64)
        load[:] = 0.0
        for i in sorted(range(n), key=lambda i: -supplies[i]):
            t = first_fit(i)
            if t is None:
                raise ValueError(
                    "segment packing failed even with first-fit "
                    f"decreasing (cell width {supplies[i]:.2f})"
                )
            assignment[i] = t
            load[t] += supplies[i]

    seg_cells: Dict[int, List[int]] = {}
    for i, j in enumerate(assignment):
        seg_cells.setdefault(int(j), []).append(cells[i])
    return seg_cells


def abacus_legalize(
    netlist: Netlist,
    cell_indices: Sequence[int],
    segments: Sequence[RowSegment],
    row_search_radius: int = 24,
) -> float:
    """Legalize standard cells into row segments.

    Cells must have height equal to the row height.  Returns total
    squared displacement.  Raises when the segments cannot hold the
    cells (caller must partition within capacity first).
    """
    cells = [
        i
        for i in cell_indices
        if not netlist.cells[i].fixed
    ]
    if not cells:
        return 0.0
    for i in cells:
        if netlist.cells[i].height > netlist.row_height + 1e-9:
            raise ValueError(
                f"cell {netlist.cells[i].name!r} is taller than a row; "
                "legalize macros separately"
            )
    total_width = sum(netlist.cells[i].width for i in cells)
    seg_capacity = sum(s.width for s in segments)
    if total_width > seg_capacity + 1e-6:
        raise ValueError(
            f"cells ({total_width:.1f}) exceed segment capacity "
            f"({seg_capacity:.1f})"
        )

    # Segment assignment as a transportation problem: supply = cell
    # width, capacity = segment width, cost = displacement lower bound.
    # This is the minimum-movement assignment of [6] at segment
    # granularity and — unlike a greedy fill — cannot strand a cell on
    # fragmented leftovers while total capacity suffices.
    segs = sorted(segments, key=lambda s: (s.y_lo, s.x_lo))
    seg_cells = _assign_to_segments(netlist, cells, segs, row_search_radius)

    total_sq = 0.0
    for j, members in seg_cells.items():
        members.sort(key=lambda i: netlist.x[i])
        total_sq += _place_row(netlist, segs[j], members)
    return total_sq
