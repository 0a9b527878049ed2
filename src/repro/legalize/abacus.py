"""Abacus-style row legalization (minimum quadratic movement per row).

Cells assigned to a row segment are placed in x-order without overlap,
minimizing the sum of squared displacements, by the classical cluster
dynamic programming: cells are appended one by one; whenever a cell
collides with the previous cluster, the clusters merge and the merged
cluster's optimal position is recomputed in O(1) from accumulated
weights.  Site alignment is applied at the end.

Row *assignment* (which segment each cell goes to) is the
minimum-movement transportation of cells to row segments over each
cell's nearest segments, solved by pricing: only the cells whose
nearest segment overflows reach the LP, and the LP's duals price every
arc left out.  The combination is the standard practical pipeline
(Spindler et al.'s Abacus), and a faithful stand-in for the
minimum-movement legalization [6] the paper calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.legalize.rows import RowSegment
from repro.netlist import Netlist
from repro.obs import incr

#: rows of the (cells x segments) bound matrix ranked at once: only the
#: (cells x limit) candidate arcs outlive the ranking
_ROW_BLOCK = 1024


@dataclass
class _Cluster:
    x: float  # optimal left edge
    weight: float = 0.0
    q: float = 0.0  # sum of w_i * (x_i' - offset_i)
    width: float = 0.0
    cells: List[Tuple[int, float]] = field(default_factory=list)  # (i, w)


def _place_row(
    netlist: Netlist,
    segment: RowSegment,
    cells: Sequence[int],
) -> float:
    """Abacus placeRow: legalize `cells` (sorted by x) into the segment.

    Returns the total squared displacement; writes positions (centers).
    """
    clusters: List[_Cluster] = []
    widths = netlist.width[cells].tolist()
    sizes = netlist.cell_sizes()[cells].tolist()
    for i, w, size in zip(cells, widths, sizes):
        weight = max(size, 1e-9)
        x_pref = netlist.x[i] - w / 2  # preferred left edge
        x_pref = min(max(x_pref, segment.x_lo), segment.x_hi - w)
        cluster = _Cluster(x=x_pref, weight=weight, q=weight * x_pref, width=w)
        cluster.cells.append((i, w))
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
        for i, w in cluster.cells:
            old_x, old_y = netlist.x[i], netlist.y[i]
            netlist.x[i] = x + w / 2
            netlist.y[i] = segment.y_lo + netlist.row_height / 2
            total_sq += (netlist.x[i] - old_x) ** 2 + (
                netlist.y[i] - old_y
            ) ** 2
            x += w
    return total_sq


def _candidates(lower_bounds, n: int, limit: int):
    """Each cell's ``limit`` nearest segments by the displacement bound
    (stable ranking) and their bounds, as (n x limit) arrays ranked
    ``_ROW_BLOCK`` rows of the bound matrix at a time."""
    cand_seg = np.empty((n, limit), dtype=np.int32)
    cand_cost = np.empty((n, limit))
    for lo in range(0, n, _ROW_BLOCK):
        rows = slice(lo, min(lo + _ROW_BLOCK, n))
        bounds = lower_bounds(rows)
        order = np.argsort(bounds, axis=1, kind="stable")[:, :limit]
        cand_seg[rows] = order
        cand_cost[rows] = np.take_along_axis(bounds, order, axis=1)
    return cand_seg, cand_cost


def _priced_transport(
    supplies: np.ndarray,
    caps: np.ndarray,
    cand_seg: np.ndarray,
    cand_cost: np.ndarray,
) -> Optional[Tuple[np.ndarray, float]]:
    """Minimum-cost transportation of cells to segments over the
    candidate arcs, solved by pricing; returns ``(assignment, cost)``
    (each cell's rounded segment, the LP optimum) or ``None`` when the
    arcs cannot hold the cells.

    With every cell on its cheapest segment, the cells whose segment is
    not overfull are pinned there; the others enter the LP with their
    arcs up to the first segment that is not overfull (at least 2), on
    capacities less the pinned load.  Each solve prices every arc left
    out against the sink duals, and the arcs with negative reduced cost
    join (a pinned cell joins the LP with its own); once none is left
    the duals certify the optimum of the whole candidate model.  An
    infeasible restricted LP first gets all candidate arcs of its cells,
    then the pinned cells sitting in their candidate segments; it is
    infeasible when that adds nobody.
    """
    from repro.flows import round_almost_integral, solve_transportation

    n, limit = cand_seg.shape
    k = len(caps)
    best = cand_seg[:, 0]
    over = np.bincount(best, weights=supplies, minlength=k) > caps
    in_lp = over[best]
    # active[i, r]: cell i's arc to cand_seg[i, r] is in the model
    active = np.zeros((n, limit), dtype=bool)
    active[:, 0] = True
    lp = np.flatnonzero(in_lp)
    if len(lp):
        room = ~over[cand_seg[lp]]
        reach = np.where(
            room.any(axis=1), np.maximum(room.argmax(axis=1) + 1, 2), limit
        )
        active[lp] = np.arange(limit) < reach[:, None]
    tol = 1e-9 * float(np.abs(cand_cost).max(initial=0.0))
    rounds = 0
    while len(lp):
        pinned = ~in_lp
        rows, ranks = np.nonzero(active[lp])
        # the LP's sinks are the segments its arcs reach
        sinks, cols = np.unique(cand_seg[lp[rows], ranks], return_inverse=True)
        pinned_load = np.bincount(
            best[pinned], weights=supplies[pinned], minlength=k
        )
        free = np.maximum(caps[sinks] - pinned_load[sinks], 0.0)
        costs = np.full((len(lp), len(sinks)), np.inf)
        costs[rows, cols] = cand_cost[lp[rows], ranks]
        tr = solve_transportation(supplies[lp], free, costs)
        rounds += 1
        if not tr.feasible:
            if not active[lp].all():
                active[lp] = True
            else:
                reached = np.zeros(k, dtype=bool)
                reached[cand_seg[lp]] = True
                unpin = pinned & reached[best]
                if not unpin.any():
                    break
                active[unpin] = True
                in_lp |= unpin
            lp = np.flatnonzero(in_lp)
            continue
        # a cell's dual is its cheapest arc in the model net of the sink
        # duals (0 on a segment outside the LP), so every arc in the
        # model prices >= 0
        duals = np.zeros(k)
        duals[sinks] = tr.sink_duals
        net = cand_cost - duals[cand_seg]
        net -= np.where(active, net, np.inf).min(axis=1)[:, None]
        add = ~active & (net < -tol)
        del net
        if not add.any():
            break
        active |= add
        in_lp |= add.any(axis=1)
        lp = np.flatnonzero(in_lp)
    incr("legalize.assign_rounds", rounds)
    incr("legalize.assign_lp_cells", len(lp))
    if len(lp) and not tr.feasible:
        return None

    assignment = best.astype(np.int64)
    pinned = ~in_lp
    cost = float(np.dot(supplies[pinned], cand_cost[pinned, 0]))
    if len(lp):
        rounded, _overflow = round_almost_integral(
            tr, supplies[lp], free, costs
        )
        assignment[lp] = sinks[rounded]
        cost += tr.cost
    return assignment, cost


def _assign_to_segments(
    netlist: Netlist,
    cells: List[int],
    segs: List[RowSegment],
    candidates: int,
) -> Dict[int, List[int]]:
    """Minimum-movement cell->segment assignment via transportation.

    Each cell only gets arcs to its `candidates` nearest segments (by a
    displacement lower bound); if that restriction is infeasible the
    candidate set widens x4 until it covers all segments.  The
    transportation over those arcs is solved by pricing
    (:func:`_priced_transport`), so the LP sees only the cells that
    must leave their nearest segment.  Whole-cell overflow left by the
    rounding is repaired into segments with slack, with first-fit
    decreasing over all cells as the last resort.
    """
    n, k = len(cells), len(segs)
    supplies = netlist.width[cells]
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
        solved = _priced_transport(
            supplies, caps, *_candidates(lower_bounds, n, limit)
        )
        if solved is not None:
            break
        if limit >= k:
            raise ValueError(
                "segment assignment infeasible even with all candidates"
            )
        limit = min(limit * 4, k)

    assignment = solved[0]
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
    fixed, std = netlist.fixed_mask, netlist.std_cell_mask
    cells = [i for i in cell_indices if not fixed[i]]
    if not cells:
        return 0.0
    tall = [i for i in cells if not std[i]]
    if tall:
        raise ValueError(
            f"cell {netlist.cell_names[tall[0]]!r} is taller than a row; "
            "legalize macros separately"
        )
    total_width = sum(netlist.width[cells].tolist())
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
