"""Tetris legalization — the classical greedy baseline.

Cells are processed left to right; each is placed at the cheapest
currently-free position across nearby rows, packing against a per-row
frontier.  Fast, legal, but ignorant of capacities, regions and
movebounds — which is exactly why the naive baseline placer paired
with it produces movebound violations (Tables IV/V, "viol." column).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.legalize.rows import RowSegment
from repro.netlist import Netlist


def tetris_legalize(
    netlist: Netlist,
    cell_indices: Sequence[int],
    segments: Sequence[RowSegment],
    row_candidates: int = 40,
) -> float:
    """Greedy left-to-right packing.  Returns total L1 displacement.

    Each segment keeps a frontier (next free x).  A cell goes to the
    segment minimizing ``|y - row| + |x - position|`` where position is
    ``max(frontier, preferred x)`` if it fits, else the frontier.
    """
    segs = sorted(segments, key=lambda s: (s.y_lo, s.x_lo))
    frontier = [s.x_lo for s in segs]
    fixed, widths = netlist.fixed_mask.tolist(), netlist.width.tolist()
    cells = [i for i in cell_indices if not fixed[i]]
    cells.sort(key=lambda i: netlist.x[i])

    total = 0.0
    for i in cells:
        w = widths[i]
        x, y = netlist.x[i], netlist.y[i]
        ranked = sorted(
            range(len(segs)), key=lambda j: abs(segs[j].y_center - y)
        )
        best: Optional[Tuple[float, int, float]] = None
        tried = 0
        for j in ranked:
            seg = segs[j]
            if seg.x_hi - frontier[j] < w - 1e-9:
                continue
            tried += 1
            pos = max(frontier[j], min(x - w / 2, seg.x_hi - w))
            cost = abs(seg.y_center - y) + abs(pos + w / 2 - x)
            if best is None or cost < best[0]:
                best = (cost, j, pos)
            if tried >= row_candidates and best is not None:
                break
        if best is None:
            raise ValueError(
                f"tetris: no room for cell {netlist.cell_names[i]!r}"
            )
        _cost, j, pos = best
        site = netlist.site_width
        if site > 0:
            pos = segs[j].x_lo + round((pos - segs[j].x_lo) / site) * site
            pos = max(pos, frontier[j])
            if pos + w > segs[j].x_hi + 1e-9:
                pos = frontier[j]
        total += abs(pos + w / 2 - x) + abs(segs[j].y_center - y)
        netlist.x[i] = pos + w / 2
        netlist.y[i] = segs[j].y_center
        frontier[j] = pos + w
    return total
