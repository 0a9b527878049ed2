"""Standard-cell rows and row segments.

Rows are horizontal strips of height ``row_height`` aligned to the die
bottom.  A :class:`RowSegment` is the placeable part of one row inside
one rectangle, after subtracting blockages and fixed cells.  Segments
clipped to a region's rectangles drive the movebound-aware legalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.geometry import Rect
from repro.netlist import Netlist


@dataclass
class RowSegment:
    """A contiguous placeable interval of one row."""

    y_lo: float  # bottom of the row
    x_lo: float
    x_hi: float
    row_height: float

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def y_center(self) -> float:
        return self.y_lo + self.row_height / 2

    def rect(self) -> Rect:
        return Rect(self.x_lo, self.y_lo, self.x_hi, self.y_lo + self.row_height)


def _subtract_interval(
    segments: List[RowSegment], x_lo: float, x_hi: float
) -> List[RowSegment]:
    """Remove [x_lo, x_hi] from each segment (splitting as needed)."""
    out: List[RowSegment] = []
    for seg in segments:
        if x_hi <= seg.x_lo or x_lo >= seg.x_hi:
            out.append(seg)
            continue
        if x_lo > seg.x_lo:
            out.append(RowSegment(seg.y_lo, seg.x_lo, x_lo, seg.row_height))
        if x_hi < seg.x_hi:
            out.append(RowSegment(seg.y_lo, x_hi, seg.x_hi, seg.row_height))
    return out


def build_segments(
    netlist: Netlist,
    area: Iterable[Rect] = (),
    min_width: float = 0.0,
    obstacles: Iterable[Rect] = (),
) -> List[RowSegment]:
    """Row segments inside the given rectangles (default: whole die),
    minus blockages, fixed cells and the extra ``obstacles``.

    Rows are aligned to the global row grid ``die.y_lo + k * row_height``
    so segments from different regions always stack compatibly.  Only
    rows fully contained in a rectangle are used.
    """
    die = netlist.die
    h = netlist.row_height
    rects = list(area) or [die]
    min_width = max(min_width, netlist.site_width)

    obstacles = list(netlist.blockages) + list(obstacles) + [
        netlist.cell_rect(i)
        for i in np.flatnonzero(netlist.fixed_mask).tolist()
    ]

    segments: List[RowSegment] = []
    for rect in rects:
        k_lo = math.ceil((rect.y_lo - die.y_lo) / h - 1e-9)
        k_hi = math.floor((rect.y_hi - die.y_lo) / h + 1e-9)
        for k in range(k_lo, k_hi):
            y = die.y_lo + k * h
            if y + h > rect.y_hi + 1e-9:
                continue
            row_segments = [RowSegment(y, rect.x_lo, rect.x_hi, h)]
            for ob in obstacles:
                if ob.y_lo < y + h - 1e-9 and ob.y_hi > y + 1e-9:
                    row_segments = _subtract_interval(
                        row_segments, ob.x_lo, ob.x_hi
                    )
            # snap segment ends inward to the site grid so capacities
            # are site-exact (unaligned ends are unusable anyway)
            site = netlist.site_width
            for s in row_segments:
                if site > 0:
                    x_lo = die.x_lo + math.ceil(
                        (s.x_lo - die.x_lo) / site - 1e-9
                    ) * site
                    x_hi = die.x_lo + math.floor(
                        (s.x_hi - die.x_lo) / site + 1e-9
                    ) * site
                    s.x_lo, s.x_hi = x_lo, x_hi
            segments.extend(
                s for s in row_segments if s.width >= min_width
            )
    segments.sort(key=lambda s: (s.y_lo, s.x_lo))
    return segments


def total_segment_capacity(segments: Sequence[RowSegment]) -> float:
    return sum(s.width * s.row_height for s in segments)


def max_std_cell_width(netlist: Netlist) -> float:
    """Widest movable standard cell (row-height) in the design."""
    widths = netlist.width[netlist.std_cell_mask].tolist()
    return max(widths, default=netlist.site_width)


def usable_row_capacity(
    segments: Sequence[RowSegment], w_max: float
) -> float:
    """Packing-aware capacity of row segments.

    Whole-cell packing wastes up to about half the widest cell per
    segment (first-fit-decreasing leftovers), so each segment is
    discounted by ``w_max / 2``; segments narrower than ``w_max``
    contribute nothing reliable.  This is the capacity the legalizer
    and the workload feasibility gate agree on — geometric area
    systematically overestimates it on fragmented regions.
    """
    total = 0.0
    for s in segments:
        usable = s.width - 0.5 * w_max
        if usable > 0:
            total += usable * s.row_height
    return total
