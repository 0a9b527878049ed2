"""Bin-based density analysis.

A :class:`DensityMap` rasterizes cell area onto a regular bin grid with
exact rectangle-overlap accounting, and exposes the utilization and
overflow quantities used by spreading placers (RQL/Kraftwerk-style
baselines) and the ISPD 2006 density penalty.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.netlist import Netlist


class DensityMap:
    """Cell-area utilization on an nx x ny bin grid."""

    def __init__(self, netlist: Netlist, nx: int, ny: int) -> None:
        self.netlist = netlist
        self.nx = nx
        self.ny = ny
        die = netlist.die
        self.bin_w = die.width / nx
        self.bin_h = die.height / ny
        self.usage = np.zeros((nx, ny))
        #: capacity of each bin = bin area minus blockages & fixed cells
        self.capacity = np.full((nx, ny), self.bin_w * self.bin_h)
        blocked = [r.as_tuple() for r in netlist.blockages]
        self._splat(
            np.vstack([np.reshape(blocked, (-1, 4)), self._cell_rects(True)]),
            self.capacity,
            sign=-1.0,
        )
        np.clip(self.capacity, 0.0, None, out=self.capacity)
        self.update()

    # ------------------------------------------------------------------
    def _cell_rects(self, fixed: bool) -> np.ndarray:
        """(n, 4) ``x_lo, y_lo, x_hi, y_hi`` of the fixed (or movable)
        cells in index order, with :meth:`Netlist.cell_rect`'s
        arithmetic."""
        movable, hw, hh = self.netlist.cell_dims()
        index = np.flatnonzero(self.netlist.fixed_mask if fixed else movable)
        hw, hh = hw[index], hh[index]
        x, y = self.netlist.x[index], self.netlist.y[index]
        return np.column_stack([x - hw, y - hh, x + hw, y + hh])

    def _splat(
        self, rects: np.ndarray, target: np.ndarray, sign: float = 1.0
    ) -> None:
        """Add each rectangle's exact overlap area into the bin array.

        The (rectangle, i, j) terms are laid out rectangle by
        rectangle, i-major within one, and ``np.add.at`` adds them in
        that order, so every bin sums the same floats in the same order
        as a loop over rectangles and their bins would.
        """
        die = self.netlist.die
        origin = np.array([die.x_lo, die.y_lo])
        size = np.array([self.bin_w, self.bin_h])
        lo = np.maximum(rects[:, :2], origin)
        hi = np.minimum(rects[:, 2:], [die.x_hi, die.y_hi])
        keep = (hi > lo).all(axis=1)
        lo, hi = lo[keep], hi[keep]
        first = ((lo - origin) / size).astype(np.int64)
        last = ((hi - origin) / size).astype(np.int64)
        last = np.minimum(last, [self.nx - 1, self.ny - 1])
        span = np.maximum(last - first + 1, 0)
        counts = span[:, 0] * span[:, 1]
        rect = np.repeat(np.arange(len(counts)), counts)
        k = np.arange(len(rect)) - np.repeat(np.cumsum(counts) - counts, counts)
        nj = span[rect, 1]
        ij = first[rect] + np.column_stack([k // nj, k % nj])
        lo, hi, bin_lo = lo[rect], hi[rect], origin + ij * size
        overlap = np.minimum(hi, bin_lo + size) - np.maximum(lo, bin_lo)
        ok = (overlap > 0).all(axis=1)
        w, h = overlap[ok].T
        np.add.at(target, tuple(ij[ok].T), sign * w * h)

    def update(self) -> None:
        """Recompute utilization from the current cell positions."""
        self.usage.fill(0.0)
        self._splat(self._cell_rects(False), self.usage)

    # ------------------------------------------------------------------
    def utilization(self) -> np.ndarray:
        """usage / capacity, with fully-blocked bins reported as 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(self.capacity > 1e-9, self.usage / self.capacity, 0.0)
        return u

    def total_overflow(self, target: float = 1.0) -> float:
        """Cell area beyond ``target x capacity``, summed over bins."""
        return float(
            np.maximum(self.usage - target * self.capacity, 0.0).sum()
        )

    def overflow_ratio(self, target: float = 1.0) -> float:
        """Total overflow relative to total movable cell area."""
        area = self.netlist.movable_area()
        if area <= 0:
            return 0.0
        return self.total_overflow(target) / area

    def max_utilization(self) -> float:
        return float(self.utilization().max(initial=0.0))

    def bin_center(self, i: int, j: int) -> Tuple[float, float]:
        die = self.netlist.die
        return (
            die.x_lo + (i + 0.5) * self.bin_w,
            die.y_lo + (j + 0.5) * self.bin_h,
        )

    def bin_of(self, x: float, y: float) -> Tuple[int, int]:
        die = self.netlist.die
        i = min(max(int((x - die.x_lo) / self.bin_w), 0), self.nx - 1)
        j = min(max(int((y - die.y_lo) / self.bin_h), 0), self.ny - 1)
        return i, j


def default_bin_count(netlist: Netlist) -> int:
    """A bin grid around sqrt(#cells), the usual spreading resolution."""
    n = max(netlist.num_cells, 1)
    return max(4, int(round(n**0.5 / 2)))
