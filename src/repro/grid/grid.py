"""Grid, Window and WindowRegion.

A :class:`Grid` is an nx x ny regular subdivision of the die.  After
:meth:`Grid.build_regions` every window holds its clipped region set
R_w with free areas (blockages subtracted) and capacities.  The grid
also provides the 2x3 / 3x2 *coarse windows* used by FBP realization
(paper §IV.B) and cell->window assignment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, RectSet
from repro.movebounds import Region, RegionDecomposition
from repro.netlist import Netlist

#: Compass directions in paper order.
DIRECTIONS = ("N", "E", "S", "W")


@dataclass
class WindowRegion:
    """A maximal region clipped to one window (an element of R_w)."""

    window_index: int
    region: Region
    area: RectSet
    free_area: RectSet

    def capacity(self, density_target: float = 1.0) -> float:
        return self.free_area.area * density_target

    def centroid(self) -> Tuple[float, float]:
        """Center of gravity of the free area (paper: region nodes are
        embedded at the center-of-gravity of the free region area)."""
        if not self.free_area.is_empty and self.free_area.area > 0:
            return self.free_area.centroid()
        return self.area.centroid()

    def admits(self, bound_name: str) -> bool:
        return self.region.admits(bound_name)

    @property
    def signature(self):
        return self.region.signature


@dataclass
class Window:
    """One grid window with its clipped regions R_w."""

    index: int
    ix: int
    iy: int
    rect: Rect
    regions: List[WindowRegion] = field(default_factory=list)

    def capacity(self, density_target: float = 1.0) -> float:
        return sum(r.capacity(density_target) for r in self.regions)

    def boundary_center(self, direction: str) -> Tuple[float, float]:
        """Center of the N/E/S/W boundary — transit node embedding."""
        cx, cy = self.rect.center
        if direction == "N":
            return (cx, self.rect.y_hi)
        if direction == "S":
            return (cx, self.rect.y_lo)
        if direction == "E":
            return (self.rect.x_hi, cy)
        if direction == "W":
            return (self.rect.x_lo, cy)
        raise ValueError(f"unknown direction {direction!r}")


class Grid:
    """An nx x ny regular grid over the die."""

    def __init__(self, die: Rect, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one window per axis")
        self.die = die
        self.nx = nx
        self.ny = ny
        self.xs = [
            die.x_lo + die.width * i / nx for i in range(nx + 1)
        ]
        self.ys = [
            die.y_lo + die.height * j / ny for j in range(ny + 1)
        ]
        # guard against float drift at the die boundary
        self.xs[-1] = die.x_hi
        self.ys[-1] = die.y_hi
        self._xs_np = np.asarray(self.xs)
        self._ys_np = np.asarray(self.ys)
        self.windows: List[Window] = []
        for iy in range(ny):
            for ix in range(nx):
                rect = Rect(
                    self.xs[ix], self.ys[iy], self.xs[ix + 1], self.ys[iy + 1]
                )
                self.windows.append(Window(len(self.windows), ix, iy, rect))

    # ------------------------------------------------------------------
    # index helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self) -> Iterator[Window]:
        return iter(self.windows)

    def window(self, ix: int, iy: int) -> Window:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise IndexError(f"window ({ix}, {iy}) out of grid")
        return self.windows[iy * self.nx + ix]

    def window_at(self, x: float, y: float) -> Window:
        """The window containing point (x, y), clamped to the die."""
        ix = min(max(bisect_right(self.xs, x) - 1, 0), self.nx - 1)
        iy = min(max(bisect_right(self.ys, y) - 1, 0), self.ny - 1)
        return self.window(ix, iy)

    def neighbor(self, window: Window, direction: str) -> Optional[Window]:
        dx, dy = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}[
            direction
        ]
        ix, iy = window.ix + dx, window.iy + dy
        if 0 <= ix < self.nx and 0 <= iy < self.ny:
            return self.window(ix, iy)
        return None

    def neighbors(self, window: Window) -> List[Tuple[str, Window]]:
        out = []
        for d in DIRECTIONS:
            n = self.neighbor(window, d)
            if n is not None:
                out.append((d, n))
        return out

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    def build_regions(
        self,
        decomposition: RegionDecomposition,
        windows: Optional[Iterable[int]] = None,
    ) -> None:
        """Clip every maximal region to every window it intersects,
        populating each window's R_w.

        Runs over region rectangles and locates overlapped window index
        ranges by bisection, so the cost is proportional to the number
        of produced pieces rather than |R| x |W|.  The result depends
        only on the decomposition and the grid dimensions, and every
        level of the multilevel schedule rebuilds it from scratch.

        ``windows`` (window indices) clips only those windows: each
        gets exactly the R_w of the full build, every other window an
        empty one — for a caller that reads R_w in a few windows only
        (the ECO engine's scoped refine).
        """
        for w in self.windows:
            w.regions = []
        pieces, free_pieces = self._scan_pieces(decomposition, windows)
        # pieces are a disjoint set's rectangles clipped to one window:
        # disjoint by construction
        for (widx, ridx), rects in pieces.items():
            region = decomposition.regions[ridx]
            free = RectSet._from_disjoint(free_pieces.get((widx, ridx), []))
            self.windows[widx].regions.append(
                WindowRegion(widx, region, RectSet._from_disjoint(rects), free)
            )
        for widx in {widx for widx, _ridx in pieces}:
            self.windows[widx].regions.sort(key=lambda wr: wr.region.index)

    def _scan_pieces(
        self,
        decomposition: RegionDecomposition,
        windows: Optional[Iterable[int]] = None,
    ) -> Tuple[
        Dict[Tuple[int, int], List[Rect]], Dict[Tuple[int, int], List[Rect]]
    ]:
        """(window, region) -> clipped rect lists for area and free
        area, by one bisection scan over the region rectangles — inside
        the bounding box of ``windows`` and only for its members, when
        given."""
        pieces: Dict[Tuple[int, int], List[Rect]] = {}
        free_pieces: Dict[Tuple[int, int], List[Rect]] = {}
        ix_min, ix_max, iy_min, iy_max = 0, self.nx - 1, 0, self.ny - 1
        wanted = None
        if windows is not None:
            wanted = set(windows)
            if not wanted:
                return pieces, free_pieces
            ix_min = min(self.windows[i].ix for i in wanted)
            ix_max = max(self.windows[i].ix for i in wanted)
            iy_min = min(self.windows[i].iy for i in wanted)
            iy_max = max(self.windows[i].iy for i in wanted)
        for region in decomposition:
            for source, store in (
                (region.area, pieces),
                (region.free_area, free_pieces),
            ):
                for rect in source:
                    ix_lo = min(
                        max(bisect_right(self.xs, rect.x_lo) - 1, 0),
                        self.nx - 1,
                    )
                    iy_lo = min(
                        max(bisect_right(self.ys, rect.y_lo) - 1, 0),
                        self.ny - 1,
                    )
                    for ix in range(max(ix_lo, ix_min), ix_max + 1):
                        if self.xs[ix] >= rect.x_hi:
                            break
                        for iy in range(max(iy_lo, iy_min), iy_max + 1):
                            if self.ys[iy] >= rect.y_hi:
                                break
                            window = self.window(ix, iy)
                            if wanted is not None and window.index not in wanted:
                                continue
                            clipped = rect.intersection(window.rect)
                            if clipped is not None and not clipped.is_empty:
                                store.setdefault(
                                    (window.index, region.index), []
                                ).append(clipped)
        return pieces, free_pieces

    # ------------------------------------------------------------------
    # cells
    # ------------------------------------------------------------------
    def assign_cells(self, netlist: Netlist) -> np.ndarray:
        """Window index of every cell's current center position."""
        # vectorized window_at: searchsorted(side="right") == bisect_right
        ix = np.clip(
            np.searchsorted(self._xs_np, netlist.x, side="right") - 1,
            0,
            self.nx - 1,
        )
        iy = np.clip(
            np.searchsorted(self._ys_np, netlist.y, side="right") - 1,
            0,
            self.ny - 1,
        )
        return iy * self.nx + ix

    # ------------------------------------------------------------------
    # coarse realization windows (paper §IV.B)
    # ------------------------------------------------------------------
    def coarse_block(self, v: Window, w: Window) -> List[Window]:
        """The coarse window W with {v, w} ⊆ W ⊆ 𝒲: v, the target w and
        v's neighbors — a 2x3 or 3x2 block clamped at the grid border.

        For a horizontal external edge (w east/west of v) the block is
        3 windows wide and 2 tall; vertical edges transpose this.
        """
        if abs(v.ix - w.ix) + abs(v.iy - w.iy) != 1:
            raise ValueError("coarse_block expects adjacent windows")
        if v.iy == w.iy:  # horizontal: 3 wide x 2 tall
            ix_lo = min(v.ix, w.ix)
            ix_span = self._clamp_span(ix_lo - (1 if v.ix > w.ix else 0), 3, self.nx)
            iy_span = self._clamp_span(v.iy, 2, self.ny)
        else:  # vertical: 2 wide x 3 tall
            iy_lo = min(v.iy, w.iy)
            iy_span = self._clamp_span(iy_lo - (1 if v.iy > w.iy else 0), 3, self.ny)
            ix_span = self._clamp_span(v.ix, 2, self.nx)
        block = []
        for iy in iy_span:
            for ix in ix_span:
                block.append(self.window(ix, iy))
        return block

    @staticmethod
    def _clamp_span(lo: int, length: int, limit: int) -> range:
        lo = max(0, min(lo, limit - length)) if limit >= length else 0
        hi = min(lo + length, limit)
        return range(lo, hi)

    def block_rect(self, block: Sequence[Window]) -> Rect:
        r = block[0].rect
        for w in block[1:]:
            r = r.bbox_union(w.rect)
        return r

    def __repr__(self) -> str:
        return f"Grid({self.nx}x{self.ny} over {self.die})"
