"""The Netlist container and placement state.

A Netlist owns cells, nets, the die rectangle, blockages and row
geometry, plus the *current placement* as numpy arrays of cell-center
coordinates.  Placements are cheap to snapshot and restore, which the
partitioning and legalization code uses heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, RectSet
from repro.netlist.elements import Cell, Net, Pin


@dataclass
class PlacementSnapshot:
    """An immutable copy of cell-center coordinates."""

    x: np.ndarray
    y: np.ndarray

    def copy(self) -> "PlacementSnapshot":
        return PlacementSnapshot(self.x.copy(), self.y.copy())


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple:
    """``(first, idx)``: ``idx`` lists the index ranges
    ``starts[i] : starts[i] + counts[i]`` one after the other, range
    ``i`` beginning at ``idx[first[i]]``."""
    first = np.cumsum(counts) - counts
    idx = np.repeat(starts - first, counts) + np.arange(int(counts.sum()))
    return first, idx


class Netlist:
    """Cells + nets + die + placement state.

    Parameters
    ----------
    die:
        The chip area rectangle (``A`` in the paper).
    row_height:
        Height of a standard-cell row; cells whose height equals the
        row height are row-legalizable standard cells.
    site_width:
        Legal x-granularity inside a row.
    """

    def __init__(
        self,
        die: Rect,
        row_height: float = 1.0,
        site_width: float = 1.0,
        name: str = "netlist",
    ) -> None:
        self.name = name
        self.die = die
        self.row_height = row_height
        self.site_width = site_width
        self.cells: List[Cell] = []
        self.nets: List[Net] = []
        self.blockages: RectSet = RectSet()
        self._cell_by_name: Dict[str, int] = {}
        self.x: np.ndarray = np.zeros(0)
        self.y: np.ndarray = np.zeros(0)
        # lazy vectorization caches (invalidated on structural change)
        self._hpwl_cache: Optional[tuple] = None
        self._dim_cache: Optional[tuple] = None
        self._size_cache = None
        self._nets_cache: Optional[list] = None
        self._cell_nets_csr_cache: Optional[tuple] = None
        self._net_row_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        width: float,
        height: float,
        *,
        x: Optional[float] = None,
        y: Optional[float] = None,
        fixed: bool = False,
        movebound: Optional[str] = None,
    ) -> Cell:
        """Create a cell; position defaults to the die center."""
        return self.add_cells(
            [name], width, height, x=x, y=y, fixed=fixed, movebound=movebound
        )[0]

    def add_cells(
        self,
        names: Sequence[str],
        widths,
        heights,
        *,
        x=None,
        y=None,
        fixed=False,
        movebound=None,
    ) -> List[Cell]:
        """Bulk :meth:`add_cell`: append many cells in one call.

        ``widths``/``heights`` broadcast against ``names``; positions
        default to the die center; ``fixed`` and ``movebound`` are one
        value for all cells or one per cell.  Validation and coordinate
        growth are vectorized — one array concatenation instead of one
        ``np.append`` per cell, which is what makes million-cell
        construction linear instead of quadratic.  Nothing is added
        when a cell is rejected.
        """
        n = len(names)
        widths = np.broadcast_to(
            np.asarray(widths, dtype=np.float64), (n,)
        )
        heights = np.broadcast_to(
            np.asarray(heights, dtype=np.float64), (n,)
        )
        bad = (widths <= 0) | (heights <= 0)
        if (
            bad.any()
            or len(set(names)) != n
            or not self._cell_by_name.keys().isdisjoint(names)
        ):
            # report the first offender, as a loop of add_cell would
            seen = set(self._cell_by_name)
            for nm, bad_dims in zip(names, bad.tolist()):
                if nm in seen:
                    raise ValueError(f"duplicate cell name {nm!r}")
                if bad_dims:
                    raise ValueError(
                        f"cell {nm!r} must have positive dimensions"
                    )
                seen.add(nm)
        cx, cy = self.die.center
        xs = (
            np.full(n, cx)
            if x is None
            else np.broadcast_to(np.asarray(x, dtype=np.float64), (n,))
        )
        ys = (
            np.full(n, cy)
            if y is None
            else np.broadcast_to(np.asarray(y, dtype=np.float64), (n,))
        )
        fixed = np.broadcast_to(np.asarray(fixed, dtype=bool), (n,))
        if movebound is None or isinstance(movebound, str):
            movebound = [movebound] * n
        base = len(self.cells)
        new_cells = [
            Cell(nm, w, h, fixed=f, movebound=mb, index=base + i)
            for i, (nm, w, h, f, mb) in enumerate(
                zip(
                    names,
                    widths.tolist(),
                    heights.tolist(),
                    fixed.tolist(),
                    movebound,
                )
            )
        ]
        self._cell_by_name.update(
            (c.name, c.index) for c in new_cells
        )
        self.cells.extend(new_cells)
        self.x = np.concatenate([self.x, xs])
        self.y = np.concatenate([self.y, ys])
        self._hpwl_cache = None
        self._dim_cache = None
        self._size_cache = None
        self._nets_cache = None
        self._cell_nets_csr_cache = None
        self._net_row_cache = None
        return new_cells

    def add_nets_bulk(
        self,
        names: Sequence[str],
        member_lists: Sequence[Sequence[int]],
        weights=None,
    ) -> None:
        """Bulk :meth:`add_net` for center-pin nets.

        Each entry of ``member_lists`` is a sequence of cell indices;
        every pin sits at its cell center (offset 0, the generator's
        convention).  Index validation runs once over the flattened
        members instead of per pin.
        """
        if len(member_lists) != len(names):
            raise ValueError("names and member_lists length mismatch")
        member_lists = [
            m if isinstance(m, list)
            else m.tolist() if isinstance(m, np.ndarray)
            else list(m)
            for m in member_lists
        ]
        nonempty = [m for m in member_lists if m]
        if nonempty:
            lo = min(map(min, nonempty))
            hi = max(map(max, nonempty))
            if lo < 0 or hi >= len(self.cells):
                raise ValueError(
                    f"bulk net references cell index "
                    f"{hi if hi >= len(self.cells) else lo}, "
                    f"but only {len(self.cells)} cells exist"
                )
        # Pins are frozen and a center pin only depends on its cell, so
        # nets share one Pin instance per cell — ~4x fewer dataclass
        # constructions and proportionally less memory at 10^6 nets.
        pins = list(map(Pin, range(len(self.cells))))
        if weights is None:
            self.nets.extend(
                Net(nm, [pins[c] for c in m])
                for nm, m in zip(names, member_lists)
            )
        else:
            self.nets.extend(
                Net(nm, [pins[c] for c in m], float(w))
                for nm, m, w in zip(names, member_lists, weights)
            )
        self._hpwl_cache = None
        self._nets_cache = None
        self._cell_nets_csr_cache = None
        self._net_row_cache = None

    def add_net(self, name: str, pins: Iterable[Pin], weight: float = 1.0) -> Net:
        net = Net(name, list(pins), weight)
        for pin in net.pins:
            if pin.cell_index >= len(self.cells):
                raise ValueError(
                    f"net {name!r} references cell index {pin.cell_index}, "
                    f"but only {len(self.cells)} cells exist"
                )
        self.nets.append(net)
        self._hpwl_cache = None
        self._nets_cache = None
        self._cell_nets_csr_cache = None
        self._net_row_cache = None
        return net

    def add_blockage(self, rect: Rect) -> None:
        self.blockages = self.blockages.union(RectSet([rect]))

    def cell_index(self, name: str) -> int:
        return self._cell_by_name[name]

    def finalize(self) -> None:
        """Freeze coordinate arrays into contiguous float64 storage.

        Call after bulk construction; add_cell keeps working afterwards
        but repeated np.append during construction of large netlists is
        slow, so builders batch via set_positions instead.
        """
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)

    # ------------------------------------------------------------------
    # placement state
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def movable_indices(self) -> np.ndarray:
        return np.array(
            [c.index for c in self.cells if not c.fixed], dtype=np.int64
        )

    @property
    def fixed_mask(self) -> np.ndarray:
        return np.array([c.fixed for c in self.cells], dtype=bool)

    def movable_area(self) -> float:
        return sum(c.size for c in self.cells if not c.fixed)

    def snapshot(self) -> PlacementSnapshot:
        return PlacementSnapshot(self.x.copy(), self.y.copy())

    def restore(self, snap: PlacementSnapshot) -> None:
        if len(snap.x) != self.num_cells:
            raise ValueError("snapshot size does not match netlist")
        self.x = snap.x.copy()
        self.y = snap.y.copy()

    def set_positions(
        self, x: Sequence[float], y: Sequence[float]
    ) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(x) != self.num_cells or len(y) != self.num_cells:
            raise ValueError("position arrays must cover all cells")
        self.x = x.copy()
        self.y = y.copy()

    def cell_rect(self, index: int) -> Rect:
        c = self.cells[index]
        return Rect(
            self.x[index] - c.width / 2,
            self.y[index] - c.height / 2,
            self.x[index] + c.width / 2,
            self.y[index] + c.height / 2,
        )

    def pin_position(self, pin: Pin) -> Tuple[float, float]:
        if pin.is_fixed_terminal:
            return (pin.offset_x, pin.offset_y)
        return (
            self.x[pin.cell_index] + pin.offset_x,
            self.y[pin.cell_index] + pin.offset_y,
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def net_bbox(self, net: Net) -> Optional[Rect]:
        """Bounding box of all pin positions of the net (None if empty)."""
        if not net.pins:
            return None
        xs: List[float] = []
        ys: List[float] = []
        for pin in net.pins:
            px, py = self.pin_position(pin)
            xs.append(px)
            ys.append(py)
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def _hpwl_arrays(self) -> tuple:
        """Cached flat pin arrays for vectorized HPWL."""
        if self._hpwl_cache is None:
            ptr = [0]
            pin_cell: List[int] = []
            off_x: List[float] = []
            off_y: List[float] = []
            weights: List[float] = []
            for net in self.nets:
                if net.degree < 2:
                    continue
                for pin in net.pins:
                    pin_cell.append(pin.cell_index)
                    off_x.append(pin.offset_x)
                    off_y.append(pin.offset_y)
                ptr.append(len(pin_cell))
                weights.append(net.weight)
            self._hpwl_cache = (
                np.array(ptr[:-1], dtype=np.int64),
                np.array(pin_cell, dtype=np.int64),
                np.array(off_x),
                np.array(off_y),
                np.array(weights),
            )
        return self._hpwl_cache

    def net_spans(self, rows=None) -> np.ndarray:
        """Half-perimeter ``dx + dy`` of each net with two or more pins
        (the ``_hpwl_arrays`` layout), or of the given rows of it only —
        the same floats either way, so a span vector patched row-wise
        dots to the bits :meth:`hpwl` returns."""
        ptr, pin_cell, off_x, off_y, _weights = self._hpwl_arrays()
        if rows is not None:
            ptr, idx = self._row_pins(rows)
            pin_cell, off_x, off_y = pin_cell[idx], off_x[idx], off_y[idx]
        if len(ptr) == 0:
            return np.zeros(0)
        on_cell = pin_cell >= 0
        px = np.where(on_cell, self.x[pin_cell] + off_x, off_x)
        py = np.where(on_cell, self.y[pin_cell] + off_y, off_y)
        dx = np.maximum.reduceat(px, ptr) - np.minimum.reduceat(px, ptr)
        dy = np.maximum.reduceat(py, ptr) - np.minimum.reduceat(py, ptr)
        return dx + dy

    def span_layout(self) -> tuple:
        """``(weights, row_of_net)`` of the :meth:`net_spans` vector:
        the weight of each row, and each net's row (-1 for the nets
        with fewer than two pins, which have none)."""
        return self._hpwl_arrays()[4], self._net_rows()

    def hpwl(self) -> float:
        """Weighted half-perimeter wirelength of the current placement."""
        weights = self._hpwl_arrays()[4]
        if len(weights) == 0:
            return 0.0
        return float(np.dot(weights, self.net_spans()))

    def nets_of_cell(self) -> list:
        """Cached net indices incident to each cell (topological)."""
        if self._nets_cache is None:
            out: List[List[int]] = [[] for _ in range(self.num_cells)]
            for nidx, net in enumerate(self.nets):
                for pin in net.pins:
                    if pin.cell_index >= 0:
                        out[pin.cell_index].append(nidx)
            self._nets_cache = out
        return self._nets_cache

    def cell_nets_csr(self) -> tuple:
        """Cached CSR ``(start, net_ids)`` of net indices incident to
        each cell — ``net_ids[start[c]:start[c+1]]`` are cell ``c``'s
        nets, in the same order ``nets_of_cell`` lists them."""
        if self._cell_nets_csr_cache is None:
            lists = self.nets_of_cell()
            start = np.zeros(len(lists) + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(
                    (len(ln) for ln in lists), np.int64, count=len(lists)
                ),
                out=start[1:],
            )
            ids = np.fromiter(
                (n for ln in lists for n in ln),
                np.int64,
                count=int(start[-1]),
            )
            self._cell_nets_csr_cache = (start, ids)
        return self._cell_nets_csr_cache

    def nets_of_cells(self, cells) -> np.ndarray:
        """Ascending indices of the nets incident to any of ``cells``."""
        start, ids = self.cell_nets_csr()
        ci = np.asarray(cells, dtype=np.int64)
        _first, gather = _ranges(start[ci], start[ci + 1] - start[ci])
        return np.unique(ids[gather])

    def _net_rows(self) -> np.ndarray:
        """Net index -> row in the ``_hpwl_arrays`` layout (degree < 2
        nets, which that layout drops, map to -1)."""
        if self._net_row_cache is None:
            rows = np.full(self.num_nets, -1, dtype=np.int64)
            r = 0
            for nidx, net in enumerate(self.nets):
                if net.degree >= 2:
                    rows[nidx] = r
                    r += 1
            self._net_row_cache = rows
        return self._net_row_cache

    def _row_pins(self, rows: np.ndarray) -> tuple:
        """``(ptr, idx)``: the pins of the given ``_hpwl_arrays`` rows,
        ``idx`` gathering them out of the flat pin arrays and ``ptr``
        marking where each row starts in the gathered order."""
        ptr, pin_cell = self._hpwl_arrays()[:2]
        last = len(ptr) - 1
        ends = np.where(
            rows < last, ptr[np.minimum(rows + 1, last)], len(pin_cell)
        )
        return _ranges(ptr[rows], ends - ptr[rows])

    def net_subset_arrays(self, net_indices) -> tuple:
        """``_hpwl_arrays``-layout flat pin arrays restricted to the
        given (ascending) net indices, extracted by pure array gathers
        from the cached global arrays — value-identical to rebuilding
        the subset net by net."""
        _ptr, pin_cell, off_x, off_y, weights = self._hpwl_arrays()
        rows = self._net_rows()[np.asarray(net_indices, dtype=np.int64)]
        rows = rows[rows >= 0]
        sub_ptr, idx = self._row_pins(rows)
        return sub_ptr, pin_cell[idx], off_x[idx], off_y[idx], weights[rows]

    def total_cell_area(self) -> float:
        return sum(c.size for c in self.cells)

    def cell_sizes(self) -> np.ndarray:
        """Cached per-cell areas — ``Cell.size`` evaluated once per
        cell (the identical ``width * height`` product), so hot loops
        gather instead of bouncing through the property per call."""
        if self._size_cache is None:
            self._size_cache = np.array(
                [c.width * c.height for c in self.cells],
                dtype=np.float64,
            )
        return self._size_cache

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _dim_arrays(self) -> tuple:
        """Cached (movable mask, half widths, half heights)."""
        if self._dim_cache is None:
            movable = np.array(
                [not c.fixed for c in self.cells], dtype=bool
            )
            hw = np.array(
                [c.width / 2 for c in self.cells], dtype=np.float64
            )
            hh = np.array(
                [c.height / 2 for c in self.cells], dtype=np.float64
            )
            self._dim_cache = (movable, hw, hh)
        return self._dim_cache

    def clamp_into_die(self) -> None:
        """Clamp every movable cell center so its rectangle fits the die."""
        movable, hw, hh = self._dim_arrays()
        self.x[movable] = np.clip(
            self.x[movable],
            self.die.x_lo + hw[movable],
            self.die.x_hi - hw[movable],
        )
        self.y[movable] = np.clip(
            self.y[movable],
            self.die.y_lo + hh[movable],
            self.die.y_hi - hh[movable],
        )

    def check_in_die(self, tol: float = 1e-6) -> List[int]:
        """Indices of movable cells whose rectangle leaves the die."""
        movable, hw, hh = self._dim_arrays()
        bad = movable & (
            (self.x - hw < self.die.x_lo - tol)
            | (self.y - hh < self.die.y_lo - tol)
            | (self.x + hw > self.die.x_hi + tol)
            | (self.y + hh > self.die.y_hi + tol)
        )
        return np.nonzero(bad)[0].tolist()

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, cells={self.num_cells}, "
            f"nets={self.num_nets}, die={self.die})"
        )
