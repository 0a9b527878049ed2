"""The Netlist container and placement state.

A Netlist owns cells, nets, the die rectangle, blockages and row
geometry, plus the *current placement* as numpy arrays of cell-center
coordinates.  Placements are cheap to snapshot and restore, which the
partitioning and legalization code uses heavily.

The nets are one CSR pin table (:meth:`Netlist.pin_table`): ``net_ptr``
delimits each net's rows of ``pin_cell`` (-1 for a pad), ``pin_dx`` and
``pin_dy``, and ``net_weight`` / ``net_names`` hold one entry per net.
No :class:`Net` or :class:`Pin` object is kept: they are construction
inputs of :meth:`Netlist.add_net` and what :attr:`Netlist.nets` builds
on demand.  :meth:`Netlist.add_nets_bulk` appends columns without any;
appended nets wait in a buffer that the next read compacts.  Every
per-net array the placer reads (``pin_arrays``, ``cell_nets_csr``,
``span_layout``, ``net_subset_arrays``) is derived from the table by
array operations.

The cells are columns too: :attr:`Netlist.width`, :attr:`Netlist.height`,
:attr:`Netlist.fixed_mask` and the movebound codes behind
:meth:`Netlist.movebound_groups`.  No :class:`Cell` is kept either:
:attr:`Netlist.cells` builds one on demand.  Cells and net weights
change only through :meth:`Netlist.set_cells` and
:meth:`Netlist.set_net_weights`, which keep every derived array
(dimensions, sizes, masks, groups, the pin arrays) right.  The arrays
the accessors hand out are read-only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect, RectSet
from repro.netlist.elements import DEFAULT_BOUND, FIXED_PIN, Cell, Net, Pin
from repro.records import Records


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


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: a derived array is the Netlist's."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


_EMPTY_TABLE = _frozen(
    np.zeros(1, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0),
    np.zeros(0),
    np.zeros(0),
)


class _CsrLists(Sequence):
    """Row ``c`` of a CSR ``(start, ids)`` pair as a list."""

    __slots__ = ("rows", "start", "ids")

    def __init__(self, start: np.ndarray, ids: np.ndarray) -> None:
        self.rows = range(len(start) - 1)
        self.start, self.ids = start.tolist(), ids.tolist()

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, c) -> list:
        c = self.rows[c]
        return self.ids[self.start[c]:self.start[c + 1]]


class Netlist:
    """Cells + nets + die + placement state.

    Parameters
    ----------
    die:
        The chip area rectangle (``A`` in the paper).
    row_height:
        Height of a standard-cell row; movable cells no taller than a
        row are row-legalizable standard cells (:attr:`std_cell_mask`),
        taller ones are macros (:attr:`macro_indices`).
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
        self.blockages: RectSet = RectSet()
        # the cells: one name each and the (width, height, fixed, bound)
        # columns, a bound code indexing _bound_code's names (None first)
        self._cell_names: List[str] = []
        self._cell_by_name: Dict[str, int] = {}
        self._cell_table: tuple = _frozen(
            np.zeros(0), np.zeros(0), np.zeros(0, bool), np.zeros(0, np.int64)
        )
        self._bound_code: Dict[Optional[str], int] = {None: 0}
        # the nets: one name each, and the pin table (see pin_table);
        # nets added since the table was last read wait in
        # _pending_nets as (degrees, cells, dx, dy, weights) chunks:
        # arrays from add_nets_bulk, lists that add_net appends to
        self._net_names: List[str] = []
        self._pin_table: tuple = _EMPTY_TABLE
        self._pending_nets: list = []
        self._net_by_name: Optional[Dict[str, int]] = None
        self.x: np.ndarray = np.zeros(0)
        self.y: np.ndarray = np.zeros(0)
        # lazy derived arrays, dropped by _forget on any change
        self._cell_cache: Optional[tuple] = None
        self._hpwl_cache: Optional[tuple] = None
        self._cell_nets_csr_cache: Optional[tuple] = None
        self._net_row_cache: Optional[np.ndarray] = None

    def __setstate__(self, state: dict) -> None:
        # a copy (deepcopy, pickle) comes back with writeable arrays:
        # freeze the pin table and copies of the cell columns (set_cells
        # cannot write a pickle's buffer); derived arrays rebuild frozen
        self.__dict__.update(state)
        self._cell_table = _frozen(*map(np.array, self._cell_table))
        self._pin_table = _frozen(*self._pin_table)
        self._forget(dims=True, pins=True)

    def _forget(self, dims: bool = False, pins: bool = False) -> None:
        """Drop the derived arrays of the cells (``dims``) and of the
        net hypergraph (``pins``); the next read rebuilds them."""
        if dims:
            self._cell_cache = None
        if pins:
            self._hpwl_cache = None
            self._cell_nets_csr_cache = self._net_row_cache = None

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
        """Create a cell (at the die center unless placed); its record."""
        self.add_cells(
            [name], width, height, x=x, y=y, fixed=fixed, movebound=movebound
        )
        return self.cells[-1]

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
    ) -> None:
        """Bulk :meth:`add_cell`: append many cells in one call.

        ``widths``/``heights`` (positive and finite) broadcast against
        ``names``; positions default to the die center; ``fixed`` and
        ``movebound`` are one value for all cells or one per cell.
        Validation and growth are vectorized — one concatenation per
        column instead of one ``np.append`` per cell, which is what
        makes million-cell construction linear instead of quadratic.
        Nothing is added when a cell is rejected.
        """
        n = len(names)

        def column(values, dtype=np.float64) -> np.ndarray:
            return np.broadcast_to(np.asarray(values, dtype=dtype), (n,))

        widths, heights = column(widths), column(heights)
        dims = np.stack([widths, heights])  # NaN fails every comparison
        bad = ~((0 < dims) & (dims < np.inf)).all(axis=0)
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
        xs, ys = column(cx if x is None else x), column(cy if y is None else y)
        if movebound is None or isinstance(movebound, str):
            movebound = [movebound] * n
        codes = self._bound_code
        bound = [codes.setdefault(mb, len(codes)) for mb in movebound]
        new = (widths, heights, column(fixed, bool), column(bound, np.int64))
        base = self.num_cells
        self._cell_names.extend(names)
        self._cell_by_name.update(zip(names, range(base, base + n)))
        self._cell_table = _frozen(
            *map(np.concatenate, zip(self._cell_table, new))
        )
        self.x = np.concatenate([self.x, xs])
        self.y = np.concatenate([self.y, ys])
        self._forget(dims=True, pins=True)

    def add_nets_bulk(
        self,
        names: Sequence[str],
        member_lists: Sequence[Sequence[int]],
        weights=None,
        offsets=None,
    ) -> None:
        """Append many nets to the pin table in one call.

        Each entry of ``member_lists`` is a sequence of pin cells (cell
        indices, ``FIXED_PIN`` = -1 for a pad).  ``offsets`` is
        ``(dx, dy)``, one flat sequence per axis with an entry for every
        pin in member order (a pad's is its absolute position); without
        it every pin sits at its cell center.  ``weights`` defaults to 1.
        Nothing is added when a net is rejected.
        """
        if len(member_lists) != len(names):
            raise ValueError("names and member_lists length mismatch")
        degrees = np.fromiter(
            map(len, member_lists), np.int64, count=len(names)
        )
        cells = np.fromiter(
            chain.from_iterable(member_lists),
            np.int64,
            count=int(degrees.sum()),
        )
        if len(cells):
            self._check_pin_cells(cells.min(), cells.max())
        if offsets is None:
            dx = dy = np.zeros(len(cells))
        else:
            dx, dy = (np.array(o, dtype=np.float64) for o in offsets)
            if dx.shape != cells.shape or dy.shape != cells.shape:
                raise ValueError("offsets must give one value per pin")
        weights = (
            np.ones(len(names))
            if weights is None
            else np.array(weights, dtype=np.float64)
        )
        if weights.shape != degrees.shape:
            raise ValueError("names and weights length mismatch")
        self._net_names.extend(names)
        self._pending_nets.append((degrees, cells, dx, dy, weights))
        self._net_by_name = None
        self._forget(pins=True)

    def add_net(self, name: str, pins: Iterable[Pin], weight: float = 1.0) -> Net:
        """Append one net to a list chunk of the pending nets; returns
        its record (a construction input, not the netlist's state)."""
        net = Net(name, list(pins), weight)
        cells = [p.cell_index for p in net.pins]
        if cells:
            self._check_pin_cells(min(cells), max(cells))
        pending = self._pending_nets
        if not pending or not isinstance(pending[-1][0], list):
            pending.append(([], [], [], [], []))
        degrees, pin_cell, dx, dy, weights = pending[-1]
        degrees.append(len(cells))
        pin_cell += cells
        dx += [p.offset_x for p in net.pins]
        dy += [p.offset_y for p in net.pins]
        weights.append(weight)
        self._net_names.append(name)
        self._net_by_name = None
        self._forget(pins=True)
        return net

    def _check_pin_cells(self, lo: int, hi: int) -> None:
        """Refuse pin cells ``lo .. hi`` beyond a pad (-1) .. the last cell."""
        if lo < FIXED_PIN or hi >= self.num_cells:
            raise ValueError(
                f"a net references cell index "
                f"{lo if lo < FIXED_PIN else hi}, "
                f"but only {self.num_cells} cells exist"
            )

    def set_cells(self, indices: Iterable[int], **changes) -> None:
        """Give the cells at ``indices`` new values of ``width``,
        ``height``, ``fixed`` and/or ``movebound`` (one value for all
        of them), written in place into the columns.  No validation:
        :func:`validate_instance` is the check."""
        fields = ("width", "height", "fixed", "movebound")
        unknown = changes.keys() - set(fields)
        if unknown:
            raise TypeError(f"cannot set cell field(s) {sorted(unknown)}")
        if "movebound" in changes:
            mb, codes = changes["movebound"], self._bound_code
            changes["movebound"] = codes.setdefault(mb, len(codes))
        idx = np.fromiter(indices, np.int64)
        for field, column in zip(fields, self._cell_table):
            if field in changes:
                column.flags.writeable = True
                try:
                    column[idx] = changes[field]
                finally:
                    column.flags.writeable = False
        self._forget(dims=True)

    def set_net_weights(self, weights: Dict[int, float]) -> None:
        """Give the nets ``weights`` maps (net index -> weight) their
        new weights.  The weight column is replaced, not written, so a
        table read before keeps its weights; the net topology, and
        every array derived from it alone, stays."""
        if not weights:
            return
        ptr, cell, dx, dy, old = self.pin_table()
        new = old.copy()
        idx = np.fromiter(weights.keys(), np.int64, count=len(weights))
        new[idx] = np.fromiter(
            weights.values(), np.float64, count=len(weights)
        )
        self._pin_table = _frozen(ptr, cell, dx, dy, new)
        self._hpwl_cache = None

    def add_blockage(self, rect: Rect) -> None:
        self.blockages = self.blockages.union(RectSet([rect]))

    def cell_index(self, name: str) -> int:
        return self._cell_by_name[name]

    def net_index(self, name: str) -> int:
        """The index of the net named ``name`` (the last one, if names
        repeat); ``KeyError`` if there is none."""
        if self._net_by_name is None:
            names = self._net_names
            self._net_by_name = dict(zip(names, range(len(names))))
        return self._net_by_name[name]

    # ------------------------------------------------------------------
    # placement state
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self._cell_names)

    @property
    def num_nets(self) -> int:
        return len(self._net_names)

    @property
    def cells(self) -> Sequence:
        """The cells as :class:`Cell` records, built on demand."""
        return Records(lambda: self.num_cells, self._cell_records)

    def _cell_records(self, a: int, b: int):
        table = list(self._bound_code)
        columns = (col[a:b].tolist() for col in self._cell_table)
        for i, (name, w, h, f, code) in enumerate(
            zip(self._cell_names[a:b], *columns), a
        ):
            yield Cell(name, w, h, f, table[code], i)

    def movebound_of(self, index: int) -> Optional[str]:
        """Cell ``index``'s movebound as it was set (``None`` for none),
        read from the bound code column: what ``set_cells(movebound=)``
        takes back."""
        return list(self._bound_code)[self._cell_table[3][index]]

    @property
    def cell_names(self) -> List[str]:
        """The cell names in index order (the netlist's own list: read,
        never change it)."""
        return self._cell_names

    @property
    def width(self) -> np.ndarray:
        """The cell widths (read-only; set_cells writes them in place)."""
        return self._cell_table[0]

    @property
    def height(self) -> np.ndarray:
        """The cell heights (read-only, as :attr:`width`)."""
        return self._cell_table[1]

    def movebound_groups(self) -> tuple:
        """Cached ``(codes, names)``: the cells grouped by movebound.
        ``names`` are the distinct movebound names of the cells, sorted,
        with :data:`DEFAULT_BOUND` for the cells without one; cell
        ``i``'s is ``names[codes[i]]``."""
        return self._cell_arrays()[5]

    def _cell_arrays(self) -> tuple:
        """The arrays derived from the cell columns, built together on
        the first read after a change: ``cell_dims()``, sizes, movable
        indices, std mask, macro indices, ``movebound_groups()``."""
        if self._cell_cache is None:
            width, height, fixed, bound = self._cell_table
            movable, hh = ~fixed, height / 2
            std = movable & (2.0 * hh <= self.row_height + 1e-9)
            table = [n or DEFAULT_BOUND for n in self._bound_code]
            used = np.flatnonzero(np.bincount(bound)).tolist()
            names = sorted({table[k] for k in used})
            rank = {name: k for k, name in enumerate(names)}
            remap = np.array([rank.get(n, -1) for n in table], np.int64)
            self._cell_cache = (
                _frozen(movable, width / 2, hh),
                *_frozen(width * height, np.flatnonzero(movable), std,
                         np.flatnonzero(movable & ~std)),
                (*_frozen(remap[bound]), names),
            )
        return self._cell_cache

    @property
    def nets(self) -> Sequence:
        """The nets as :class:`Net` records, built on demand."""
        return Records(lambda: self.num_nets, self._net_records)

    def _net_records(self, a: int, b: int):
        ptr, cell, dx, dy, weight = self.pin_table()
        lo, hi = ptr[a], ptr[b]
        ptr = (ptr[a:b + 1] - lo).tolist()
        cell, dx, dy = (col[lo:hi].tolist() for col in (cell, dx, dy))
        for k, (name, w) in enumerate(
            zip(self._net_names[a:b], weight[a:b].tolist())
        ):
            p, q = ptr[k], ptr[k + 1]
            yield Net(name, list(map(Pin, cell[p:q], dx[p:q], dy[p:q])), w)

    @property
    def net_names(self) -> List[str]:
        """The net names in index order (the netlist's own list: read,
        never change it)."""
        return self._net_names

    def pin_table(self) -> tuple:
        """``(net_ptr, pin_cell, pin_dx, pin_dy, net_weight)``: the
        netlist's nets as one CSR table (read-only arrays).  Net ``i``'s
        pins are rows ``net_ptr[i]:net_ptr[i + 1]`` of the pin columns;
        a pin sits on cell ``pin_cell`` at offset ``(pin_dx, pin_dy)``
        from its center, or is a pad (``pin_cell == -1``) at absolute
        ``(pin_dx, pin_dy)``.  Nets added since the last read are
        appended here, in one concatenation."""
        if self._pending_nets:
            ptr, *columns = self._pin_table
            dtypes = [col.dtype for col in self._pin_table]
            degrees, *appended = zip(*(
                map(np.asarray, chunk, dtypes) for chunk in self._pending_nets
            ))
            ends = ptr[-1] + np.cumsum(np.concatenate(degrees))
            self._pin_table = _frozen(
                np.concatenate([ptr, ends]),
                *(np.concatenate([col, *new])
                  for col, new in zip(columns, appended)),
            )
            self._pending_nets = []
        return self._pin_table

    @property
    def fixed_mask(self) -> np.ndarray:
        """The cells' fixed flags (the column, as :attr:`width`)."""
        return self._cell_table[2]

    @property
    def movable_indices(self) -> np.ndarray:
        """Ascending indices of the cells that are not fixed."""
        return self._cell_arrays()[2]

    @property
    def std_cell_mask(self) -> np.ndarray:
        """Movable cells no taller than a row: the row-legalized ones."""
        return self._cell_arrays()[3]

    @property
    def macro_indices(self) -> np.ndarray:
        """Ascending indices of the movable cells taller than a row."""
        return self._cell_arrays()[4]

    def movable_area(self) -> float:
        """Total area of the movable cells, summed in index order."""
        return sum(self.cell_sizes()[self.movable_indices].tolist())

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
        hw, hh = self.width[index] / 2, self.height[index] / 2
        x, y = self.x[index], self.y[index]
        return Rect(x - hw, y - hh, x + hw, y + hh)

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

    def pin_arrays(self) -> tuple:
        """Cached ``(ptr, pin_cell, off_x, off_y, weights)`` of the nets
        with two or more pins: :meth:`pin_table` without the shorter
        nets, one row per net whose pins start at ``ptr[row]``."""
        if self._hpwl_cache is None:
            ptr, cell, dx, dy, weight = self.pin_table()
            degrees = np.diff(ptr)
            keep = degrees >= 2
            if keep.all():
                self._hpwl_cache = (ptr[:-1], cell, dx, dy, weight)
            else:
                pins = np.repeat(keep, degrees)
                kept = degrees[keep]
                rows = np.zeros(len(kept), dtype=np.int64)
                np.cumsum(kept[:-1], out=rows[1:])
                self._hpwl_cache = _frozen(
                    rows, cell[pins], dx[pins], dy[pins], weight[keep]
                )
        return self._hpwl_cache

    def net_spans(self, rows=None) -> np.ndarray:
        """Half-perimeter ``dx + dy`` of each net with two or more pins
        (the ``pin_arrays`` layout), or of the given rows of it only —
        the same floats either way, so a span vector patched row-wise
        dots to the bits :meth:`hpwl` returns."""
        ptr, pin_cell, off_x, off_y, _weights = self.pin_arrays()
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
        return self.pin_arrays()[4], self._net_rows()

    def hpwl(self) -> float:
        """Weighted half-perimeter wirelength of the current placement."""
        weights = self.pin_arrays()[4]
        if len(weights) == 0:
            return 0.0
        return float(np.dot(weights, self.net_spans()))

    def nets_of_cell(self) -> Sequence:
        """Net indices incident to each cell: ``nets_of_cell()[c]`` is
        the list form of :meth:`cell_nets_csr`'s row ``c``."""
        return _CsrLists(*self.cell_nets_csr())

    def cell_nets_csr(self) -> tuple:
        """Cached CSR ``(start, net_ids)`` of net indices incident to
        each cell — ``net_ids[start[c]:start[c+1]]`` are cell ``c``'s
        nets, once per pin the cell has on them, in net order."""
        if self._cell_nets_csr_cache is None:
            ptr, cell = self.pin_table()[:2]
            net_of_pin = np.repeat(
                np.arange(self.num_nets, dtype=np.int64), np.diff(ptr)
            )
            order = np.argsort(cell, kind="stable")
            on_cell = cell >= 0
            start = np.zeros(self.num_cells + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(cell[on_cell], minlength=self.num_cells),
                out=start[1:],
            )
            # the pads sort first
            ids = net_of_pin[order[len(cell) - int(start[-1]):]]
            self._cell_nets_csr_cache = _frozen(start, ids)
        return self._cell_nets_csr_cache

    def nets_of_cells(self, cells) -> np.ndarray:
        """Ascending indices of the nets incident to any of ``cells``."""
        start, ids = self.cell_nets_csr()
        ci = np.asarray(cells, dtype=np.int64)
        _first, gather = _ranges(start[ci], start[ci + 1] - start[ci])
        return np.unique(ids[gather])

    def _net_rows(self) -> np.ndarray:
        """Net index -> row in the ``pin_arrays`` layout (degree < 2
        nets, which that layout drops, map to -1)."""
        if self._net_row_cache is None:
            keep = np.diff(self.pin_table()[0]) >= 2
            (self._net_row_cache,) = _frozen(
                np.where(keep, np.cumsum(keep) - 1, -1)
            )
        return self._net_row_cache

    def _row_pins(self, rows: np.ndarray) -> tuple:
        """``(ptr, idx)``: the pins of the given ``pin_arrays`` rows,
        ``idx`` gathering them out of the flat pin arrays and ``ptr``
        marking where each row starts in the gathered order."""
        ptr, pin_cell = self.pin_arrays()[:2]
        last = len(ptr) - 1
        ends = np.where(
            rows < last, ptr[np.minimum(rows + 1, last)], len(pin_cell)
        )
        return _ranges(ptr[rows], ends - ptr[rows])

    def net_subset_arrays(self, net_indices) -> tuple:
        """``pin_arrays``-layout flat pin arrays restricted to the
        given (ascending) net indices, extracted by pure array gathers
        from the cached global arrays — value-identical to rebuilding
        the subset net by net."""
        _ptr, pin_cell, off_x, off_y, weights = self.pin_arrays()
        rows = self._net_rows()[np.asarray(net_indices, dtype=np.int64)]
        rows = rows[rows >= 0]
        sub_ptr, idx = self._row_pins(rows)
        return sub_ptr, pin_cell[idx], off_x[idx], off_y[idx], weights[rows]

    def total_cell_area(self) -> float:
        """Total area of all cells, summed in index order."""
        return sum(self.cell_sizes().tolist())

    def cell_sizes(self) -> np.ndarray:
        """Cached per-cell areas, ``width * height`` (the bits of
        ``Cell.size``)."""
        return self._cell_arrays()[1]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def cell_dims(self) -> tuple:
        """Cached (movable mask, half widths, half heights)."""
        return self._cell_arrays()[0]

    def clamp_into_die(self) -> None:
        """Clamp every movable cell center so its rectangle fits the die."""
        movable, hw, hh = self.cell_dims()
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
        movable, hw, hh = self.cell_dims()
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
