"""MoveBound and MoveBoundSet (paper §II, Definition 1).

The set container also materializes the *default movebound*: cells
without an explicit movebound behave as if bound to the whole chip area
minus every exclusive area (exclusive movebounds are blockages to all
other cells).  Materializing this makes every downstream algorithm
uniform — every cell has exactly one movebound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

import numpy as np

from repro.geometry import Rect, RectSet
from repro.netlist import DEFAULT_BOUND, Netlist

INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"


@dataclass
class MoveBound:
    """A movebound ``M = (A(M), xi(M))``.

    ``area`` may be non-convex and may overlap other movebounds' areas
    (for inclusive bounds).  ``kind`` is ``"inclusive"`` or
    ``"exclusive"``.
    """

    name: str
    area: RectSet
    kind: str = INCLUSIVE

    def __post_init__(self) -> None:
        if self.kind not in (INCLUSIVE, EXCLUSIVE):
            raise ValueError(f"unknown movebound kind {self.kind!r}")
        if self.area.is_empty and self.name != DEFAULT_BOUND:
            # lazy import: repro.resilience pulls in modules that
            # import repro.movebounds back
            from repro.resilience.errors import InfeasibleInputError

            raise InfeasibleInputError(
                f"movebound {self.name!r} has empty area",
                stage="movebounds",
            )

    @property
    def is_exclusive(self) -> bool:
        return self.kind == EXCLUSIVE

    def covers(self, rect: Rect) -> bool:
        """True when `rect` lies entirely inside A(M) (paper: M covers r)."""
        return self.area.contains_rect(rect)

    def contains_point(self, x: float, y: float) -> bool:
        return self.area.contains_point(x, y)

    def __repr__(self) -> str:
        return f"MoveBound({self.name!r}, {self.kind}, rects={len(self.area)})"


class MoveBoundSet:
    """All movebounds of an instance, plus the implicit default bound.

    Construction normalizes the input per the paper's assumption: no
    exclusive movebound may overlap any other movebound.  Overlaps of an
    exclusive bound with an inclusive one are repaired by subtracting
    the exclusive area from the inclusive area ("detected and modified
    at the input"); overlapping exclusive bounds are an input error.
    """

    def __init__(self, die: Rect, bounds: Iterable[MoveBound] = ()) -> None:
        self.die = die
        self._bounds: Dict[str, MoveBound] = {}
        for b in bounds:
            self.add(b)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, bound: MoveBound) -> None:
        if bound.name in self._bounds or bound.name == DEFAULT_BOUND:
            raise ValueError(f"duplicate movebound name {bound.name!r}")
        for rect in bound.area:
            if not self.die.contains_rect(rect):
                from repro.resilience.errors import InfeasibleInputError

                raise InfeasibleInputError(
                    f"movebound {bound.name!r} rectangle {rect} leaves the die",
                    stage="movebounds",
                )
        self._bounds[bound.name] = bound

    def add_rects(
        self, name: str, rects: Iterable[Rect], kind: str = INCLUSIVE
    ) -> MoveBound:
        bound = MoveBound(name, RectSet(rects), kind)
        self.add(bound)
        return bound

    def normalize(self) -> None:
        """Enforce the paper's no-exclusive-overlap assumption.

        Exclusive ∩ exclusive overlap raises; exclusive ∩ inclusive
        overlap is repaired by carving the exclusive area out of the
        inclusive one.  An inclusive bound whose area disappears
        entirely raises, since its cells would have nowhere to go.
        """
        exclusives = [b for b in self._bounds.values() if b.is_exclusive]
        for i, a in enumerate(exclusives):
            for b in exclusives[i + 1 :]:
                if not a.area.intersect(b.area).is_empty:
                    raise ValueError(
                        f"exclusive movebounds {a.name!r} and {b.name!r} overlap"
                    )
        for excl in exclusives:
            for bound in self._bounds.values():
                if bound.is_exclusive or bound is excl:
                    continue
                if not bound.area.intersect(excl.area).is_empty:
                    reduced = bound.area.subtract(excl.area)
                    if reduced.is_empty:
                        raise ValueError(
                            f"inclusive movebound {bound.name!r} is entirely "
                            f"covered by exclusive {excl.name!r}"
                        )
                    bound.area = reduced

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._bounds)

    def __iter__(self) -> Iterator[MoveBound]:
        return iter(self._bounds.values())

    def __contains__(self, name: str) -> bool:
        return name in self._bounds or name == DEFAULT_BOUND

    def names(self) -> List[str]:
        return list(self._bounds)

    def get(self, name: str) -> MoveBound:
        if name == DEFAULT_BOUND:
            return self.default_bound()
        return self._bounds[name]

    def exclusive_area(self) -> RectSet:
        """Union of all exclusive areas (blockage for default cells)."""
        area = RectSet()
        for b in self._bounds.values():
            if b.is_exclusive:
                area = area.union(b.area)
        return area

    def default_bound(self) -> MoveBound:
        """The implicit movebound of unconstrained cells: the die minus
        all exclusive areas."""
        area = RectSet([self.die]).subtract(self.exclusive_area())
        return MoveBound(DEFAULT_BOUND, area, INCLUSIVE)

    def all_bounds(self) -> List[MoveBound]:
        """Explicit movebounds plus the default bound, default last."""
        return list(self._bounds.values()) + [self.default_bound()]

    def bound_of(self, netlist: Netlist, cell_index: int) -> MoveBound:
        """The movebound governing a cell (default if unconstrained)."""
        codes, names = netlist.movebound_groups()
        name = names[codes[cell_index]]
        if name not in self._bounds and name != DEFAULT_BOUND:
            raise KeyError(
                f"cell {netlist.cell_names[cell_index]!r} references "
                f"unknown movebound {name!r}"
            )
        return self.get(name)

    def encoding_rects(self) -> List[Rect]:
        """All rectangles encoding the movebounds (the ``l`` of Lemma 1)."""
        rects: List[Rect] = []
        for b in self._bounds.values():
            rects.extend(b.area)
        return rects

    def violations(self, netlist: Netlist, tol: float = 1e-9) -> List[int]:
        """Indices of cells violating their movebound in the current
        placement (containment for own bound, exclusion for foreign
        exclusive bounds).

        Vectorized per movebound group: coverage accumulates one bound
        rectangle at a time across all group cells, the same float-sum
        order ``RectSet.contains_rect`` uses per cell.
        """
        movable, hw, hh = netlist.cell_dims()
        if not movable.any():
            return []
        codes, names = netlist.movebound_groups()
        mv = np.flatnonzero(movable)
        bad = np.zeros(netlist.num_cells, dtype=bool)
        for code in np.unique(codes[mv]).tolist():
            ci, name = mv[codes[mv] == code], names[code]
            bound = self.get(name)
            xl = netlist.x[ci] - hw[ci]
            xh = netlist.x[ci] + hw[ci]
            yl = netlist.y[ci] - hh[ci]
            yh = netlist.y[ci] + hh[ci]
            area = (xh - xl) * (yh - yl)
            cov = np.zeros(len(ci))
            for r in bound.area:
                w = np.minimum(xh, r.x_hi) - np.maximum(xl, r.x_lo)
                d = np.minimum(yh, r.y_hi) - np.maximum(yl, r.y_lo)
                cov += np.where((w > 0) & (d > 0), w * d, 0.0)
            grp_bad = cov < area - 1e-9 * np.maximum(area, 1.0)
            # exclusion from foreign exclusive bounds
            thresh = tol * np.maximum(area, 1.0)
            for other in self._bounds.values():
                if other.name == name or not other.is_exclusive:
                    continue
                for r in other.area:
                    w = np.minimum(xh, r.x_hi) - np.maximum(xl, r.x_lo)
                    d = np.minimum(yh, r.y_hi) - np.maximum(yl, r.y_lo)
                    grp_bad |= (w > 0) & (d > 0) & (w * d > thresh)
            bad[ci] = grp_bad
        return np.nonzero(bad)[0].tolist()

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{b.name}:{b.kind[0]}" for b in self._bounds.values()
        )
        return f"MoveBoundSet({len(self)} bounds: {kinds})"
