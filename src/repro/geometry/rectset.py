"""Unions of rectangles in disjoint normal form.

A :class:`RectSet` stores a region of the plane as a list of pairwise
interior-disjoint rectangles.  Movebound areas, region areas and free
(blockage-subtracted) space are all RectSets.  The normal form makes
area, containment and intersection queries exact and cheap, at the cost
of a normalization pass on construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect, bounding_box


def _disjointify(rects: Sequence[Rect]) -> List[Rect]:
    """Rewrite a rectangle list as pairwise interior-disjoint rectangles
    covering the same point set.

    Processes rectangles one at a time, subtracting the already-placed
    union from each newcomer.  Quadratic in the worst case, which is fine
    at the region counts the placer produces (hundreds to a few
    thousand).
    """
    placed: List[Rect] = []
    for rect in rects:
        if rect.is_empty:
            continue
        pending = [rect]
        for existing in placed:
            next_pending: List[Rect] = []
            for piece in pending:
                next_pending.extend(piece.subtract(existing))
            pending = next_pending
            if not pending:
                break
        placed.extend(p for p in pending if not p.is_empty)
    return placed


def _merge_pass(rects: List[Rect]) -> List[Rect]:
    """One pass of greedy merging of abutting rectangles (equal-height
    horizontal neighbors, then equal-width vertical neighbors)."""
    changed = True
    out = list(rects)
    while changed:
        changed = False
        out.sort(key=lambda r: (r.y_lo, r.y_hi, r.x_lo))
        merged: List[Rect] = []
        for r in out:
            if merged:
                m = merged[-1]
                if (
                    m.y_lo == r.y_lo
                    and m.y_hi == r.y_hi
                    and m.x_hi == r.x_lo
                ):
                    merged[-1] = Rect(m.x_lo, m.y_lo, r.x_hi, r.y_hi)
                    changed = True
                    continue
            merged.append(r)
        out = merged
        out.sort(key=lambda r: (r.x_lo, r.x_hi, r.y_lo))
        merged = []
        for r in out:
            if merged:
                m = merged[-1]
                if (
                    m.x_lo == r.x_lo
                    and m.x_hi == r.x_hi
                    and m.y_hi == r.y_lo
                ):
                    merged[-1] = Rect(m.x_lo, m.y_lo, m.x_hi, r.y_hi)
                    changed = True
                    continue
            merged.append(r)
        out = merged
    return out


class RectSet:
    """A union of axis-parallel rectangles, normalized to be disjoint.

    Instances are immutable; all operations return new sets.
    """

    __slots__ = ("_rects", "_area", "_centroid")

    def __init__(self, rects: Iterable[Rect] = ()) -> None:
        self._normalize(_disjointify(list(rects)))

    @classmethod
    def _from_disjoint(cls, rects: Iterable[Rect]) -> "RectSet":
        """The set of rectangles already pairwise interior-disjoint.

        Equal to ``RectSet(rects)`` (the same ``.rects``) without the
        quadratic disjointify pass, which returns such input unchanged
        but for its empty rectangles.  For callers whose pieces are
        disjoint by construction: cut from a disjoint set, or cells of
        a grid.
        """
        out = cls.__new__(cls)
        out._normalize([r for r in rects if not r.is_empty])
        return out

    def _normalize(self, disjoint: List[Rect]) -> None:
        self._rects: Tuple[Rect, ...] = tuple(sorted(_merge_pass(disjoint)))
        # memoized derived quantities (instances are immutable)
        self._area: Optional[float] = None
        self._centroid: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def rects(self) -> Tuple[Rect, ...]:
        return self._rects

    @property
    def area(self) -> float:
        if self._area is None:
            self._area = sum(r.area for r in self._rects)
        return self._area

    @property
    def is_empty(self) -> bool:
        return not self._rects

    def bounding_box(self) -> Rect:
        return bounding_box(self._rects)

    def __iter__(self) -> Iterator[Rect]:
        return iter(self._rects)

    def __len__(self) -> int:
        return len(self._rects)

    def __eq__(self, other: object) -> bool:
        """Set equality as point sets (via symmetric-difference area)."""
        if not isinstance(other, RectSet):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return (
            self.subtract(other).area == 0 and other.subtract(self).area == 0
        )

    def __hash__(self) -> int:  # rely on normal form
        return hash(self._rects)

    def __repr__(self) -> str:
        return f"RectSet({list(self._rects)!r})"

    # ------------------------------------------------------------------
    # point / rect predicates
    # ------------------------------------------------------------------
    def contains_point(self, x: float, y: float) -> bool:
        return any(r.contains_point(x, y) for r in self._rects)

    def contains_rect(self, rect: Rect) -> bool:
        """True when `rect` lies entirely inside the union.

        `rect` may straddle several member rectangles, so this is an
        area argument: the part of `rect` covered by the union must
        equal the whole of `rect`.
        """
        if rect.is_empty:
            return self.contains_point(*rect.center)
        covered = sum(r.intersection_area(rect) for r in self._rects)
        return covered >= rect.area - 1e-9 * max(rect.area, 1.0)

    def overlaps_rect(self, rect: Rect) -> bool:
        return any(r.overlaps(rect) for r in self._rects)

    def intersection_area(self, rect: Rect) -> float:
        return sum(r.intersection_area(rect) for r in self._rects)

    # ------------------------------------------------------------------
    # boolean operations
    # ------------------------------------------------------------------
    # pieces cut from disjoint rectangles are disjoint, so only a union
    # needs the full normalization
    def union(self, other: "RectSet") -> "RectSet":
        return RectSet(self._rects + other._rects)

    def intersect_rect(self, rect: Rect) -> "RectSet":
        pieces = []
        for r in self._rects:
            inter = r.intersection(rect)
            if inter is not None:
                pieces.append(inter)
        return RectSet._from_disjoint(pieces)

    def intersect(self, other: "RectSet") -> "RectSet":
        pieces: List[Rect] = []
        for r in self._rects:
            for s in other._rects:
                inter = r.intersection(s)
                if inter is not None:
                    pieces.append(inter)
        return RectSet._from_disjoint(pieces)

    def subtract_rect(self, rect: Rect) -> "RectSet":
        pieces: List[Rect] = []
        for r in self._rects:
            pieces.extend(r.subtract(rect))
        return RectSet._from_disjoint(pieces)

    def subtract(self, other: "RectSet") -> "RectSet":
        out = self
        for rect in other._rects:
            out = out.subtract_rect(rect)
        return out

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def centroid(self) -> Tuple[float, float]:
        """Area-weighted centroid of the union."""
        if self.is_empty:
            raise ValueError("centroid of an empty RectSet")
        if self._centroid is not None:
            return self._centroid
        a = self.area
        if a == 0:
            self._centroid = self._rects[0].center
            return self._centroid
        cx = sum(r.area * r.center[0] for r in self._rects) / a
        cy = sum(r.area * r.center[1] for r in self._rects) / a
        self._centroid = (cx, cy)
        return self._centroid

    def clamp_point(self, x: float, y: float) -> Tuple[float, float]:
        """Closest (L1) point of the union to ``(x, y)``."""
        if self.is_empty:
            raise ValueError("clamp_point on an empty RectSet")
        best: Optional[Tuple[float, Tuple[float, float]]] = None
        for r in self._rects:
            px, py = r.clamp_point(x, y)
            d = abs(px - x) + abs(py - y)
            if best is None or d < best[0]:
                best = (d, (px, py))
                if d == 0:
                    break
        assert best is not None
        return best[1]

    def distance_to_point(self, x: float, y: float) -> float:
        px, py = self.clamp_point(x, y)
        return abs(px - x) + abs(py - y)

    def distances_to_points(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """L1 distance of each ``(xs[i], ys[i])`` to the union.

        Bit-identical to calling :meth:`distance_to_point` per point
        (same clamp arithmetic, and the minimum over member rectangles
        does not depend on evaluation order), but one numpy pass per
        rectangle instead of a Python loop per point.
        """
        if self.is_empty:
            raise ValueError("distances_to_points on an empty RectSet")
        return rect_distances(
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            rect_array(self._rects),
        )


def rect_array(rects: Iterable[Rect]) -> np.ndarray:
    """Pack rectangles into an (R, 4) float64 array of
    ``[x_lo, y_lo, x_hi, y_hi]`` rows, in iteration order."""
    return np.array(
        [(r.x_lo, r.y_lo, r.x_hi, r.y_hi) for r in rects], dtype=np.float64
    ).reshape(-1, 4)


def rect_distances(
    xs: np.ndarray, ys: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """L1 distance of each point ``(xs[i], ys[i])`` to the union of the
    rows of a :func:`rect_array` (``inf`` when it has none)."""
    best = np.full(xs.shape, np.inf)
    for x_lo, y_lo, x_hi, y_hi in rects:
        d = np.abs(np.clip(xs, x_lo, x_hi) - xs) + np.abs(
            np.clip(ys, y_lo, y_hi) - ys
        )
        np.minimum(best, d, out=best)
    return best
