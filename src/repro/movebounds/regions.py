"""Region decomposition (paper §II, Definition 2, Lemma 1, Figure 1).

A *region* is a set of non-overlapping rectangles such that for every
movebound M the region is either entirely inside A(M) or disjoint from
it ("movebound-pure").  The decomposition here follows Lemma 1: the
Hanan grid induced by the rectangles encoding all movebounds tiles the
chip into O(l^2) pure rectangles; grid cells with identical *signature*
(the set of movebounds covering them) are then merged into maximal
regions as in Figure 1.

The implicit default movebound (chip minus exclusive areas) takes part
in the signature so that unconstrained cells can be routed through the
same machinery as movebounded ones.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.geometry import Rect, RectSet
from repro.geometry.hanan import hanan_coordinates
from repro.movebounds.bounds import MoveBoundSet


@dataclass
class Region:
    """A maximal movebound-pure region.

    Attributes
    ----------
    signature:
        Names of all movebounds covering the region (including the
        default bound when unconstrained cells may use it).
    area:
        The full geometric area of the region.
    free_area:
        ``area`` minus placement blockages — the space actually
        available to cells.
    """

    index: int
    signature: FrozenSet[str]
    area: RectSet
    free_area: RectSet

    def capacity(self, density_target: float = 1.0) -> float:
        """capa(r): usable space, respecting blockages and density."""
        return self.free_area.area * density_target

    def centroid(self) -> Tuple[float, float]:
        """Center of gravity of the free area (falls back to the
        geometric area when fully blocked)."""
        if not self.free_area.is_empty and self.free_area.area > 0:
            return self.free_area.centroid()
        return self.area.centroid()

    def admits(self, bound_name: str) -> bool:
        """True when cells of the given movebound may occupy the region."""
        return bound_name in self.signature

    def __repr__(self) -> str:
        sig = ",".join(sorted(self.signature))
        return f"Region(#{self.index} [{sig}] area={self.area.area:.1f})"


class RegionDecomposition:
    """The set of maximal regions of an instance, with lookup helpers."""

    def __init__(
        self,
        die: Rect,
        bounds: MoveBoundSet,
        regions: List[Region],
    ) -> None:
        self.die = die
        self.bounds = bounds
        self.regions = regions
        self._by_signature: Dict[FrozenSet[str], Region] = {
            r.signature: r for r in regions
        }

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def by_signature(self, signature: FrozenSet[str]) -> Optional[Region]:
        return self._by_signature.get(signature)

    def covering(self, bound_name: str) -> List[Region]:
        """All regions that cells of `bound_name` may occupy."""
        return [r for r in self.regions if r.admits(bound_name)]

    def region_at(self, x: float, y: float) -> Optional[Region]:
        for r in self.regions:
            if r.area.contains_point(x, y):
                return r
        return None

    def total_capacity(self, density_target: float = 1.0) -> float:
        return sum(r.capacity(density_target) for r in self.regions)

    def check_partition(self, tol: float = 1e-6) -> None:
        """Verify the regions tile the die exactly (tested invariant)."""
        total = sum(r.area.area for r in self.regions)
        if abs(total - self.die.area) > tol * max(self.die.area, 1.0):
            raise AssertionError(
                f"regions cover {total}, die area is {self.die.area}"
            )
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1 :]:
                if not a.area.intersect(b.area).is_empty:
                    raise AssertionError(
                        f"regions {a.index} and {b.index} overlap"
                    )

    def __repr__(self) -> str:
        return f"RegionDecomposition({len(self.regions)} regions)"


def _covered_cell_mask(
    xs: List[float],
    ys: List[float],
    area: RectSet,
) -> List[List[bool]]:
    """For a Hanan grid, mark which grid cells lie inside `area`.

    Because the grid contains every rectangle edge of every movebound,
    each grid cell is entirely inside or outside each rectangle, so a
    per-rectangle index-range fill is exact.
    """
    nx, ny = len(xs) - 1, len(ys) - 1
    mask = [[False] * ny for _ in range(nx)]
    for rect in area:
        i_lo = bisect_left(xs, rect.x_lo)
        i_hi = bisect_left(xs, rect.x_hi)
        j_lo = bisect_left(ys, rect.y_lo)
        j_hi = bisect_left(ys, rect.y_hi)
        for i in range(i_lo, i_hi):
            row = mask[i]
            for j in range(j_lo, j_hi):
                row[j] = True
    return mask


def decompose_regions(
    die: Rect,
    bounds: MoveBoundSet,
    blockages: RectSet = RectSet(),
    merge_maximal: bool = True,
) -> RegionDecomposition:
    """Decompose the die into maximal movebound-pure regions.

    Parameters
    ----------
    merge_maximal:
        When True (default), Hanan cells with equal signature merge into
        one (possibly disconnected) maximal region, as in Figure 1.
        When False, every Hanan cell becomes its own region — the
        O(l^2) decomposition of Lemma 1, useful for tests.
    """
    xs, ys = hanan_coordinates(bounds.encoding_rects(), die)
    nx, ny = len(xs) - 1, len(ys) - 1

    all_bounds = bounds.all_bounds()  # explicit bounds + default, default last
    masks = {
        b.name: _covered_cell_mask(xs, ys, b.area) for b in all_bounds
    }

    groups: Dict[FrozenSet[str], List[Rect]] = {}
    for i in range(nx):
        if xs[i + 1] <= xs[i]:
            continue
        for j in range(ny):
            if ys[j + 1] <= ys[j]:
                continue
            cell = Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
            sig = frozenset(
                name for name, mask in masks.items() if mask[i][j]
            )
            if merge_maximal:
                groups.setdefault(sig, []).append(cell)
            else:
                groups[frozenset({f"#cell{i},{j}"}) | sig] = [cell]

    regions: List[Region] = []
    for sig, rects in sorted(
        groups.items(), key=lambda kv: sorted(kv[0])
    ):
        clean_sig = frozenset(n for n in sig if not n.startswith("#cell"))
        # Hanan cells are disjoint by construction
        area = RectSet._from_disjoint(rects)
        free = area.subtract(blockages)
        regions.append(
            Region(
                index=len(regions),
                signature=clean_sig,
                area=area,
                free_area=free,
            )
        )
    return RegionDecomposition(die, bounds, regions)
