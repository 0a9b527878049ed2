"""Planar geometry substrate: rectangles, rectangle sets, Hanan grids.

Everything in the placer is axis-parallel, so this package implements
exact integer/float rectangle arithmetic without any external geometry
dependency.  The central types are:

* :class:`~repro.geometry.rect.Rect` — a closed axis-parallel rectangle.
* :class:`~repro.geometry.rectset.RectSet` — a union of rectangles kept
  in a disjoint normal form, with area, intersection, subtraction and
  containment queries.
* :func:`~repro.geometry.hanan.hanan_grid` — the Hanan grid used by the
  region decomposition of the paper (Lemma 1).
"""

from repro.geometry.rect import Rect
from repro.geometry.rectset import RectSet, rect_array, rect_distances
from repro.geometry.hanan import hanan_coordinates, hanan_cells

__all__ = [
    "Rect",
    "RectSet",
    "rect_array",
    "rect_distances",
    "hanan_coordinates",
    "hanan_cells",
]
