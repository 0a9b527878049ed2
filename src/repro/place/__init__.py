"""Global placers.

* :mod:`repro.place.bonnplace` — **BonnPlaceFBP**, the paper's tool:
  multilevel quadratic placement with flow-based partitioning and
  region-aware legalization.  Handles inclusive/exclusive, non-convex,
  overlapping movebounds exactly.
* :mod:`repro.place.rql` — an RQL-style force-directed baseline
  (relaxed quadratic spreading via cell shifting + anchors) with the
  naive movebound handling the paper measures against (Tables II/IV/V).
* :mod:`repro.place.kraftwerk` — a Kraftwerk2-style baseline (B2B net
  model + Poisson density forces) for the ISPD-2006-style comparison
  (Table VII).
* :mod:`repro.place.recursive_placer` — the pre-FBP BonnPlace scheme
  (recursive 2x2 partitioning, optional reflow) for ablations.
"""

from repro.place.base import (
    InfeasiblePlacementError,
    PlacementError,
    PlacerResult,
)
from repro.place.bonnplace import BonnPlaceFBP, BonnPlaceOptions
from repro.place.rql import RQLOptions, RQLPlacer
from repro.place.kraftwerk import KraftwerkOptions, KraftwerkPlacer
from repro.place.recursive_placer import RecursiveOptions, RecursivePlacer

#: placer name -> class: the choices of ``place --placer`` and of the
#: service's ``placer`` job option
PLACERS = {
    "fbp": BonnPlaceFBP,
    "rql": RQLPlacer,
    "kraftwerk": KraftwerkPlacer,
    "recursive": RecursivePlacer,
}

__all__ = [
    "PLACERS",
    "PlacerResult",
    "PlacementError",
    "InfeasiblePlacementError",
    "BonnPlaceFBP",
    "BonnPlaceOptions",
    "RQLPlacer",
    "RQLOptions",
    "KraftwerkPlacer",
    "KraftwerkOptions",
    "RecursivePlacer",
    "RecursiveOptions",
]
