"""MaxFlow feasibility checks for placement with movebounds.

Theorem 1 (cell level): max flow of the bipartite network
``s -> cells -> admissible regions -> t`` equals the total cell size
iff condition (1) holds for every movebound subset.

Theorem 2 (clustered): clustering all cells of one movebound into a
single source node preserves the max-flow value because cell->region
admissibility depends only on the movebound; the clustered network has
O(|M| |R|) arcs and solves in O(|M|^2 |R|) time.

On an infeasible instance, the source side of the min cut yields a
*witness*: a subset M' of movebounds violating condition (1), which the
report carries for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.geometry import RectSet
from repro.movebounds import (
    MoveBoundSet,
    RegionDecomposition,
    decompose_regions,
)
from repro.netlist import Netlist
from repro.flows import Dinic
from repro.obs import incr, span
from repro.resilience.errors import InfeasibleInputError
from repro.resilience.faultinject import inject


@dataclass
class FeasibilityReport:
    """Outcome of a movebound feasibility check."""

    feasible: bool
    total_cell_area: float
    routed_area: float
    #: On infeasibility: movebound names M' whose cells exceed
    #: capa(union of their areas) — a witness of condition (1) failing.
    witness: Optional[FrozenSet[str]] = None

    @property
    def deficit(self) -> float:
        """Cell area that cannot be accommodated (0 when feasible)."""
        return max(0.0, self.total_cell_area - self.routed_area)


def _cluster_sizes(
    netlist: Netlist, bounds: MoveBoundSet
) -> Dict[str, float]:
    """Total movable-cell area per movebound name (default included),
    in the order the names first occur; each total sums its cells in
    index order."""
    codes, names = netlist.movebound_groups()
    mv = netlist.movable_indices
    weights = netlist.cell_sizes()[mv]
    sizes = np.bincount(codes[mv], weights, len(names)).tolist()
    present, first = np.unique(codes[mv], return_index=True)
    return {names[k]: sizes[k] for k in present[np.argsort(first)].tolist()}


def check_feasibility(
    netlist: Netlist,
    bounds: MoveBoundSet,
    decomposition: Optional[RegionDecomposition] = None,
    density_target: float = 1.0,
) -> FeasibilityReport:
    """Theorem 2: the clustered polynomial-time feasibility check.

    Decides whether a fractional placement respecting all movebounds
    exists, given region capacities at the requested density target.
    """
    inject("stage.feasibility")
    if decomposition is None:
        decomposition = decompose_regions(
            netlist.die, bounds, netlist.blockages
        )
    sizes = _cluster_sizes(netlist, bounds)
    total = sum(sizes.values())

    dinic = Dinic()
    for name, size in sizes.items():
        dinic.add_edge("s", ("M", name), size)
    for region in decomposition:
        cap = region.capacity(density_target)
        if cap <= 0:
            continue
        dinic.add_edge(("r", region.index), "t", cap)
        for name in sizes:
            if region.admits(name):
                dinic.add_edge(("M", name), ("r", region.index), float("inf"))
    with span("feasibility.maxflow"):
        routed = dinic.max_flow("s", "t")
    incr("feasibility.checks")
    feasible = routed >= total - 1e-6 * max(total, 1.0)
    if not feasible:
        incr("feasibility.infeasible")

    witness: Optional[FrozenSet[str]] = None
    if not feasible:
        reachable = dinic.min_cut_reachable("s")
        witness = frozenset(
            key[1]
            for key in reachable
            if isinstance(key, tuple) and key[0] == "M"
        )
    return FeasibilityReport(feasible, total, routed, witness)


def check_feasibility_cell_level(
    netlist: Netlist,
    bounds: MoveBoundSet,
    decomposition: Optional[RegionDecomposition] = None,
    density_target: float = 1.0,
) -> FeasibilityReport:
    """Theorem 1: the cell-level MaxFlow check (one source arc per
    cell).  Equivalent to :func:`check_feasibility` but larger; kept as
    the reference implementation and test oracle."""
    if decomposition is None:
        decomposition = decompose_regions(
            netlist.die, bounds, netlist.blockages
        )
    total = 0.0
    dinic = Dinic()
    admissible: Dict[str, List[int]] = {}
    for region in decomposition:
        cap = region.capacity(density_target)
        if cap <= 0:
            continue
        dinic.add_edge(("r", region.index), "t", cap)
        for name in list(region.signature):
            admissible.setdefault(name, []).append(region.index)
    codes, names = netlist.movebound_groups()
    codes, sizes = codes.tolist(), netlist.cell_sizes().tolist()
    for i in netlist.movable_indices.tolist():
        dinic.add_edge("s", ("c", i), sizes[i])
        total += sizes[i]
        for ridx in admissible.get(names[codes[i]], ()):
            dinic.add_edge(("c", i), ("r", ridx), float("inf"))
    routed = dinic.max_flow("s", "t")
    feasible = routed >= total - 1e-6 * max(total, 1.0)
    return FeasibilityReport(feasible, total, routed)


def condition_one_all_subsets(
    netlist: Netlist,
    bounds: MoveBoundSet,
    density_target: float = 1.0,
    max_bounds: int = 12,
) -> Optional[FrozenSet[str]]:
    """Brute-force condition (1): evaluate every movebound subset.

    Returns a violating subset (the first found, smallest first) or
    None when condition (1) holds everywhere.  Exponential — guarded by
    ``max_bounds`` and intended for tests validating Theorems 1/2.

    The default movebound participates with area = die minus exclusive
    areas, so unconstrained cells are covered by the same condition.
    """
    all_bounds = bounds.all_bounds()
    if len(all_bounds) > max_bounds:
        raise InfeasibleInputError(
            f"{len(all_bounds)} movebounds: subset enumeration too large",
            stage="feasibility.subsets",
        )
    sizes = _cluster_sizes(netlist, bounds)

    for k in range(1, len(all_bounds) + 1):
        for combo in combinations(all_bounds, k):
            demand = sum(sizes.get(b.name, 0.0) for b in combo)
            if demand == 0:
                continue
            union = RectSet()
            for b in combo:
                union = union.union(b.area)
            capacity = union.subtract(netlist.blockages).area * density_target
            if demand > capacity + 1e-6 * max(capacity, 1.0):
                return frozenset(b.name for b in combo)
    return None
