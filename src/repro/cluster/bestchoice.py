"""BestChoice clustering (Nam/Reda/Alpert/Villarrubia/Kahng, TCAD 2006).

Score-based pairwise clustering: each movable cell keeps its best
neighbor by the BestChoice score

    score(u, v) = sum over shared nets  w_net / degree(net)
                  ----------------------------------------
                        size(u) + size(v)

(connectivity favoring small nets, normalized by the merged size).
Pairs are merged best-first off a priority queue with *lazy* updates:
a popped entry is re-scored and re-queued when stale — the technique
the BestChoice paper introduces.  Clustering stops at the requested
cluster ratio ``|C| / |clusters|``.

Constraints honored:

* fixed cells never cluster;
* cells of different movebounds never cluster (their constraint sets
  differ, so a merged cell would be over-constrained);
* cluster growth is capped (no snowballing into one giant cluster).

The resulting :class:`Clustering` builds a clustered netlist whose
placement can be transferred back to the flat netlist
(:meth:`Clustering.uncluster`), placing members at their cluster
center — the standard flow before a final flat refinement.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist import DEFAULT_BOUND, Net, Netlist, Pin


@dataclass
class Clustering:
    """Mapping between a flat netlist and its clustered counterpart."""

    flat: Netlist
    clustered: Netlist
    #: flat cell index -> clustered cell index
    cluster_of: np.ndarray
    #: clustered cell index -> flat member indices
    members: List[List[int]]

    @property
    def ratio(self) -> float:
        movable = len(self.flat.movable_indices)
        clusters = len(self.clustered.movable_indices)
        return movable / max(clusters, 1)

    def uncluster(self) -> None:
        """Copy cluster positions back to the flat netlist (members land
        on their cluster's center; a flat placement pass refines)."""
        movable = ~self.flat.fixed_mask
        self.flat.x[movable] = self.clustered.x[self.cluster_of[movable]]
        self.flat.y[movable] = self.clustered.y[self.cluster_of[movable]]
        self.flat.clamp_into_die()


def _pair_scores_for(
    fixed: List[bool],
    bound: List[int],
    nets: List[Net],
    cell: int,
    nets_of_cell: Dict[int, List[int]],
    cluster_sizes: np.ndarray,
    find,
) -> Optional[Tuple[float, int]]:
    """Best (score, neighbor) for `cell`, or None if isolated; a
    neighbor is movable and has the cell's movebound code."""
    weights: Dict[int, float] = {}
    root_u = find(cell)
    for nidx in nets_of_cell.get(cell, ()):
        net = nets[nidx]
        if net.degree < 2 or net.degree > 10:
            continue
        contribution = net.weight / net.degree
        for pin in net.pins:
            if pin.cell_index < 0:
                continue
            root_v = find(pin.cell_index)
            if root_v == root_u:
                continue
            if fixed[root_v] or bound[root_v] != bound[root_u]:
                continue
            weights[root_v] = weights.get(root_v, 0.0) + contribution
    best: Optional[Tuple[float, int]] = None
    for v, w in weights.items():
        score = w / (cluster_sizes[root_u] + cluster_sizes[v])
        if best is None or score > best[0]:
            best = (score, v)
    return best


def bestchoice_cluster(
    netlist: Netlist,
    cluster_ratio: float = 5.0,
    max_cluster_size: Optional[float] = None,
) -> Clustering:
    """Cluster the netlist down to ``|movable| / cluster_ratio`` clusters.

    Returns a :class:`Clustering`; the clustered netlist carries merged
    cells (area-preserving: width = total size / row height), inherited
    movebounds, and the induced nets with intra-cluster pins collapsed.
    """
    n = netlist.num_cells
    parent = np.arange(n)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    cluster_sizes = netlist.cell_sizes().copy()
    movable = netlist.movable_indices.tolist()
    target_clusters = max(int(len(movable) / cluster_ratio), 1)
    if max_cluster_size is None:
        avg = float(np.mean(cluster_sizes[movable])) if movable else 1.0
        max_cluster_size = avg * cluster_ratio * 4

    # the records are built from the pin table once, not per lookup
    nets = list(netlist.nets)
    fixed = netlist.fixed_mask.tolist()
    codes, bound_names = netlist.movebound_groups()
    bound = codes.tolist()
    nets_of_cell: Dict[int, List[int]] = {}
    for nidx, net in enumerate(nets):
        for pin in net.pins:
            if pin.cell_index >= 0:
                nets_of_cell.setdefault(pin.cell_index, []).append(nidx)

    heap: List[Tuple[float, int, int]] = []
    for i in movable:
        best = _pair_scores_for(
            fixed, bound, nets, i, nets_of_cell, cluster_sizes, find
        )
        if best is not None:
            heapq.heappush(heap, (-best[0], i, best[1]))

    num_clusters = len(movable)
    # lazy updates can requeue; bound the total work defensively
    budget = 60 * max(len(movable), 1)
    while num_clusters > target_clusters and heap and budget > 0:
        budget -= 1
        neg_score, u, v = heapq.heappop(heap)
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        # lazy re-validation: the stored pairing may be stale
        best = _pair_scores_for(
            fixed, bound, nets, ru, nets_of_cell, cluster_sizes, find
        )
        if best is None:
            continue
        if best[1] != rv or abs(-neg_score - best[0]) > 1e-12:
            heapq.heappush(heap, (-best[0], ru, best[1]))
            continue
        if cluster_sizes[ru] + cluster_sizes[rv] > max_cluster_size:
            continue
        # merge rv into ru
        parent[rv] = ru
        cluster_sizes[ru] += cluster_sizes[rv]
        nets_of_cell.setdefault(ru, []).extend(
            nets_of_cell.get(rv, ())
        )
        num_clusters -= 1
        nxt = _pair_scores_for(
            fixed, bound, nets, ru, nets_of_cell, cluster_sizes, find
        )
        if nxt is not None:
            heapq.heappush(heap, (-nxt[0], ru, nxt[1]))

    # ------------------------------------------------------------------
    # build the clustered netlist
    # ------------------------------------------------------------------
    clustered = Netlist(
        netlist.die,
        row_height=netlist.row_height,
        site_width=netlist.site_width,
        name=f"{netlist.name}.clustered",
    )
    clustered.blockages = netlist.blockages
    members_by_root: Dict[int, List[int]] = {}
    for i in range(n):
        members_by_root.setdefault(find(i), []).append(i)

    roots = sorted(members_by_root)
    members = [members_by_root[root] for root in roots]
    widths, heights = netlist.width.tolist(), netlist.height.tolist()
    sizes = netlist.cell_sizes().tolist()
    row_h, site = netlist.row_height, netlist.site_width
    names_or_none = [None if b == DEFAULT_BOUND else b for b in bound_names]

    def center(coord: np.ndarray, root: int, group: List[int]) -> float:
        """The group's size-weighted mean coordinate."""
        if len(group) == 1:
            return float(coord[root])
        return float(np.average(coord[group], weights=cluster_sizes[group]))

    # a fixed cluster keeps its cell's shape; a movable one is a row
    # high and preserves the members' area
    clustered.add_cells(
        [f"k{k}" for k in range(len(roots))],
        [widths[r] if fixed[r] else max(sum(sizes[i] for i in g) / row_h, site)
         for r, g in zip(roots, members)],
        [heights[r] if fixed[r] else row_h for r in roots],
        x=[center(netlist.x, r, g) for r, g in zip(roots, members)],
        y=[center(netlist.y, r, g) for r, g in zip(roots, members)],
        fixed=[fixed[r] for r in roots],
        movebound=[names_or_none[bound[r]] for r in roots],
    )

    cluster_of = np.empty(n, dtype=np.int64)
    for k, group in enumerate(members):
        cluster_of[group] = k

    # induced nets: collapse intra-cluster pins, drop degenerate nets;
    # they go into the clustered pin table in one call
    names, member_lists, weights, dx, dy = [], [], [], [], []
    for net in nets:
        seen: Set[int] = set()
        pins: List[Pin] = []
        for pin in net.pins:
            if pin.is_fixed_terminal:
                pins.append(pin)
                continue
            k = int(cluster_of[pin.cell_index])
            if k in seen:
                continue
            seen.add(k)
            pins.append(Pin(k))
        if len(pins) >= 2:
            names.append(net.name)
            member_lists.append([p.cell_index for p in pins])
            weights.append(net.weight)
            dx.extend(p.offset_x for p in pins)
            dy.extend(p.offset_y for p in pins)
    clustered.add_nets_bulk(names, member_lists, weights, (dx, dy))

    return Clustering(netlist, clustered, cluster_of, members)
