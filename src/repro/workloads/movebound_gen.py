"""Movebound synthesis with the paper's structural traits.

Table III characterizes the industrial instances by: number of
movebounds, share of cells with movebounds, maximum movebound density,
and remarks — (O) overlapping, (F) movebounds obtained from flattening
hierarchy, plus nesting.  The generator reproduces each trait:

* **(F)** bounds take a logically contiguous cluster of cells (nearest
  neighbors of a random center in logical space) — like a flattened
  hierarchical unit;
* **(O)** bounds are placed to partially overlap a partner bound;
* **nesting** places a bound's area strictly inside its parent and
  sizes the parent to also accommodate the child's cells;
* non-convex areas are L-shaped (two rectangles);
* the assigned-cell area over bound capacity hits the requested
  density.

After placement the global Theorem-2 feasibility check runs; areas are
grown and repositioned until the instance is feasible, so every suite
instance is solvable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.feasibility import check_feasibility
from repro.feasibility.check import _cluster_sizes
from repro.geometry import Rect, RectSet
from repro.movebounds import (
    EXCLUSIVE,
    INCLUSIVE,
    MoveBound,
    MoveBoundSet,
    decompose_regions,
)
from repro.netlist import Netlist


def _row_feasible(
    netlist: Netlist, bounds: MoveBoundSet, margin: float = 0.95
) -> bool:
    """Theorem-2 feasibility against *row* capacities.

    Geometric area overestimates what rows can hold (partial rows and
    site fragments are unusable), and legalization works at row
    granularity — so generated instances must pass this stricter check,
    not just the geometric one.
    """
    from repro.flows import Dinic
    from repro.legalize.rows import (
        build_segments,
        max_std_cell_width,
        usable_row_capacity,
    )

    decomposition = decompose_regions(
        netlist.die, bounds, netlist.blockages
    )
    sizes = _cluster_sizes(netlist, bounds)
    total = sum(sizes.values())
    dinic = Dinic()
    for name, size in sizes.items():
        dinic.add_edge("s", ("M", name), size)
    w_max = max_std_cell_width(netlist)
    for region in decomposition:
        segments = build_segments(netlist, region.free_area)
        cap = margin * usable_row_capacity(segments, w_max)
        if cap <= 0:
            continue
        dinic.add_edge(("r", region.index), "t", cap)
        for name in sizes:
            if region.admits(name):
                dinic.add_edge(
                    ("M", name), ("r", region.index), float("inf")
                )
    routed = dinic.max_flow("s", "t")
    return routed >= total - 1e-6 * max(total, 1.0)


@dataclass
class MoveBoundSpec:
    """One movebound to synthesize."""

    name: str
    cell_fraction: float
    density: float = 0.65  # assigned cell area / bound capacity
    kind: str = INCLUSIVE
    shape: str = "rect"  # "rect" or "L"
    nested_in: Optional[str] = None
    overlaps: Optional[str] = None
    from_flattening: bool = True


def _snap_rects(
    rects: List[Rect], die: Rect, row_height: float, site_width: float
) -> List[Rect]:
    """Snap rectangles outward to the row/site grid (real movebounds
    are row-aligned; unaligned areas lose capacity to partial rows)."""
    out = []
    for r in rects:
        x_lo = die.x_lo + math.floor((r.x_lo - die.x_lo) / site_width) * site_width
        x_hi = die.x_lo + math.ceil((r.x_hi - die.x_lo) / site_width) * site_width
        y_lo = die.y_lo + math.floor((r.y_lo - die.y_lo) / row_height) * row_height
        y_hi = die.y_lo + math.ceil((r.y_hi - die.y_lo) / row_height) * row_height
        out.append(
            Rect(
                max(x_lo, die.x_lo),
                max(y_lo, die.y_lo),
                min(x_hi, die.x_hi),
                min(y_hi, die.y_hi),
            )
        )
    return out


def _make_area(
    rng: np.random.Generator,
    die: Rect,
    center: Tuple[float, float],
    area_needed: float,
    shape: str,
    min_dim: float = 4.0,
) -> List[Rect]:
    """Rectangles of the requested total area near `center`."""
    area_needed = max(area_needed, min_dim * min_dim)
    aspect = float(rng.uniform(0.6, 1.6))
    if shape == "L":
        # an L = tall rect + wide rect, each ~60% of the area
        a1 = area_needed * 0.6
        a2 = area_needed * 0.55
        w1 = math.sqrt(a1 / (aspect * 2.0))
        h1 = a1 / w1
        w2 = a2 / (h1 * 0.45)
        h2 = h1 * 0.45
        rects = [
            Rect(0.0, 0.0, w1, h1),
            Rect(w1, 0.0, min(w1 + w2, w1 + die.width), h2),
        ]
    else:
        w = math.sqrt(area_needed * aspect)
        h = area_needed / w
        rects = [Rect(0.0, 0.0, w, h)]
    # translate so the bbox centers on `center`, clamped into the die
    xs = [r.x_lo for r in rects] + [r.x_hi for r in rects]
    ys = [r.y_lo for r in rects] + [r.y_hi for r in rects]
    bw, bh = max(xs) - min(xs), max(ys) - min(ys)
    if bw > die.width * 0.95 or bh > die.height * 0.95:
        scale = min(die.width * 0.95 / bw, die.height * 0.95 / bh)
        rects = [
            Rect(r.x_lo * scale, r.y_lo * scale, r.x_hi * scale, r.y_hi * scale)
            for r in rects
        ]
        bw *= scale
        bh *= scale
    dx = min(max(center[0] - bw / 2, die.x_lo), die.x_hi - bw)
    dy = min(max(center[1] - bh / 2, die.y_lo), die.y_hi - bh)
    return [r.translated(dx, dy) for r in rects]


def _shelf_layout(
    netlist: Netlist,
    order: Sequence[MoveBoundSpec],
    demand: Dict[str, float],
    density_target: float,
    grow: float,
    rng: np.random.Generator,
) -> Optional[MoveBoundSet]:
    """Deterministic packed layout for high-coverage movebound sets.

    Rejection sampling cannot place disjoint areas covering most of the
    die (Erhard/Trips/Erik-style instances where >70 % of cells carry
    movebounds), so the top-level bounds are laid out by a slicing
    floorplan (recursive splits proportional to demand); nested bounds
    go flush into their parents' corners and overlapping bounds extend
    over their partners' edges afterwards.
    """
    die = netlist.die
    top = [s for s in order if not s.nested_in and not s.overlaps]
    needed = {
        s.name: demand[s.name] / (s.density * density_target) * grow
        for s in top
    }
    if sum(needed.values()) > 0.82 * die.area:
        return None

    # slicing floorplan: recursively split the die proportionally to
    # the demands, one leaf rectangle per top-level bound
    areas: Dict[str, List[Rect]] = {}

    def split(rect: Rect, group: List[MoveBoundSpec]) -> bool:
        if len(group) == 1:
            s = group[0]
            want = needed[s.name]
            if want > 0.92 * rect.area:
                return False
            scale = math.sqrt(want / rect.area)
            w, h = rect.width * scale, rect.height * scale
            x0 = rect.x_lo + (rect.width - w) / 2
            y0 = rect.y_lo + (rect.height - h) / 2
            areas[s.name] = _snap_rects(
                [Rect(x0, y0, x0 + w, y0 + h)],
                die,
                netlist.row_height,
                netlist.site_width,
            )
            return True
        # balanced bipartition of demands (greedy, largest first)
        left: List[MoveBoundSpec] = []
        right: List[MoveBoundSpec] = []
        d_left = d_right = 0.0
        for s in sorted(group, key=lambda s: -needed[s.name]):
            if d_left <= d_right:
                left.append(s)
                d_left += needed[s.name]
            else:
                right.append(s)
                d_right += needed[s.name]
        frac = d_left / max(d_left + d_right, 1e-12)
        frac = min(max(frac, 0.15), 0.85)
        if rect.width >= rect.height:
            cut = rect.x_lo + rect.width * frac
            r1 = Rect(rect.x_lo, rect.y_lo, cut, rect.y_hi)
            r2 = Rect(cut, rect.y_lo, rect.x_hi, rect.y_hi)
        else:
            cut = rect.y_lo + rect.height * frac
            r1 = Rect(rect.x_lo, rect.y_lo, rect.x_hi, cut)
            r2 = Rect(rect.x_lo, cut, rect.x_hi, rect.y_hi)
        return split(r1, left) and split(r2, right)

    if not split(die, list(top)):
        return None
    for s in order:
        if s.nested_in:
            # flush in the parent's corner: the remainder is a clean
            # L-shape with wide arms instead of a thin frame of slivers
            parent = max(areas[s.nested_in], key=lambda r: r.area)
            need = demand[s.name] / (s.density * density_target) * grow
            shrink = math.sqrt(min(need / parent.area, 0.60))
            w, h = parent.width * shrink, parent.height * shrink
            child = Rect(
                parent.x_lo, parent.y_lo, parent.x_lo + w, parent.y_lo + h
            )
            snapped = _snap_rects(
                [child], die, netlist.row_height, netlist.site_width
            )[0]
            clipped = snapped.intersection(parent)
            areas[s.name] = [clipped if clipped is not None else child]
        elif s.overlaps:
            partner = areas[s.overlaps][0]
            need = demand[s.name] / (s.density * density_target) * grow
            w = math.sqrt(need * 1.2)
            h = need / w
            # overlap a strip of the partner but extend *outside* it,
            # so both difference regions remain solid usable blocks
            depth = max(min(0.3 * partner.width, 0.4 * w), 4.0)
            x0 = partner.x_hi - depth
            y0 = partner.center[1] - h / 2
            x0 = min(max(x0, die.x_lo), die.x_hi - w)
            y0 = min(max(y0, die.y_lo), die.y_hi - h)
            areas[s.name] = _snap_rects(
                [Rect(x0, y0, x0 + w, y0 + h)],
                die,
                netlist.row_height,
                netlist.site_width,
            )
    bounds = MoveBoundSet(die)
    for s in order:
        bounds.add_rects(s.name, areas[s.name], s.kind)
    try:
        bounds.normalize()
    except ValueError:
        return None
    return bounds


def attach_movebounds(
    netlist: Netlist,
    logical: np.ndarray,
    specs: Sequence[MoveBoundSpec],
    seed: int = 0,
    density_target: float = 0.97,
    max_attempts: int = 12,
) -> MoveBoundSet:
    """Assign cells to movebounds and synthesize feasible areas.

    Sets the cells' movebounds on the netlist and returns the
    normalized :class:`MoveBoundSet`.  Raises when no feasible layout
    is found within ``max_attempts`` grow-and-retry rounds.
    """
    rng = np.random.default_rng(seed)
    die = netlist.die
    n = len(logical)
    std_cells = [i for i in netlist.movable_indices.tolist() if i < n]
    tree = cKDTree(logical[std_cells])

    # ------------------------------------------------------------------
    # pick member cells per spec
    # ------------------------------------------------------------------
    assigned = np.zeros(netlist.num_cells, dtype=bool)
    members: Dict[str, List[int]] = {}
    for spec in specs:
        count = max(2, int(round(spec.cell_fraction * len(std_cells))))
        chosen: List[int] = []
        if spec.from_flattening:
            center = rng.random(2)
            _d, order = tree.query(center, k=len(std_cells))
            order = np.atleast_1d(order)
            for pos in order:
                ci = std_cells[int(pos)]
                if not assigned[ci]:
                    chosen.append(ci)
                    if len(chosen) >= count:
                        break
        else:
            pool = [ci for ci in std_cells if not assigned[ci]]
            take = min(count, len(pool))
            chosen = [int(c) for c in rng.choice(pool, take, replace=False)]
        assigned[chosen] = True
        netlist.set_cells(chosen, movebound=spec.name)
        members[spec.name] = chosen

    sizes = netlist.cell_sizes().tolist()
    cell_area = {
        spec.name: sum(sizes[i] for i in members[spec.name])
        for spec in specs
    }
    # nested parents must also hold their children's cells
    demand = dict(cell_area)
    for spec in specs:
        if spec.nested_in:
            demand[spec.nested_in] = (
                demand.get(spec.nested_in, 0.0) + cell_area[spec.name]
            )

    spec_by_name = {s.name: s for s in specs}
    # place parents before children, overlap targets before overlappers
    order: List[MoveBoundSpec] = []
    placed_names: set = set()
    remaining = list(specs)
    while remaining:
        progressed = False
        for spec in list(remaining):
            deps = [d for d in (spec.nested_in, spec.overlaps) if d]
            if all(d in placed_names for d in deps):
                order.append(spec)
                placed_names.add(spec.name)
                remaining.remove(spec)
                progressed = True
        if not progressed:
            raise ValueError("cyclic nested_in/overlaps dependencies")

    # ------------------------------------------------------------------
    # place areas, growing on infeasibility
    # ------------------------------------------------------------------
    total_needed = sum(
        demand[s.name] / (s.density * density_target)
        for s in order
        if not s.nested_in
    )
    use_shelf = total_needed > 0.33 * die.area
    grow = 1.0
    for attempt in range(max_attempts):
        if use_shelf or attempt >= max_attempts // 2:
            # the scatter path may have shrunk `grow` fighting for
            # placement room; the packed layout needs full-size areas
            grow = max(grow, 1.0)
            bounds = _shelf_layout(
                netlist, order, demand, density_target, grow, rng
            )
            if bounds is not None:
                report = check_feasibility(
                    netlist, bounds, density_target=density_target
                )
                if report.feasible and _row_feasible(netlist, bounds):
                    return bounds
            grow *= 1.25
            continue
        bounds = MoveBoundSet(die)
        areas: Dict[str, List[Rect]] = {}
        exclusive_union = RectSet()
        ok = True
        for spec in order:
            area_needed = (
                demand[spec.name] / (spec.density * density_target) * grow
            )
            # preferred center: where the member cells logically live
            lx = np.mean([logical[i][0] for i in members[spec.name]])
            ly = np.mean([logical[i][1] for i in members[spec.name]])
            center = (
                die.x_lo + lx * die.width,
                die.y_lo + ly * die.height,
            )
            rects: Optional[List[Rect]] = None
            if spec.nested_in:
                parent_rects = areas[spec.nested_in]
                parent = max(parent_rects, key=lambda r: r.area)
                shrink = math.sqrt(
                    min(area_needed / parent.area, 0.70)
                )
                w = parent.width * shrink
                h = parent.height * shrink
                rects = _snap_rects(
                    [
                        Rect(
                            parent.x_lo,
                            parent.y_lo,
                            parent.x_lo + w,
                            parent.y_lo + h,
                        )
                    ],
                    die, netlist.row_height, netlist.site_width,
                )
                rects = [r.intersection(parent) or r for r in rects]
            else:
                for _try in range(60):
                    if spec.overlaps:
                        partner = areas[spec.overlaps]
                        pb = partner[0]
                        cx = pb.x_hi - 0.1 * pb.width + rng.uniform(
                            0, 0.3 * pb.width
                        )
                        cy = pb.center[1] + rng.uniform(-0.3, 0.3) * pb.height
                        cand = _snap_rects(
                            _make_area(
                                rng, die, (cx, cy), area_needed,
                                spec.shape, min_dim=4 * netlist.row_height,
                            ),
                            die, netlist.row_height, netlist.site_width,
                        )
                    else:
                        jitter = rng.uniform(-0.12, 0.12, size=2)
                        cand = _snap_rects(
                            _make_area(
                                rng,
                                die,
                                (
                                    center[0] + jitter[0] * die.width,
                                    center[1] + jitter[1] * die.height,
                                ),
                                area_needed,
                                spec.shape,
                                min_dim=4 * netlist.row_height,
                            ),
                            die, netlist.row_height, netlist.site_width,
                        )
                    cand_set = RectSet(cand)
                    # bounds only overlap when the spec asks for it —
                    # accidental stacking would silently tighten
                    # capacities far beyond the requested densities
                    conflict = False
                    for other_name, other_rects in areas.items():
                        if spec.overlaps == other_name:
                            continue
                        if not cand_set.intersect(
                            RectSet(other_rects)
                        ).is_empty:
                            conflict = True
                            break
                    if not conflict and spec.overlaps:
                        # the requested overlap must actually exist
                        if cand_set.intersect(
                            RectSet(areas[spec.overlaps])
                        ).is_empty:
                            conflict = True
                    if not conflict:
                        rects = cand
                        break
                if rects is None:
                    ok = False
                    break
            areas[spec.name] = rects
            if spec.kind == EXCLUSIVE:
                exclusive_union = exclusive_union.union(RectSet(rects))
        if not ok:
            grow *= 0.92  # shrink to make room and retry placement
            continue

        for spec in order:
            bounds.add_rects(spec.name, areas[spec.name], spec.kind)
        bounds.normalize()
        report = check_feasibility(
            netlist, bounds, density_target=density_target
        )
        if report.feasible and _row_feasible(netlist, bounds):
            return bounds
        grow *= 1.15  # more room per bound and retry

    raise ValueError(
        "could not synthesize a feasible movebound layout; "
        "reduce densities or cell fractions"
    )
