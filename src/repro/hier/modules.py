"""Module trees and hierarchy flattening.

A :class:`Module` is a node of the design hierarchy; leaves hold cell
indices, inner nodes hold submodules.  :func:`flatten_to_movebounds`
turns a chosen hierarchy *cut* into movebounds:

* every module at (or above, if it is a leaf) the cut depth becomes
  one inclusive movebound;
* bound areas come from a slicing floorplan of the die proportional to
  module cell areas (the same proven-feasible layout machinery as the
  workload generator);
* cells of deeper modules inherit their ancestor's bound — exactly
  what "flattening an RLM one level" means.

The result is the (F) structure of the paper's Table III instances,
obtained from an actual hierarchy instead of synthetic clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.feasibility import check_feasibility
from repro.geometry import Rect
from repro.movebounds import INCLUSIVE, MoveBoundSet
from repro.netlist import Netlist


@dataclass
class Module:
    """One node of the design hierarchy."""

    name: str
    children: List["Module"] = field(default_factory=list)
    #: cell indices owned directly by this module (usually leaves only)
    cells: List[int] = field(default_factory=list)

    def add_child(self, child: "Module") -> "Module":
        if any(c.name == child.name for c in self.children):
            raise ValueError(f"duplicate child module {child.name!r}")
        self.children.append(child)
        return child

    def all_cells(self) -> List[int]:
        """Cell indices of this module and all descendants."""
        out = list(self.cells)
        for child in self.children:
            out.extend(child.all_cells())
        return out

    def modules_at_depth(self, depth: int) -> List["Module"]:
        """Modules forming the hierarchy cut at the given depth: nodes
        exactly at `depth`, plus shallower leaves."""
        if depth == 0 or not self.children:
            return [self]
        out: List[Module] = []
        for child in self.children:
            out.extend(child.modules_at_depth(depth - 1))
        return out

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, children={len(self.children)}, "
            f"cells={len(self.cells)})"
        )


@dataclass
class FlattenResult:
    """Outcome of hierarchy flattening."""

    bounds: MoveBoundSet
    #: module name -> cell indices bound to it
    members: Dict[str, List[int]]
    #: modules skipped (too few cells to warrant a bound)
    skipped: List[str] = field(default_factory=list)


def _module_affinity(
    netlist: Netlist, members: Dict[str, List[int]]
) -> Dict[frozenset, float]:
    """Net-weight affinity between module pairs: every net touching
    cells of k >= 2 modules contributes weight/(k-1) per pair."""
    module_of: Dict[int, str] = {}
    for name, cells in members.items():
        for i in cells:
            module_of[i] = name
    affinity: Dict[frozenset, float] = {}
    for net in netlist.nets:
        touched = set()
        for pin in net.pins:
            if pin.cell_index >= 0 and pin.cell_index in module_of:
                touched.add(module_of[pin.cell_index])
        if len(touched) < 2:
            continue
        share = net.weight / (len(touched) - 1)
        ordered = sorted(touched)
        for a_i, a in enumerate(ordered):
            for b in ordered[a_i + 1 :]:
                key = frozenset((a, b))
                affinity[key] = affinity.get(key, 0.0) + share
    return affinity


def _bipartition(
    names: List[str],
    demands: Dict[str, float],
    affinity: Dict[frozenset, float],
) -> tuple:
    """Demand-balanced bipartition that keeps connected modules
    together: greedy seed by demand, then improvement passes moving a
    module across when that lowers the cut and keeps balance."""
    left: List[str] = []
    right: List[str] = []
    d_left = d_right = 0.0
    for name in sorted(names, key=lambda n: -demands[n]):
        if d_left <= d_right:
            left.append(name)
            d_left += demands[name]
        else:
            right.append(name)
            d_right += demands[name]
    total = d_left + d_right

    def cut(l: List[str], r: List[str]) -> float:
        return sum(
            w for key, w in affinity.items()
            if any(n in l for n in key) and any(n in r for n in key)
        )

    for _ in range(4):  # a few improvement sweeps suffice at this size
        improved = False
        for name in list(names):
            if name in left and len(left) > 1:
                src, dst = left, right
            elif name in right and len(right) > 1:
                src, dst = right, left
            else:
                continue
            new_src = [n for n in src if n != name]
            new_dst = dst + [name]
            d_new_dst = sum(demands[n] for n in new_dst)
            if not 0.2 * total <= d_new_dst <= 0.8 * total:
                continue
            if cut(new_src, new_dst) + 1e-12 < cut(src, dst):
                src.remove(name)
                dst.append(name)
                improved = True
        if not improved:
            break
    return left, right


def _slicing_layout(
    die: Rect,
    demands: Dict[str, float],
    netlist: Netlist,
    fill: float,
    affinity: Optional[Dict[frozenset, float]] = None,
) -> Dict[str, Rect]:
    """Slicing floorplan: recursively split the die proportionally to
    the demands (keeping connected modules on the same side when an
    affinity map is given); each module gets a centered, row-aligned
    rectangle of area demand/fill inside its slice."""
    affinity = affinity or {}
    areas: Dict[str, Rect] = {}

    def snap(rect: Rect) -> Rect:
        h = netlist.row_height
        s = netlist.site_width
        x_lo = die.x_lo + math.floor((rect.x_lo - die.x_lo) / s) * s
        x_hi = die.x_lo + math.ceil((rect.x_hi - die.x_lo) / s) * s
        y_lo = die.y_lo + math.floor((rect.y_lo - die.y_lo) / h) * h
        y_hi = die.y_lo + math.ceil((rect.y_hi - die.y_lo) / h) * h
        return Rect(
            max(x_lo, die.x_lo), max(y_lo, die.y_lo),
            min(x_hi, die.x_hi), min(y_hi, die.y_hi),
        )

    def split(rect: Rect, names: List[str]) -> bool:
        if len(names) == 1:
            name = names[0]
            want = demands[name] / fill
            if want > 0.95 * rect.area:
                return False
            scale = math.sqrt(want / rect.area)
            w, h = rect.width * scale, rect.height * scale
            x0 = rect.x_lo + (rect.width - w) / 2
            y0 = rect.y_lo + (rect.height - h) / 2
            areas[name] = snap(Rect(x0, y0, x0 + w, y0 + h))
            return True
        left, right = _bipartition(names, demands, affinity)
        d_left = sum(demands[n] for n in left)
        d_right = sum(demands[n] for n in right)
        frac = min(max(d_left / max(d_left + d_right, 1e-12), 0.15), 0.85)
        if rect.width >= rect.height:
            cut = rect.x_lo + rect.width * frac
            return split(
                Rect(rect.x_lo, rect.y_lo, cut, rect.y_hi), left
            ) and split(Rect(cut, rect.y_lo, rect.x_hi, rect.y_hi), right)
        cut = rect.y_lo + rect.height * frac
        return split(
            Rect(rect.x_lo, rect.y_lo, rect.x_hi, cut), left
        ) and split(Rect(rect.x_lo, cut, rect.x_hi, rect.y_hi), right)

    if not split(die, list(demands)):
        raise ValueError(
            "hierarchy does not fit the die at the requested fill; "
            "lower `fill` or flatten deeper"
        )
    return areas


def flatten_to_movebounds(
    netlist: Netlist,
    root: Module,
    depth: int = 1,
    fill: float = 0.6,
    min_cells: int = 4,
    density_target: float = 0.97,
) -> FlattenResult:
    """Flatten the hierarchy at `depth` into inclusive movebounds.

    Modules with fewer than `min_cells` cells stay unconstrained (their
    cells place freely).  The resulting instance is validated with the
    Theorem-2 feasibility check; an infeasible floorplan raises.
    Sets the cells' movebounds on the netlist.
    """
    if not 0 < fill <= 1:
        raise ValueError("fill must be in (0, 1]")
    modules = root.modules_at_depth(depth)
    members: Dict[str, List[int]] = {}
    skipped: List[str] = []
    demands: Dict[str, float] = {}
    fixed, sizes = netlist.fixed_mask.tolist(), netlist.cell_sizes().tolist()
    for module in modules:
        cells = [i for i in module.all_cells() if not fixed[i]]
        if len(cells) < min_cells:
            skipped.append(module.name)
            continue
        if module.name in members:
            raise ValueError(f"duplicate module name {module.name!r}")
        members[module.name] = cells
        demands[module.name] = sum(sizes[i] for i in cells)

    affinity = _module_affinity(netlist, members)
    areas = _slicing_layout(netlist.die, demands, netlist, fill, affinity)
    bounds = MoveBoundSet(netlist.die)
    for name, cells in members.items():
        bounds.add_rects(name, [areas[name]], INCLUSIVE)
        netlist.set_cells(cells, movebound=name)
    bounds.normalize()

    report = check_feasibility(
        netlist, bounds, density_target=density_target
    )
    if not report.feasible:
        raise ValueError(
            f"flattened floorplan infeasible: subset "
            f"{sorted(report.witness or ())} overflows by "
            f"{report.deficit:.1f}"
        )
    return FlattenResult(bounds, members, skipped)
