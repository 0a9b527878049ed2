"""ASCII renderers."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.movebounds import DEFAULT_BOUND, MoveBoundSet, RegionDecomposition
from repro.netlist import Netlist


def _canvas(width: int, height: int) -> List[List[str]]:
    return [[" "] * width for _ in range(height)]


def _to_text(canvas: List[List[str]]) -> str:
    # row 0 is the top of the chip
    return "\n".join("".join(row) for row in canvas)


def render_regions(
    decomposition: RegionDecomposition,
    width: int = 72,
    height: int = 28,
) -> str:
    """Render the maximal regions (Figure 1 right): each region gets a
    letter; the default-only region prints as '.'."""
    die = decomposition.die
    canvas = _canvas(width, height)
    symbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    legend: Dict[str, str] = {}
    for row in range(height):
        for col in range(width):
            x = die.x_lo + (col + 0.5) / width * die.width
            y = die.y_hi - (row + 0.5) / height * die.height
            region = decomposition.region_at(x, y)
            if region is None:
                continue
            if region.signature == frozenset({DEFAULT_BOUND}):
                canvas[row][col] = "."
                continue
            key = ",".join(
                sorted(n for n in region.signature if n != DEFAULT_BOUND)
            )
            if key not in legend:
                legend[key] = symbols[len(legend) % len(symbols)]
            canvas[row][col] = legend[key]
    lines = [_to_text(canvas), ""]
    for key, sym in sorted(legend.items(), key=lambda kv: kv[1]):
        lines.append(f"  {sym} = region covered by {{{key}}}")
    lines.append("  . = unconstrained (default) region")
    return "\n".join(lines)


def render_placement(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    width: int = 72,
    height: int = 28,
) -> str:
    """Density picture of the current placement: darker = more cells.
    Movebound areas are outlined with their first letter."""
    die = netlist.die
    shades = " .:-=+*#%@"
    counts = [[0] * width for _ in range(height)]
    for i in netlist.movable_indices.tolist():
        col = int((netlist.x[i] - die.x_lo) / die.width * width)
        row = int((die.y_hi - netlist.y[i]) / die.height * height)
        col = min(max(col, 0), width - 1)
        row = min(max(row, 0), height - 1)
        counts[row][col] += 1
    peak = max((max(r) for r in counts), default=1) or 1
    canvas = _canvas(width, height)
    for row in range(height):
        for col in range(width):
            level = int(counts[row][col] / peak * (len(shades) - 1))
            canvas[row][col] = shades[level]
    if bounds is not None:
        for bound in bounds:
            mark = bound.name[-1]
            for rect in bound.area:
                c0 = int((rect.x_lo - die.x_lo) / die.width * width)
                c1 = int((rect.x_hi - die.x_lo) / die.width * width)
                r0 = int((die.y_hi - rect.y_hi) / die.height * height)
                r1 = int((die.y_hi - rect.y_lo) / die.height * height)
                c0, c1 = max(c0, 0), min(c1, width - 1)
                r0, r1 = max(r0, 0), min(r1, height - 1)
                for c in range(c0, c1 + 1):
                    canvas[r0][c] = mark
                    canvas[r1][c] = mark
                for r in range(r0, r1 + 1):
                    canvas[r][c0] = mark
                    canvas[r][c1] = mark
    return _to_text(canvas)


def render_flow_graph(model, result=None, max_arcs: int = 40) -> str:
    """Textual dump of an FBP model (Figures 2-3): node/edge counts by
    type and, when a flow result is given, the flow-carrying external
    arcs in 'window -> window (movebound): flow' form."""
    stats = model.stats
    lines = [
        f"FBP MinCostFlow instance: |V|={stats.num_nodes} "
        f"|E|={stats.num_arcs} (|E|/|V|={stats.arc_node_ratio:.2f})",
        f"  windows={stats.num_windows} region nodes={stats.num_regions} "
        f"cell groups={stats.num_cell_groups} transits={stats.num_transits}",
        f"  external arcs={stats.num_external_arcs}",
    ]
    if result is not None:
        flows = model.external_flows(result)
        lines.append(f"  flow-carrying external arcs: {len(flows)}")
        for arc, f in flows[:max_arcs]:
            v = model.grid.windows[arc.src_window]
            w = model.grid.windows[arc.dst_window]
            lines.append(
                f"    ({v.ix},{v.iy}) -{arc.direction}-> ({w.ix},{w.iy})"
                f"  [{arc.bound}]  flow={f:.1f}"
            )
        if len(flows) > max_arcs:
            lines.append(f"    ... and {len(flows) - max_arcs} more")
    return "\n".join(lines)
