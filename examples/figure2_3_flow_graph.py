"""Figures 2 and 3 of the paper: the FBP MinCostFlow graph.

Figure 2 shows the intra-window edge sets for one movebound M in one
window: E^cr (cell group -> regions), E^tt (transit <-> transit),
E^ct (cell group -> transits) and E^tr (transit -> regions).
Figure 3 shows the external edges connecting facing transit nodes of
adjacent windows.

This example builds a small model (2x2 windows, one movebound),
enumerates the edge sets per window, solves the flow, and prints the
flow-carrying external arcs.

Run:  python examples/figure2_3_flow_graph.py
"""

from collections import Counter

import numpy as np

from repro.fbp import build_fbp_model
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin
from repro.viz import render_flow_graph


def build_instance():
    die = Rect(0, 0, 40, 40)
    netlist = Netlist(die, row_height=1.0, site_width=0.5, name="fig23")
    bounds = MoveBoundSet(die)
    bounds.add_rects("M", [Rect(0, 0, 40, 40)])  # M spans all windows
    rng = np.random.default_rng(0)
    # all cells of M crowd window (0, 0): flow must leave over transits
    for i in range(60):
        netlist.add_cell(
            f"m{i}", 2.0, 1.0,
            x=float(rng.uniform(1, 18)), y=float(rng.uniform(1, 18)),
            movebound="M",
        )
    for j in range(0, 58, 2):
        netlist.add_net(f"n{j}", [Pin(j), Pin(j + 1)])
    return netlist, bounds


def main() -> None:
    print(__doc__)
    netlist, bounds = build_instance()
    decomposition = decompose_regions(netlist.die, bounds)
    grid = Grid(netlist.die, 2, 2)
    grid.build_regions(decomposition)
    model = build_fbp_model(netlist, bounds, grid, density_target=0.8)

    # --- Figure 2: intra-window edge sets ------------------------------
    kinds = Counter()
    for arc in model.problem.arcs:
        tail, head = arc.tail, arc.head
        if tail[0] == "cg" and head[0] == "r":
            kinds["E^cr (cell group -> region)"] += 1
        elif tail[0] == "cg" and head[0] == "t":
            kinds["E^ct (cell group -> transit)"] += 1
        elif tail[0] == "t" and head[0] == "t":
            if tail[2] == head[2]:  # same window
                kinds["E^tt (transit -> transit, same window)"] += 1
            else:
                kinds["E^ext (external, facing transits)"] += 1
        elif tail[0] == "t" and head[0] == "r":
            kinds["E^tr (transit -> region)"] += 1
    print("edge sets of the model (Figure 2 + Figure 3):")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:45} x{count}")

    # --- Figure 3: external arcs carrying flow -------------------------
    result = model.solve()
    print(f"\nMinCostFlow feasible: {result.feasible} "
          f"(Theorem 3), cost {result.cost:.1f}")
    print()
    print(render_flow_graph(model, result))
    print(
        "\nAll of M's cells start in window (0,0); the flow routes the "
        "surplus over the window boundaries (external arcs) into the "
        "neighbor windows' region nodes."
    )


if __name__ == "__main__":
    main()
