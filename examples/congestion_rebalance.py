"""Congestion-driven re-placement: inflation + incremental FBP.

Paper §IV, on why recursive partitioning falls short: feasibility in a
window "is not always true due to ... increased cell sizes from
congestion avoidance".  The practical loop this refers to:

1. place;
2. estimate routing congestion (pin density here);
3. inflate cells in hot spots to reserve routing whitespace;
4. re-partition — the inflated design may be locally infeasible for a
   recursive scheme, but FBP's global flow redistributes and stays
   feasible for any starting placement.

Run:  python examples/congestion_rebalance.py
"""

import numpy as np

from repro.congestion import congestion_map, inflate_cells
from repro.fbp import fbp_partition
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.place import BonnPlaceFBP, BonnPlaceOptions
from repro.viz import render_placement
from repro.workloads import NetlistSpec, generate_netlist


def hotspot_report(netlist, bins=8):
    cmap = congestion_map(netlist, bins)
    hot = int((cmap > 1.4).sum())
    return cmap.max(), hot


def main() -> None:
    print(__doc__)
    spec = NetlistSpec("congest", num_cells=500, utilization=0.60,
                       num_pads=12)
    netlist, _ = generate_netlist(spec, seed=9)
    bounds = MoveBoundSet(netlist.die)

    BonnPlaceFBP(BonnPlaceOptions(legalize=False)).place(netlist, bounds)
    peak, hot = hotspot_report(netlist)
    print(f"after placement: peak congestion {peak:.2f}x average, "
          f"{hot} hot bins")

    inflation = inflate_cells(
        netlist, threshold=1.2, strength=0.5, max_factor=1.8, bins=8
    )
    util = netlist.movable_area() / (
        netlist.die.area - netlist.blockages.area
    )
    print(
        f"inflated {inflation.inflated_cells} cells "
        f"(+{inflation.added_area:.0f} area, max factor "
        f"{inflation.max_factor:.2f}); utilization now {100 * util:.0f}%"
    )

    decomposition = decompose_regions(
        netlist.die, bounds, netlist.blockages
    )
    grid = Grid(netlist.die, 8, 8)
    grid.build_regions(decomposition)
    report = fbp_partition(
        netlist, bounds, grid, density_target=0.97
    )
    print(
        f"\nincremental FBP on the inflated design: feasible = "
        f"{report.feasible} (Theorem 3 held even though local windows "
        "became overfull)"
    )
    real = report.realization
    print(
        f"realized {real.arcs_realized} external arcs, moved "
        f"{real.moved_area:.0f} inflated area units; max window "
        f"overflow {real.max_overflow:.2f} (whole-cell rounding: each "
        "arc ships within half a cell of its flow)"
    )
    peak2, hot2 = hotspot_report(netlist)
    print(f"after rebalancing: peak congestion {peak2:.2f}x, "
          f"{hot2} hot bins")
    print("\nplacement after congestion rebalancing:")
    print(render_placement(netlist, width=70, height=20))


if __name__ == "__main__":
    main()
