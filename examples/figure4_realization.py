"""Figure 4 of the paper: realization of the flow, step by step.

(1) initial solution -> (2) pick an external flow arc -> (3) coarse
window around it -> (4) local QP with outside cells fixed ->
(5) partitioning in the coarse window -> new solution.

This example instruments `realize_flow` on an overloaded instance and
prints the per-arc shipping decisions plus before/after placement
pictures.

Run:  python examples/figure4_realization.py
"""

import numpy as np

from repro.fbp import build_fbp_model, compute_schedule
from repro.fbp.realization import realize_flow
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin
from repro.viz import render_placement


def build_instance():
    die = Rect(0, 0, 60, 60)
    netlist = Netlist(die, row_height=1.0, site_width=0.5, name="fig4")
    rng = np.random.default_rng(3)
    num_cells = 400  # ~800 area units piled onto one 400-unit window
    for i in range(num_cells):
        netlist.add_cell(
            f"c{i}", 2.0, 1.0,
            x=float(rng.uniform(1, 19)), y=float(rng.uniform(1, 19)),
        )
    for j in range(300):
        a, b = rng.choice(num_cells, 2, replace=False)
        netlist.add_net(f"n{j}", [Pin(int(a)), Pin(int(b))])
    return netlist


def main() -> None:
    print(__doc__)
    netlist = build_instance()
    bounds = MoveBoundSet(netlist.die)
    decomposition = decompose_regions(netlist.die, bounds)
    grid = Grid(netlist.die, 3, 3)
    grid.build_regions(decomposition)

    print("(1) initial solution — everything crowded bottom-left:")
    print(render_placement(netlist, width=60, height=18))

    model = build_fbp_model(netlist, bounds, grid, density_target=0.8)
    result = model.solve()
    assert result.feasible

    schedule = compute_schedule(model, model.external_flows(result))
    print(f"\n(2)+(3) {schedule.num_arcs} external arcs in "
          f"{schedule.num_rounds} rounds of the realization schedule; "
          "each realized over a 2x3/3x2 coarse window:")
    for rnd, round_arcs in enumerate(schedule.rounds):
        for arc in round_arcs:
            v = grid.windows[arc.src_window]
            w = grid.windows[arc.dst_window]
            block = grid.coarse_block(v, w)
            print(
                f"  round {rnd}: ({v.ix},{v.iy}) -{arc.direction}-> "
                f"({w.ix},{w.iy}) flow={schedule.flow[arc.arc_id]:6.1f}  "
                f"coarse window: {len(block)} windows "
                f"{sorted((b.ix, b.iy) for b in block)}"
            )

    out = realize_flow(model, result, run_local_qp=True)
    print(
        f"\n(4)+(5) realized {out.arcs_realized} arcs with "
        f"{out.local_qp_calls} local QPs; moved {out.moved_area:.1f} "
        f"area units (rounding slack {out.rounding_error:.2f})"
    )
    print("\nnew solution — spread across the windows, capacities met:")
    print(render_placement(netlist, width=60, height=18))


if __name__ == "__main__":
    main()
