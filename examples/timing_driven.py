"""Timing-driven placement with movebounds.

Paper §I motivates movebounds with "particular timing and routability
issues [18]": timing-critical blocks get position constraints, and the
placer must honor them while optimizing weighted wirelength.

This example runs the classic timing-driven loop (place -> static
timing analysis -> criticality net weighting -> re-place) on a design
whose timing-critical region is additionally pinned by a movebound,
and reports critical-path and HPWL before/after.

Run:  python examples/timing_driven.py
"""

from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.timing import analyze_timing, timing_driven_place
from repro.workloads import NetlistSpec, generate_netlist


def main() -> None:
    print(__doc__)
    spec = NetlistSpec("tdrv", num_cells=400, utilization=0.5,
                       num_pads=16)
    netlist, logical = generate_netlist(spec, seed=17)

    # pin the timing-critical block (logically central cells, which the
    # generator wires most densely) into a movebound near the die center
    die = netlist.die
    cx, cy = die.center
    side = die.width * 0.38
    bound_rect = Rect(cx - side / 2, cy - side / 2,
                      cx + side / 2, cy + side / 2)
    bounds = MoveBoundSet(die)
    bounds.add_rects("critical_block", [bound_rect])
    critical = [
        i for i, (lx, ly) in enumerate(logical)
        if abs(lx - 0.5) < 0.15 and abs(ly - 0.5) < 0.15
    ]
    netlist.set_cells(critical, movebound="critical_block")
    print(f"pinned {len(critical)} timing-critical cells into a central "
          f"movebound\n")

    first, final = timing_driven_place(
        netlist, bounds, iterations=3, alpha=4.0
    )
    hpwl = netlist.hpwl()
    print(f"critical path before : {first.critical_path:9.1f}")
    print(f"critical path after  : {final.critical_path:9.1f}  "
          f"({100 * (1 - final.critical_path / first.critical_path):+.1f}%"
          " improvement)")
    print(f"final HPWL           : {hpwl:9.1f}")
    print(f"cycle arcs broken    : {final.broken_arcs}")
    crit = final.critical_nets(0.85)
    print(f"nets still >85% critical: {len(crit)}")
    print(
        "\nThe quadratic placer absorbs timing weights without any "
        "change to the FBP machinery — weighted HPWL is its native "
        "objective — and the movebound is honored throughout."
    )
    violations = bounds.violations(netlist)
    print(f"movebound violations after the loop: {len(violations)}")


if __name__ == "__main__":
    main()
