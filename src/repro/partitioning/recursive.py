"""Recursive partitioning — the classical BonnPlace scheme [5].

Each level splits every window into 2x2 subwindows and solves, *per
window and independently*, a transportation problem assigning the
window's cells to the subwindows' regions.  This is the approach whose
drawbacks motivate FBP (paper §IV): decisions are local, and a window
can become infeasible (no valid split exists for its own cells) even
though the global instance is feasible — recursion then has to relax
capacities.  The report counts these local failures so the ablation
benchmark can show them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.flows import RELAX_CHAIN_PARTITION
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, RegionDecomposition
from repro.partitioning.transport import (
    block_targets,
    build_instance,
    spread_step,
)
from repro.fbp.model import fixed_cell_usage
from repro.netlist import Netlist


@dataclass
class RecursivePartitionReport:
    """Accounting of one full recursive partitioning run."""

    levels: int = 0
    windows_processed: int = 0
    local_infeasibilities: int = 0
    relaxations: int = 0
    final_assignment: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def recursive_partition(
    netlist: Netlist,
    bounds: MoveBoundSet,
    decomposition: RegionDecomposition,
    max_level: int,
    density_target: float = 1.0,
) -> RecursivePartitionReport:
    """Recursively partition cells down to a 2^max_level grid.

    At each level the grid doubles; every parent window's cells are
    distributed among the regions of its 4 children by the §III
    transportation step with movebound costs, then spread into their
    assigned region pieces.  Purely local — no flow between sibling
    windows — which is exactly the limitation FBP removes.
    """
    report = RecursivePartitionReport()
    die = netlist.die
    # cell -> current window (ix, iy) at the current level
    assignment: Dict[int, Tuple[int, int]] = dict.fromkeys(
        netlist.movable_indices.tolist(), (0, 0)
    )

    for level in range(1, max_level + 1):
        n = 2**level
        grid = Grid(die, n, n)
        grid.build_regions(decomposition)
        usage = fixed_cell_usage(netlist, grid)
        report.levels = level

        # group cells by parent window
        parents: Dict[Tuple[int, int], List[int]] = {}
        for cell, (ix, iy) in assignment.items():
            parents.setdefault((ix, iy), []).append(cell)

        # the per-parent steps are independent (disjoint cell sets):
        # one batch, through the worker pool when one is active
        from repro.runstate.pool import solve_instance_batch

        batch = []  # (targets, instance)
        for (pix, piy), cells in sorted(parents.items()):
            report.windows_processed += 1
            children = [
                grid.window(2 * pix + dx, 2 * piy + dy)
                for dy in (0, 1)
                for dx in (0, 1)
            ]
            targets = block_targets(children, usage, density_target)
            batch.append(
                (targets, build_instance(netlist, sorted(cells), targets))
            )

        steps = solve_instance_batch(
            [inst for _t, inst in batch], chain=RELAX_CHAIN_PARTITION
        )

        new_assignment: Dict[int, Tuple[int, int]] = {}
        for (targets, inst), step in zip(batch, steps):
            if not step.feasible:
                report.local_infeasibilities += 1
                continue
            if step.relaxed:
                report.relaxations += 1
            for cell, t in zip(inst.cells.tolist(), step.target.tolist()):
                child = grid.windows[targets.keys[t][0]]
                new_assignment[cell] = (child.ix, child.iy)
            netlist.x[inst.cells], netlist.y[inst.cells] = spread_step(
                inst, step.target
            )
        assignment = new_assignment

    netlist.clamp_into_die()
    report.final_assignment = assignment
    return report
