"""Repartitioning / reflow refinement ([5], [17], [27]).

After a partitioning pass, quality can be recovered by revisiting small
blocks of neighboring windows (2x2 or 3x3): run a local QP with outside
cells fixed, then re-run the movebound-aware transportation over the
block's regions.  The paper calls these steps "time-consuming" and
positions FBP as removing the *need* for them — this module exists for
the ablation benchmark quantifying exactly that trade-off.  Measured
(docs/performance.md, "Global placement's scalar tail"): one pass over
the 229 blocks of a 12.5k-cell placement takes 1.2 s — 1.8 s before
its HPWL gate and the transportation's overflow repair went onto
arrays — against 0.8 s for all five MinCostFlow solves of that
``place``.

The HPWL gate of a pass is threaded: it keeps the per-net span vector
of :meth:`Netlist.net_spans`, recomputes only the rows of nets on cells
a block moved and takes the same weighted dot product over the same
floats as :meth:`Netlist.hpwl` — no decision can differ from gating on
a whole-netlist recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fbp.model import fixed_cell_usage
from repro.obs import incr, maybe_check
from repro.grid import Grid
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.partitioning.transport import (
    PartitionOutcome,
    block_targets,
    partition_cells,
    spread_step,
)
from repro.qp import QPOptions, solve_qp


@dataclass
class RepartitionReport:
    blocks_processed: int = 0
    blocks_improved: int = 0
    hpwl_before: float = 0.0
    hpwl_after: float = 0.0


def _cells_by_window(
    netlist: Netlist, grid: Grid
) -> Tuple[np.ndarray, Dict[int, List[int]]]:
    """``(cell_window, window_cells)``: the window of every cell, and
    per window its movable cells — grouped with one stable argsort, so
    ascending cell index within each window, exactly the order a scan
    over ``netlist.cells`` would append them in."""
    cell_window = grid.assign_cells(netlist)
    window_cells: Dict[int, List[int]] = {}
    movable = np.nonzero(~netlist.fixed_mask)[0]
    if len(movable):
        wins = cell_window[movable]
        order = np.argsort(wins, kind="stable")
        sw = wins[order]
        sc = movable[order]
        starts = np.nonzero(np.r_[True, sw[1:] != sw[:-1]])[0]
        ends = np.r_[starts[1:], len(sw)]
        for s, e in zip(starts.tolist(), ends.tolist()):
            window_cells[int(sw[s])] = sc[s:e].tolist()
    return cell_window, window_cells


def block_windows(grid: Grid, bx: int, by: int, block_size: int = 2) -> list:
    """The windows of the block at origin ``(bx, by)``, clipped at the
    grid border."""
    return [
        grid.window(ix, iy)
        for iy in range(by, min(by + block_size, grid.ny))
        for ix in range(bx, min(bx + block_size, grid.nx))
    ]


def _block(grid: Grid, window_cells, bx: int, by: int, block_size: int):
    """The windows of the block at origin ``(bx, by)`` and their cells."""
    block = block_windows(grid, bx, by, block_size)
    cells: List[int] = []
    for w in block:
        cells.extend(window_cells.get(w.index, ()))
    return block, cells


def _local_qp(netlist: Netlist, cells: List[int]) -> dict:
    """``solve_qp`` keywords of a block's local QP: only the block's
    cells movable, only the nets incident to them."""
    mask = np.zeros(netlist.num_cells, dtype=bool)
    mask[cells] = True
    return {"movable_mask": mask, "net_ids": netlist.nets_of_cells(cells)}


def _partition_block(
    netlist: Netlist,
    grid: Grid,
    block,
    cells: List[int],
    usage: Dict,
    density_target: float,
) -> Optional[PartitionOutcome]:
    """Re-run the movebound-aware transportation of ``cells`` over the
    block's regions and spread each region's cells into its area.
    None when the block has no free capacity or the transportation is
    infeasible (positions are then as the caller left them)."""
    targets = block_targets(block, usage, density_target)
    if not targets.keys:
        return None
    outcome = partition_cells(netlist, cells, targets)
    if not outcome.feasible:
        return None
    inst = outcome.instance
    netlist.x[inst.cells], netlist.y[inst.cells] = spread_step(
        inst, outcome.target
    )
    return outcome


def repartition_pass(
    netlist: Netlist,
    bounds: MoveBoundSet,
    grid: Grid,
    density_target: float = 1.0,
    block_size: int = 2,
    qp_options: Optional[QPOptions] = None,
    run_local_qp: bool = True,
    cell_limit: int = 800,
) -> RepartitionReport:
    """Sweep block_size x block_size window blocks; within each block,
    locally re-QP and re-partition the block's cells.  Reverts a block
    when the step did not improve HPWL."""
    # threaded HPWL: a block either keeps its improved placement (its
    # span vector and ``after`` become the current ones) or restores
    # the byte-equal snapshot (both are unchanged)
    weights, row_of_net = netlist.span_layout()
    spans = netlist.net_spans()
    current_hpwl = float(np.dot(weights, spans))
    report = RepartitionReport(hpwl_before=current_hpwl)
    usage = fixed_cell_usage(netlist, grid)
    qp_opts = qp_options or QPOptions()
    cell_window, window_cells = _cells_by_window(netlist, grid)

    for by in range(0, grid.ny, block_size):
        for bx in range(0, grid.nx, block_size):
            block, cells = _block(grid, window_cells, bx, by, block_size)
            if not cells or len(cells) > cell_limit:
                continue
            report.blocks_processed += 1
            snapshot = netlist.snapshot()

            if run_local_qp:
                solve_qp(netlist, qp_opts, **_local_qp(netlist, cells))

            outcome = _partition_block(
                netlist, grid, block, cells, usage, density_target
            )
            if outcome is None:
                netlist.restore(snapshot)
                continue
            netlist.clamp_into_die()
            moved = np.nonzero(
                (netlist.x != snapshot.x) | (netlist.y != snapshot.y)
            )[0]
            rows = row_of_net[netlist.nets_of_cells(moved)]
            rows = rows[rows >= 0]
            trial = spans.copy()
            trial[rows] = netlist.net_spans(rows)
            after = float(np.dot(weights, trial))
            maybe_check("reflow.hpwl_threaded", netlist, after)
            if after < current_hpwl:
                spans, current_hpwl = trial, after
                report.blocks_improved += 1
                for cell, key in outcome.assignment.items():
                    widx, _wr = key
                    if int(cell_window[cell]) != widx:
                        window_cells[int(cell_window[cell])].remove(cell)
                        window_cells.setdefault(widx, []).append(cell)
                        cell_window[cell] = widx
            else:
                netlist.restore(snapshot)

    report.hpwl_after = current_hpwl
    incr("repartition.blocks_processed", report.blocks_processed)
    incr("repartition.blocks_improved", report.blocks_improved)
    return report


def enforce_blocks(
    netlist: Netlist,
    bounds: MoveBoundSet,
    grid: Grid,
    blocks,
    density_target: float = 1.0,
    block_size: int = 2,
    qp_options: Optional[QPOptions] = None,
    run_local_qp: bool = True,
    cell_limit: int = 800,
) -> bool:
    """Frontier repair for the incremental re-place (:mod:`repro.eco`):
    re-run the movebound-aware block transportation over the given
    ``(bx, by)`` block origins ONLY, always accepting a feasible
    assignment.  Unlike :func:`repartition_pass` there is no HPWL gate
    and no revert — the blocks hold cells whose movebounds just
    changed, so the current assignment may be inadmissible and keeping
    it is not an option.  Returns False when any block's transportation
    is infeasible or capacity-free; the caller degrades to the full
    multilevel solve.
    """
    usage = fixed_cell_usage(netlist, grid)
    qp_opts = qp_options or QPOptions()
    _cell_window, window_cells = _cells_by_window(netlist, grid)

    processed = 0
    for bx, by in sorted(blocks):
        block, cells = _block(grid, window_cells, bx, by, block_size)
        if not cells:
            continue
        processed += 1
        if run_local_qp and len(cells) <= cell_limit:
            solve_qp(netlist, qp_opts, **_local_qp(netlist, cells))
        outcome = _partition_block(
            netlist, grid, block, cells, usage, density_target
        )
        if outcome is None:
            return False

    netlist.clamp_into_die()
    incr("repartition.blocks_enforced", processed)
    return True
