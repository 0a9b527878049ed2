"""The complete FBP partitioning step used by the global placer.

``fbp_partition`` = build the MinCostFlow model for the current
placement, solve it (Theorem 3 feasibility comes for free), realize the
flow, and report sizes and timing — the quantities of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.fbp.model import FBPModel, ModelStats, build_fbp_model
from repro.fbp.realization import RealizationResult, realize_flow
from repro.grid import Grid
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.obs import incr, maybe_check, span
from repro.qp import QPOptions

if TYPE_CHECKING:
    from repro.fbp.sharding import ShardReport


@dataclass
class FBPReport:
    """Everything a caller (or Table I) wants to know about one
    partitioning pass."""

    feasible: bool
    stats: ModelStats
    flow_cost: float = float("nan")
    flow_seconds: float = 0.0
    realization_seconds: float = 0.0
    realization: Optional[RealizationResult] = None
    model: Optional[FBPModel] = None
    #: accounting of the sharded solve when ``shard_tiles`` was used
    shard: Optional["ShardReport"] = None


def fbp_partition(
    netlist: Netlist,
    bounds: MoveBoundSet,
    grid: Grid,
    density_target: float = 1.0,
    qp_options: Optional[QPOptions] = None,
    run_local_qp: bool = True,
    cell_windows: Optional[np.ndarray] = None,
    keep_model: bool = False,
    shard_tiles: Optional[int] = None,
) -> FBPReport:
    """One flow-based partitioning pass on the current placement.

    Guarantees (Theorem 3 + §IV.B): if any fractional placement with
    the given movebounds exists, the report is feasible and after the
    pass every window satisfies condition (1) up to cell-integrality
    slack; otherwise ``feasible`` is False and positions are untouched.

    ``shard_tiles`` > 1 replaces the monolithic MinCostFlow solve with
    the tile-sharded path of :mod:`repro.fbp.sharding` (exact in the
    zero-cut-flow regime, reported approximation otherwise; falls back
    to the monolithic solve whenever the tiling cannot express the
    instance).
    """
    shard_report = None
    with span("fbp.flow") as sp_flow:
        with span("fbp.build"):
            model = build_fbp_model(
                netlist, bounds, grid, density_target, cell_windows
            )
        with span("fbp.solve"):
            if shard_tiles is not None and shard_tiles > 1:
                from repro.fbp.sharding import solve_sharded

                result, shard_report = solve_sharded(model, shard_tiles)
            else:
                result = model.solve()

    incr("fbp.partitions")
    incr("fbp.model.nodes", model.stats.num_nodes)
    incr("fbp.model.arcs", model.stats.num_arcs)
    incr("fbp.model.windows", model.stats.num_windows)
    incr("fbp.model.external_arcs", model.stats.num_external_arcs)

    report = FBPReport(
        feasible=result.feasible,
        stats=model.stats,
        flow_seconds=sp_flow.wall_s,
        shard=shard_report,
    )
    if keep_model:
        report.model = model
    if not result.feasible:
        return report
    report.flow_cost = result.cost
    maybe_check("fbp.region_capacity", model, result)

    with span("fbp.realize") as sp_realize:
        report.realization = realize_flow(
            model,
            result,
            qp_options=qp_options,
            run_local_qp=run_local_qp,
        )
    report.realization_seconds = sp_realize.wall_s
    maybe_check(
        "movebound.containment",
        netlist,
        bounds,
        cells=report.realization.cells.tolist(),
    )
    return report
