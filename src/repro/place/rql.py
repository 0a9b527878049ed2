"""An RQL-style force-directed baseline placer.

RQL [Viswanathan et al., DAC 2007] is "relaxed quadratic spreading and
linearization": iterate quadratic solves with spreading forces derived
from bin utilization (FastPlace-style cell shifting) held by fixed-
point pseudo-nets.  This re-implementation follows the published
algorithm at our scale and — deliberately — reproduces its *naive*
movebound handling, which the paper evaluates against:

* movebound cells are clamped into their areas after every spreading
  step (a force/projection approach with no capacity awareness);
* legalization is plain row legalization over the whole chip, blind to
  regions — so exclusive areas and saturated movebounds produce the
  violation counts (and occasional infeasibility "crashes") that
  Tables IV/V report for RQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.legalize import build_segments, check_legality, tetris_legalize
from repro.metrics.density import DensityMap, default_bin_count
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet
from repro.netlist import Netlist
from repro.obs import incr, span
from repro.place.base import PlacerResult
from repro.qp import QPOptions, solve_qp


@dataclass
class RQLOptions:
    """Tuning knobs of the RQL-style baseline."""

    max_iterations: int = 24
    overflow_stop: float = 0.08  # stop when overflow ratio drops below
    anchor_base: float = 0.012
    anchor_growth: float = 1.18
    shift_damping: float = 0.72  # relaxation of the cell-shifting move
    bins: Optional[int] = None
    qp: QPOptions = field(default_factory=QPOptions)
    density_target: float = 0.97
    respect_movebounds: bool = True  # naive clamping mode
    legalize: bool = True
    detailed_passes: int = 1  # post-legalization refinement


def _shift_axis(
    coords: np.ndarray,
    usage_1d: np.ndarray,
    lo: float,
    hi: float,
    damping: float,
) -> np.ndarray:
    """FastPlace cell shifting along one axis for one bin row/column.

    Bin boundaries move toward equalizing adjacent utilizations; cell
    coordinates map piecewise-linearly from old bins to new bins.
    """
    nb = len(usage_1d)
    width = (hi - lo) / nb
    old = np.linspace(lo, hi, nb + 1)
    new = old.copy()
    for i in range(1, nb):
        u_l, u_r = usage_1d[i - 1], usage_1d[i]
        denom = u_l + u_r
        if denom <= 1e-12:
            continue
        delta = damping * width * (u_l - u_r) / denom
        new[i] = old[i] + np.clip(delta, -0.49 * width, 0.49 * width)
    # piecewise-linear remap
    idx = np.clip(((coords - lo) / width).astype(int), 0, nb - 1)
    frac = (coords - old[idx]) / np.maximum(old[idx + 1] - old[idx], 1e-12)
    return new[idx] + frac * (new[idx + 1] - new[idx])


class RQLPlacer:
    """Relaxed-quadratic-spreading baseline with naive movebounds."""

    name = "RQL-like"

    def __init__(self, options: Optional[RQLOptions] = None) -> None:
        self.options = options or RQLOptions()
        self.iterations_run = 0

    # ------------------------------------------------------------------
    def _clamp_movebounds(
        self, netlist: Netlist, bounds: MoveBoundSet
    ) -> None:
        """Project every movebound cell to the closest point of its
        area — capacity-blind, exactly the naive approach."""
        exclusive = bounds.exclusive_area()
        default_area = None
        codes, names = netlist.movebound_groups()
        codes = codes.tolist()
        for i in netlist.movable_indices.tolist():
            x, y = netlist.x[i], netlist.y[i]
            name = names[codes[i]]
            if name != DEFAULT_BOUND:
                area = bounds.get(name).area
                if not area.contains_point(x, y):
                    netlist.x[i], netlist.y[i] = area.clamp_point(x, y)
            elif not exclusive.is_empty and exclusive.contains_point(x, y):
                if default_area is None:
                    default_area = bounds.default_bound().area
                netlist.x[i], netlist.y[i] = default_area.clamp_point(x, y)

    # ------------------------------------------------------------------
    def place(
        self,
        netlist: Netlist,
        bounds: Optional[MoveBoundSet] = None,
    ) -> PlacerResult:
        opts = self.options
        if bounds is None:
            bounds = MoveBoundSet(netlist.die)
        bounds.normalize()

        with span("place.global") as sp_global:
            with span("place.qp"):
                solve_qp(netlist, opts.qp)
            nb = opts.bins or default_bin_count(netlist)
            dmap = DensityMap(netlist, nb, nb)
            die = netlist.die
            movable = netlist.movable_indices

            anchor_weight = opts.anchor_base
            self.iterations_run = 0
            for it in range(opts.max_iterations):
                dmap.update()
                overflow = dmap.overflow_ratio(opts.density_target)
                if overflow < opts.overflow_stop:
                    break
                self.iterations_run += 1
                incr("rql.iterations")

                # cell shifting: x within each bin row, y within each col
                new_x = netlist.x.copy()
                new_y = netlist.y.copy()
                ys = netlist.y[movable]
                xs = netlist.x[movable]
                row_of = np.clip(
                    ((ys - die.y_lo) / dmap.bin_h).astype(int), 0, nb - 1
                )
                col_of = np.clip(
                    ((xs - die.x_lo) / dmap.bin_w).astype(int), 0, nb - 1
                )
                for j in range(nb):
                    sel = movable[row_of == j]
                    if len(sel):
                        new_x[sel] = _shift_axis(
                            netlist.x[sel],
                            dmap.usage[:, j],
                            die.x_lo,
                            die.x_hi,
                            opts.shift_damping,
                        )
                for i in range(nb):
                    sel = movable[col_of == i]
                    if len(sel):
                        new_y[sel] = _shift_axis(
                            netlist.y[sel],
                            dmap.usage[i, :],
                            die.y_lo,
                            die.y_hi,
                            opts.shift_damping,
                        )
                netlist.x, netlist.y = new_x, new_y
                if opts.respect_movebounds:
                    self._clamp_movebounds(netlist, bounds)
                netlist.clamp_into_die()

                with span("place.qp"):
                    solve_qp(
                        netlist,
                        opts.qp,
                        anchors=(netlist.x, netlist.y, anchor_weight),
                    )
                if opts.respect_movebounds:
                    self._clamp_movebounds(netlist, bounds)
                anchor_weight *= opts.anchor_growth
        global_seconds = sp_global.wall_s

        legal_seconds = 0.0
        if opts.legalize:
            with span("place.legalize") as sp_legal:
                segments = build_segments(netlist)
                std_cells = np.flatnonzero(netlist.std_cell_mask).tolist()
                try:
                    tetris_legalize(netlist, std_cells, segments)
                except ValueError as exc:  # "crashed" outcome of Table IV
                    incr("rql.crashes")
                    crash = str(exc)
                else:
                    crash = None
                    if opts.detailed_passes > 0:
                        from repro.legalize.detailed import detailed_place

                        detailed_place(
                            netlist, bounds, passes=opts.detailed_passes,
                            density_target=opts.density_target,
                        )
            legal_seconds = sp_legal.wall_s
            if crash is not None:
                return PlacerResult(
                    placer=self.name,
                    instance=netlist.name,
                    hpwl=float("nan"),
                    global_seconds=global_seconds,
                    legal_seconds=legal_seconds,
                    crashed=True,
                    error=crash,
                )

        legality = check_legality(netlist, bounds)
        return PlacerResult(
            placer=self.name,
            instance=netlist.name,
            hpwl=netlist.hpwl(),
            global_seconds=global_seconds,
            legal_seconds=legal_seconds,
            legality=legality,
        )
