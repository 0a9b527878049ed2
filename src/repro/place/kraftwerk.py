"""A Kraftwerk2-style baseline placer (Table VII comparison).

Kraftwerk2 [Spindler et al., TCAD 2008] iterates quadratic solves with
the Bound2Bound net model and a *move force* derived from a
demand-and-supply (Poisson) potential of the current density: cells are
pulled along the negative gradient of the potential, implemented as
target points held by pseudo-nets whose strength grows over the run.

The Poisson equation is solved spectrally (DCT, Neumann boundary) on
the bin grid — the same mathematical device as the original's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.legalize import (
    check_legality,
    legalize_with_movebounds,
)
from repro.metrics.density import DensityMap, default_bin_count
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.obs import incr, span
from repro.place.base import PlacerResult
from repro.qp import QPOptions, solve_qp


@dataclass
class KraftwerkOptions:
    """Tuning knobs of the Kraftwerk2-style baseline."""

    max_iterations: int = 30
    overflow_stop: float = 0.08
    bins: Optional[int] = None
    step: float = 0.9  # scale of the gradient move
    anchor_base: float = 0.015
    anchor_growth: float = 1.2
    qp: QPOptions = field(default_factory=lambda: QPOptions(net_model="b2b"))
    density_target: float = 0.97
    legalize: bool = True
    detailed_passes: int = 1


def solve_poisson_neumann(rhs: np.ndarray) -> np.ndarray:
    """Solve  -laplace(phi) = rhs  with Neumann boundary via DCT-II.

    The rhs is mean-shifted (compatibility condition); the result's
    mean is arbitrary and set to zero.
    """
    # imported here: only this baseline uses scipy.fft (which loads
    # scipy.special), and a ``place`` with another placer never runs it
    from scipy.fft import dctn, idctn

    n, m = rhs.shape
    f = rhs - rhs.mean()
    fh = dctn(f, type=2, norm="ortho")
    i = np.arange(n)[:, None]
    j = np.arange(m)[None, :]
    denom = (
        (2 * np.cos(np.pi * i / n) - 2)
        + (2 * np.cos(np.pi * j / m) - 2)
    )
    denom[0, 0] = 1.0
    ph = fh / (-denom)
    ph[0, 0] = 0.0
    return idctn(ph, type=2, norm="ortho")


class KraftwerkPlacer:
    """Quadratic placement with Poisson demand-supply move forces."""

    name = "Kraftwerk2-like"

    def __init__(self, options: Optional[KraftwerkOptions] = None) -> None:
        self.options = options or KraftwerkOptions()
        self.iterations_run = 0

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
                solve_qp(netlist, QPOptions(net_model="hybrid"))
            nb = opts.bins or default_bin_count(netlist)
            dmap = DensityMap(netlist, nb, nb)
            die = netlist.die
            movable = netlist.movable_indices

            anchor_weight = opts.anchor_base
            self.iterations_run = 0
            for _it in range(opts.max_iterations):
                dmap.update()
                overflow = dmap.overflow_ratio(opts.density_target)
                if overflow < opts.overflow_stop:
                    break
                self.iterations_run += 1
                incr("kraftwerk.iterations")

                # demand minus supply, normalized per bin area
                bin_area = dmap.bin_w * dmap.bin_h
                demand = (
                    dmap.usage - opts.density_target * dmap.capacity
                ) / bin_area
                phi = solve_poisson_neumann(demand)
                # usage arrays are (i=x, j=y)-indexed, so axis 0 is x
                gx, gy = np.gradient(phi, dmap.bin_w, dmap.bin_h)

                ix = np.clip(
                    ((netlist.x[movable] - die.x_lo) / dmap.bin_w).astype(
                        int
                    ),
                    0,
                    nb - 1,
                )
                iy = np.clip(
                    ((netlist.y[movable] - die.y_lo) / dmap.bin_h).astype(
                        int
                    ),
                    0,
                    nb - 1,
                )
                tx = netlist.x.copy()
                ty = netlist.y.copy()
                tx[movable] -= opts.step * gx[ix, iy]
                ty[movable] -= opts.step * gy[ix, iy]
                with span("place.qp"):
                    solve_qp(netlist, opts.qp, anchors=(tx, ty, anchor_weight))
                anchor_weight *= opts.anchor_growth
        global_seconds = sp_global.wall_s

        legal_seconds = 0.0
        if opts.legalize:
            with span("place.legalize") as sp_legal:
                legalize_with_movebounds(netlist, bounds)
                if opts.detailed_passes > 0:
                    from repro.legalize.detailed import detailed_place

                    detailed_place(
                        netlist, bounds, passes=opts.detailed_passes,
                        density_target=opts.density_target,
                    )
            legal_seconds = sp_legal.wall_s

        legality = check_legality(netlist, bounds)
        return PlacerResult(
            placer=self.name,
            instance=netlist.name,
            hpwl=netlist.hpwl(),
            global_seconds=global_seconds,
            legal_seconds=legal_seconds,
            legality=legality,
        )
