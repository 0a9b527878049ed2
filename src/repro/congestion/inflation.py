"""Pin-density congestion estimation and cell inflation.

A cheap, standard congestion proxy: per placement bin, congestion =
pin count per unit of free area, normalized by the design average.
Cells in bins above a threshold get their *width* inflated by a factor
growing with the excess (capped), which reserves whitespace for
routing exactly where wires crowd.  Inflation is virtual — the
original widths are stored and restorable — but all placement
machinery (capacities, partitioning, legalization) sees the inflated
sizes, which is what stresses feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.metrics.density import DensityMap, default_bin_count
from repro.netlist import Netlist


@dataclass
class InflationResult:
    """Bookkeeping of an inflation pass (needed to deflate)."""

    original_widths: Dict[int, float] = field(default_factory=dict)
    inflated_cells: int = 0
    added_area: float = 0.0
    max_factor: float = 1.0


def congestion_map(
    netlist: Netlist, bins: Optional[int] = None
) -> np.ndarray:
    """Pin density per bin, normalized so the design average is 1.0."""
    nb = bins or default_bin_count(netlist)
    dmap = DensityMap(netlist, nb, nb)
    pins = np.zeros((nb, nb))
    for net in netlist.nets:
        for pin in net.pins:
            px, py = netlist.pin_position(pin)
            i, j = dmap.bin_of(px, py)
            pins[i, j] += 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(
            dmap.capacity > 1e-9, pins / np.maximum(dmap.capacity, 1e-9), 0.0
        )
    avg = density[density > 0].mean() if np.any(density > 0) else 1.0
    return density / max(avg, 1e-12)


def inflate_cells(
    netlist: Netlist,
    threshold: float = 1.4,
    strength: float = 0.5,
    max_factor: float = 1.6,
    bins: Optional[int] = None,
) -> InflationResult:
    """Inflate cells sitting in congested bins.

    A cell in a bin with normalized congestion ``c > threshold`` gets
    width scaled by ``min(1 + strength * (c - threshold), max_factor)``.
    Returns the bookkeeping needed by :func:`deflate_cells`.
    """
    nb = bins or default_bin_count(netlist)
    congestion = congestion_map(netlist, nb)
    dmap = DensityMap(netlist, nb, nb)
    result = InflationResult()
    widths, sizes = netlist.width.tolist(), netlist.cell_sizes().tolist()
    for index in netlist.movable_indices.tolist():
        i, j = dmap.bin_of(netlist.x[index], netlist.y[index])
        c = congestion[i, j]
        if c <= threshold:
            continue
        factor = min(1.0 + strength * (c - threshold), max_factor)
        if factor <= 1.0 + 1e-9:
            continue
        result.original_widths[index] = widths[index]
        result.added_area += sizes[index] * (factor - 1.0)
        result.max_factor = max(result.max_factor, factor)
        netlist.set_cells([index], width=widths[index] * factor)
        result.inflated_cells += 1
    return result


def deflate_cells(netlist: Netlist, inflation: InflationResult) -> None:
    """Restore the original cell widths recorded by inflate_cells."""
    for index, width in inflation.original_widths.items():
        netlist.set_cells([index], width=width)
