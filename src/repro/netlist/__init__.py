"""Netlist substrate: cells, pins, nets and the placement state.

The placer works on a :class:`~repro.netlist.netlist.Netlist`, which owns

* the cells (movable standard cells, macros and fixed pads) as columns,
* the net hypergraph with pin offsets, as one CSR pin table,
* the die rectangle, placement blockages, and row geometry,
* the current placement as numpy coordinate arrays (cell centers).

Half-perimeter wirelength (HPWL) and pin-position evaluation live here
because every other subsystem consumes them.
"""

from repro.netlist.elements import DEFAULT_BOUND, FIXED_PIN, Cell, Pin, Net
from repro.netlist.netlist import Netlist, PlacementSnapshot

__all__ = [
    "DEFAULT_BOUND", "FIXED_PIN", "Cell", "Pin", "Net", "Netlist",
    "PlacementSnapshot",
]
