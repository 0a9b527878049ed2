"""Cells, pins and nets.

Conventions:

* Cell positions refer to the *center* of the cell; the covered
  rectangle is ``center ± (width/2, height/2)``.  Center coordinates
  make quadratic net models symmetric and are converted to lower-left
  corners only at the Bookshelf I/O boundary.
* A pin belongs either to a cell (``cell_index >= 0``) with an offset
  from the cell center, or is a fixed terminal (``cell_index == -1``)
  with absolute coordinates stored in the offset fields.
* :class:`Cell`, :class:`Pin` and :class:`Net` are not what a Netlist
  stores: its cells are columns (width, height, fixed, movebound code)
  and its nets one CSR pin table.  The records are construction inputs
  (:meth:`Netlist.add_net`) and on-demand views (``netlist.cells[i]``
  and ``netlist.nets[i]`` build one from the columns), so changing one
  changes no netlist; :meth:`Netlist.set_cells` changes the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

FIXED_PIN = -1

#: Name of the implicit movebound of the cells without one.
DEFAULT_BOUND = "__default__"


@dataclass(frozen=True, slots=True)
class Cell:
    """A rectangular cell (standard cell, macro, or pad)."""

    name: str
    width: float
    height: float
    fixed: bool = False
    movebound: Optional[str] = None
    index: int = -1  # assigned when added to a Netlist

    @property
    def size(self) -> float:
        """Cell area — written size(c) in the paper."""
        return self.width * self.height

    def __repr__(self) -> str:
        tag = " fixed" if self.fixed else ""
        mb = f" mb={self.movebound}" if self.movebound else ""
        return f"Cell({self.name!r} {self.width}x{self.height}{tag}{mb})"


@dataclass(frozen=True, slots=True)
class Pin:
    """A net pin: either on a cell (offset from center) or a fixed
    terminal at absolute coordinates."""

    cell_index: int
    offset_x: float = 0.0
    offset_y: float = 0.0

    @property
    def is_fixed_terminal(self) -> bool:
        return self.cell_index == FIXED_PIN

    @staticmethod
    def terminal(x: float, y: float) -> "Pin":
        """A pad / pre-placed pin at absolute position (x, y)."""
        return Pin(FIXED_PIN, x, y)


@dataclass(frozen=True, slots=True)
class Net:
    """A multi-terminal net connecting two or more pins."""

    name: str
    pins: List[Pin] = field(default_factory=list)
    weight: float = 1.0

    @property
    def degree(self) -> int:
        return len(self.pins)

    def __repr__(self) -> str:
        return f"Net({self.name!r}, degree={self.degree}, w={self.weight})"
