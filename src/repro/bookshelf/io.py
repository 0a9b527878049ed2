"""Reading and writing the Bookshelf-style instance files.

Files written for an instance ``name`` into a directory:

``name.aux``
    Index file listing the other files (Bookshelf convention).
``name.nodes``
    ``<cell> <width> <height> [terminal] [movebound=<mb>]`` per line.
``name.nets``
    ``NetDegree : <k> <netname> [weight]`` followed by one pin per
    line: ``<cell> : <dx> <dy>`` (offsets from the cell center) or
    ``PAD : <x> <y>`` for fixed terminals.
``name.pl``
    ``<cell> <x_center> <y_center>`` per line.
``name.scl``
    ``Die <x_lo> <y_lo> <x_hi> <y_hi> RowHeight <h> SiteWidth <w>``
    plus ``Blockage <x_lo> <y_lo> <x_hi> <y_hi>`` lines.
``name.mb``
    One movebound per line:
    ``<name> <inclusive|exclusive> <x_lo> <y_lo> <x_hi> <y_hi> [...]``
    (coordinate quadruples repeat for multi-rectangle areas).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.geometry import Rect, RectSet
from repro.movebounds import MoveBound, MoveBoundSet
from repro.netlist import Netlist, Pin


def save_instance(
    directory: str,
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
) -> None:
    """Write the instance to ``directory`` (created if missing)."""
    os.makedirs(directory, exist_ok=True)
    name = netlist.name
    base = os.path.join(directory, name)

    with open(base + ".nodes", "w") as f:
        f.write(f"NumNodes : {netlist.num_cells}\n")
        for cell in netlist.cells:
            extras = ""
            if cell.fixed:
                extras += " terminal"
            if cell.movebound:
                extras += f" movebound={cell.movebound}"
            f.write(f"{cell.name} {cell.width} {cell.height}{extras}\n")

    with open(base + ".nets", "w") as f:
        f.write(f"NumNets : {netlist.num_nets}\n")
        for net in netlist.nets:
            f.write(f"NetDegree : {net.degree} {net.name} {net.weight}\n")
            for pin in net.pins:
                if pin.is_fixed_terminal:
                    f.write(f"  PAD : {pin.offset_x} {pin.offset_y}\n")
                else:
                    cell = netlist.cells[pin.cell_index]
                    f.write(
                        f"  {cell.name} : {pin.offset_x} {pin.offset_y}\n"
                    )

    with open(base + ".pl", "w") as f:
        for cell in netlist.cells:
            f.write(
                f"{cell.name} {netlist.x[cell.index]} "
                f"{netlist.y[cell.index]}\n"
            )

    with open(base + ".scl", "w") as f:
        die = netlist.die
        f.write(
            f"Die {die.x_lo} {die.y_lo} {die.x_hi} {die.y_hi} "
            f"RowHeight {netlist.row_height} SiteWidth {netlist.site_width}\n"
        )
        for rect in netlist.blockages:
            f.write(
                f"Blockage {rect.x_lo} {rect.y_lo} {rect.x_hi} {rect.y_hi}\n"
            )

    if bounds is not None and len(bounds) > 0:
        with open(base + ".mb", "w") as f:
            for bound in bounds:
                coords = " ".join(
                    f"{r.x_lo} {r.y_lo} {r.x_hi} {r.y_hi}"
                    for r in bound.area
                )
                f.write(f"{bound.name} {bound.kind} {coords}\n")

    with open(base + ".aux", "w") as f:
        files = [
            f"{name}.nodes",
            f"{name}.nets",
            f"{name}.pl",
            f"{name}.scl",
        ]
        if bounds is not None and len(bounds) > 0:
            files.append(f"{name}.mb")
        f.write("RowBasedPlacement : " + " ".join(files) + "\n")


def load_instance(
    directory: str, name: str
) -> Tuple[Netlist, MoveBoundSet]:
    """Read an instance previously written by :func:`save_instance`."""
    base = os.path.join(directory, name)

    # die first (the Netlist constructor needs it)
    die: Optional[Rect] = None
    row_height = 1.0
    site_width = 1.0
    blockages: List[Rect] = []
    with open(base + ".scl") as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "Die":
                die = Rect(*map(float, parts[1:5]))
                row_height = float(parts[6])
                site_width = float(parts[8])
            elif parts[0] == "Blockage":
                blockages.append(Rect(*map(float, parts[1:5])))
    if die is None:
        raise ValueError(f"{base}.scl has no Die line")

    netlist = Netlist(die, row_height, site_width, name=name)
    for rect in blockages:
        netlist.add_blockage(rect)

    positions = {}
    with open(base + ".pl") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3:
                positions[parts[0]] = (float(parts[1]), float(parts[2]))

    # (name, width, height, x, y, fixed, movebound) per cell, added in
    # one call: growing the netlist a cell at a time copies the
    # coordinate arrays once per cell
    nodes = []
    with open(base + ".nodes") as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0] == "NumNodes":
                continue
            movebound = None
            for token in parts[3:]:
                if token.startswith("movebound="):
                    movebound = token.split("=", 1)[1]
            x, y = positions.get(parts[0], die.center)
            nodes.append(
                (
                    parts[0],
                    float(parts[1]),
                    float(parts[2]),
                    x,
                    y,
                    "terminal" in parts[3:],
                    movebound,
                )
            )
    names, widths, heights, xs, ys, fixed, movebounds = (
        zip(*nodes) if nodes else [()] * 7
    )
    netlist.add_cells(
        names, widths, heights, x=xs, y=ys, fixed=fixed, movebound=movebounds
    )
    netlist.finalize()

    with open(base + ".nets") as f:
        net_name = None
        weight = 1.0
        pins: List[Pin] = []
        for line in f:
            parts = line.split()
            if not parts or parts[0] == "NumNets":
                continue
            if parts[0] == "NetDegree":
                if net_name is not None:
                    netlist.add_net(net_name, pins, weight)
                net_name = parts[3]
                weight = float(parts[4]) if len(parts) > 4 else 1.0
                pins = []
            elif parts[0] == "PAD":
                pins.append(Pin.terminal(float(parts[2]), float(parts[3])))
            else:
                idx = netlist.cell_index(parts[0])
                pins.append(Pin(idx, float(parts[2]), float(parts[3])))
        if net_name is not None:
            netlist.add_net(net_name, pins, weight)

    bounds = MoveBoundSet(die)
    if os.path.exists(base + ".mb"):
        with open(base + ".mb") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6:
                    continue
                bname, kind = parts[0], parts[1]
                coords = list(map(float, parts[2:]))
                rects = [
                    Rect(*coords[i : i + 4])
                    for i in range(0, len(coords), 4)
                ]
                bounds.add(MoveBound(bname, RectSet(rects), kind))
    return netlist, bounds
