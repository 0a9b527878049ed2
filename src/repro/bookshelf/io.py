"""Reading and writing the Bookshelf-style instance files.

Files written for an instance ``name`` into a directory:

``name.aux``
    Index file listing the other files (Bookshelf convention).
``name.nodes``
    ``NumNodes : <n>``, then
    ``<cell> <width> <height> [terminal] [movebound=<mb>]`` per line.
``name.nets``
    ``NumNets : <m>``, then per net
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

The nets go straight between these files and the netlist's pin table
(:meth:`~repro.netlist.Netlist.pin_table`): the writer formats the
table's columns and the reader parses into
:meth:`~repro.netlist.Netlist.add_nets_bulk`, so no
:class:`~repro.netlist.Net` or :class:`~repro.netlist.Pin` record is
made on either side.

The reader refuses malformed input with an
:class:`~repro.resilience.errors.InfeasibleInputError` of stage
``bookshelf.load`` naming the file and the line: bytes that are not
UTF-8, a record with the wrong fields, a number that is not finite (or
not positive, for a net weight, a row height, a site width and a node's
width and height), a name no node has,
a net with more or fewer pin lines than its ``NetDegree``, a
``NumNodes`` / ``NumNets`` header that does not count the records
after it, and a last line without its newline (a cut file).  A node
missing from the ``.pl`` sits at the die center, and a ``.mb`` line of
fewer than six fields is skipped.
"""

from __future__ import annotations

import math
import os
from array import array
from typing import Iterator, List, Optional, Tuple

from repro.geometry import Rect, RectSet
from repro.movebounds import MoveBound, MoveBoundSet
from repro.netlist import DEFAULT_BOUND, FIXED_PIN, Netlist
from repro.resilience.errors import InfeasibleInputError


def save_instance(
    directory: str,
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
) -> None:
    """Write the instance to ``directory`` (created if missing)."""
    os.makedirs(directory, exist_ok=True)
    name = netlist.name
    base = os.path.join(directory, name)

    codes, bound_names = netlist.movebound_groups()
    tags = ["" if b == DEFAULT_BOUND else f" movebound={b}"
            for b in bound_names]
    with open(base + ".nodes", "w") as f:
        f.write(f"NumNodes : {netlist.num_cells}\n")
        f.writelines(
            f"{name} {w} {h}{' terminal' if fixed else ''}{tags[code]}\n"
            for name, w, h, fixed, code in zip(
                netlist.cell_names, netlist.width.tolist(),
                netlist.height.tolist(), netlist.fixed_mask.tolist(),
                codes.tolist(),
            )
        )

    # a pad's pin cell is -1, which names the last entry: "PAD"
    cell_names = netlist.cell_names + ["PAD"]
    with open(base + ".nets", "w") as f:
        f.write(f"NumNets : {netlist.num_nets}\n")
        f.writelines(_net_lines(netlist, cell_names))

    with open(base + ".pl", "w") as f:
        f.writelines(
            f"{cell} {x} {y}\n"
            for cell, x, y in zip(
                cell_names, netlist.x.tolist(), netlist.y.tolist()
            )
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


def _net_lines(netlist: Netlist, cell_names: List[str]) -> Iterator[str]:
    """The ``.nets`` records after the header, from the pin table."""
    ptr, cell, dx, dy, weight = netlist.pin_table()
    ptr, cell, dx, dy = ptr.tolist(), cell.tolist(), dx.tolist(), dy.tolist()
    for i, (net, w) in enumerate(zip(netlist.net_names, weight.tolist())):
        a, b = ptr[i], ptr[i + 1]
        yield f"NetDegree : {b - a} {net} {w}\n"
        for k in range(a, b):
            yield f"  {cell_names[cell[k]]} : {dx[k]} {dy[k]}\n"


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _refuse(path: str, line: int, what: str) -> InfeasibleInputError:
    return InfeasibleInputError(
        f"{path}:{line}: {what}", stage="bookshelf.load"
    )


def _classified(path: str, line: int, exc: Exception) -> InfeasibleInputError:
    """``exc``, raised reading ``line`` of ``path``, as a refusal."""
    if isinstance(exc, InfeasibleInputError) and exc.stage == "bookshelf.load":
        return exc
    return _refuse(path, line, f"{type(exc).__name__}: {exc}")


def _records(path: str) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, fields)`` of each non-blank line of ``path``."""
    with open(path, "rb") as f:
        for n, raw in enumerate(f, 1):
            if not raw.endswith(b"\n"):
                raise _refuse(path, n, "the last line has no newline: "
                              "the file is cut")
            try:
                fields = raw.decode().split()
            except UnicodeDecodeError:
                raise _refuse(path, n, "not UTF-8 text") from None
            if fields:
                yield n, fields


def _number(path: str, n: int, token: str, positive: bool = False) -> float:
    """``token`` as a finite number; one above 0 if ``positive`` (a
    row height, a site width, a node's width or height).  The per-pin
    loops check their numbers inline, the same way, without a call."""
    value = float(token)
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "a positive number" if positive else "a finite number"
        raise _refuse(path, n, f"{token!r} is not {kind}")
    return value


def _header(path: str, n: int, fields: List[str], key: str) -> int:
    """The count a ``<key> : <count>`` header line declares."""
    if fields[0] != key or len(fields) != 3 or fields[1] != ":":
        raise _refuse(path, n, f"expected the header '{key} : <count>'")
    return int(fields[2])


def _read_scl(path: str) -> Tuple[Rect, float, float, List[Rect]]:
    die: Optional[Rect] = None
    row_height = site_width = 1.0
    blockages: List[Rect] = []
    n = 0
    try:
        for n, fields in _records(path):
            if fields[0] == "Die":
                if die is not None:
                    raise _refuse(path, n, "a second Die line")
                if (
                    len(fields) != 9
                    or fields[5] != "RowHeight"
                    or fields[7] != "SiteWidth"
                ):
                    raise _refuse(path, n, "expected 'Die <x_lo> <y_lo> "
                                  "<x_hi> <y_hi> RowHeight <h> SiteWidth <w>'")
                die = Rect(*(_number(path, n, t) for t in fields[1:5]))
                row_height = _number(path, n, fields[6], positive=True)
                site_width = _number(path, n, fields[8], positive=True)
            elif fields[0] == "Blockage" and len(fields) == 5:
                blockages.append(
                    Rect(*(_number(path, n, t) for t in fields[1:5]))
                )
            else:
                raise _refuse(path, n, f"unknown record {fields[0]!r}")
    except ValueError as exc:
        raise _classified(path, n, exc) from None
    if die is None:
        raise _refuse(path, n, "no Die line")
    return die, row_height, site_width, blockages


def _read_nodes(path: str, netlist: Netlist) -> None:
    """Add the ``.nodes`` cells, all in one call: growing the netlist a
    cell at a time copies the coordinate arrays once per cell."""
    names: List[str] = []
    widths = array("d")
    heights = array("d")
    fixed: List[bool] = []
    movebounds: List[Optional[str]] = []
    seen = set()
    declared, n = None, 0
    try:
        for n, fields in _records(path):
            if declared is None:
                declared = _header(path, n, fields, "NumNodes")
                continue
            name = fields[0]
            w = _number(path, n, fields[1], positive=True)
            h = _number(path, n, fields[2], positive=True)
            if name in seen:
                raise _refuse(path, n, f"duplicate node {name!r}")
            seen.add(name)
            terminal, movebound = False, None
            for token in fields[3:]:
                if token == "terminal":
                    terminal = True
                elif token.startswith("movebound="):
                    movebound = token[len("movebound="):]
                else:
                    raise _refuse(path, n, f"unknown attribute {token!r}")
            names.append(name)
            widths.append(w)
            heights.append(h)
            fixed.append(terminal)
            movebounds.append(movebound)
    except (ValueError, IndexError) as exc:
        raise _classified(path, n, exc) from None
    if declared is None:
        raise _refuse(path, n, "no NumNodes header")
    if declared != len(names):
        raise _refuse(path, n, f"NumNodes says {declared}, "
                      f"but {len(names)} nodes follow")
    netlist.add_cells(
        names, widths, heights, fixed=fixed, movebound=movebounds
    )


def _read_pl(path: str, netlist: Netlist) -> None:
    """Set the positions the ``.pl`` names, one line per node."""
    cells, xs, ys = [], array("d"), array("d")
    placed = set()
    inf, n = math.inf, 0
    try:
        for n, fields in _records(path):
            if len(fields) != 3:
                raise _refuse(path, n, "expected '<node> <x> <y>'")
            if fields[0] in placed:
                raise _refuse(path, n, f"node {fields[0]!r} placed twice")
            placed.add(fields[0])
            cells.append(netlist.cell_index(fields[0]))
            x, y = float(fields[1]), float(fields[2])
            if not (-inf < x < inf and -inf < y < inf):
                raise _refuse(path, n, "a position is not a finite number")
            xs.append(x)
            ys.append(y)
    except KeyError:
        raise _refuse(path, n, f"no node is named {fields[0]!r}") from None
    except ValueError as exc:
        raise _classified(path, n, exc) from None
    netlist.x[cells] = xs
    netlist.y[cells] = ys


def _read_nets(path: str, netlist: Netlist) -> None:
    """Parse the ``.nets`` straight into the netlist's pin table."""
    names: List[str] = []
    member_lists: List[List[int]] = []
    weights = array("d")
    dx, dy = array("d"), array("d")
    index = netlist.cell_index
    members: List[int] = []
    degree, opened = 0, 0  # the open net's NetDegree and its line
    declared, inf, n = None, math.inf, 0

    def close() -> None:
        if len(members) != degree:
            raise _refuse(path, opened, f"net {names[-1]!r} has "
                          f"{len(members)} pin lines for NetDegree {degree}")

    try:
        for n, fields in _records(path):
            head = fields[0]
            if declared is None:
                declared = _header(path, n, fields, "NumNets")
            elif head == "NetDegree":
                close()
                if len(fields) not in (4, 5) or fields[1] != ":":
                    raise _refuse(path, n, "expected 'NetDegree : <k> "
                                  "<net> [weight]'")
                degree, opened = int(fields[2]), n
                names.append(fields[3])
                w = float(fields[4]) if len(fields) == 5 else 1.0
                if not 0 < w < inf:
                    raise _refuse(path, n, f"net weight {fields[4]!r} is "
                                  "not a positive number")
                weights.append(w)
                members = []
                member_lists.append(members)
            elif len(fields) == 4 and fields[1] == ":":
                if len(members) == degree:
                    raise _refuse(path, n, "a pin line beyond its net's "
                                  "NetDegree")
                members.append(FIXED_PIN if head == "PAD" else index(head))
                x, y = float(fields[2]), float(fields[3])
                if not (-inf < x < inf and -inf < y < inf):
                    raise _refuse(path, n, "a pin offset is not a finite "
                                  "number")
                dx.append(x)
                dy.append(y)
            else:
                raise _refuse(path, n, "expected a NetDegree or a pin line "
                              "'<node> : <dx> <dy>'")
        close()
    except KeyError:
        raise _refuse(path, n, f"no node is named {head!r}") from None
    except ValueError as exc:
        raise _classified(path, n, exc) from None
    if declared is None:
        raise _refuse(path, n, "no NumNets header")
    if declared != len(names):
        raise _refuse(path, n, f"NumNets says {declared}, "
                      f"but {len(names)} nets follow")
    netlist.add_nets_bulk(names, member_lists, weights, (dx, dy))


def _read_mb(path: str, die: Rect) -> MoveBoundSet:
    bounds = MoveBoundSet(die)
    n = 0
    try:
        for n, fields in _records(path):
            if len(fields) < 6:
                continue
            coords = [_number(path, n, t) for t in fields[2:]]
            if len(coords) % 4:
                raise _refuse(path, n, "coordinates come in quadruples")
            rects = [
                Rect(*coords[i : i + 4]) for i in range(0, len(coords), 4)
            ]
            bounds.add(MoveBound(fields[0], RectSet(rects), fields[1]))
    except ValueError as exc:
        raise _classified(path, n, exc) from None
    return bounds


def load_instance(
    directory: str, name: str
) -> Tuple[Netlist, MoveBoundSet]:
    """Read an instance previously written by :func:`save_instance`;
    malformed input raises :class:`InfeasibleInputError` (stage
    ``bookshelf.load``)."""
    base = os.path.join(directory, name)
    die, row_height, site_width, blockages = _read_scl(base + ".scl")
    netlist = Netlist(die, row_height, site_width, name=name)
    for rect in blockages:
        netlist.add_blockage(rect)
    _read_nodes(base + ".nodes", netlist)
    _read_pl(base + ".pl", netlist)
    _read_nets(base + ".nets", netlist)
    bounds = MoveBoundSet(die)
    if os.path.exists(base + ".mb"):
        bounds = _read_mb(base + ".mb", die)
    return netlist, bounds
