"""Independent audit of a placed instance.  Shares no code with ``src/``.

It reads the Bookshelf-style files ``save_instance`` writes (``.nodes``,
``.nets``, ``.pl``, ``.scl``, ``.mb``) with its own parser and
recomputes everything the benchmark reports about a result:

* HPWL (pin offsets from cell centres, ``PAD`` pins at absolute
  coordinates, net weights);
* legality: out-of-die, off-row, off-site, on-blockage, overlap (one
  sorted sweep per row), movebound containment (inclusive: a bound's
  cells lie inside its area; exclusive: additionally nobody else does);
* ``max_bin_util``: movable area, by cell centre, over free area on a
  G x G grid sized so that a bin holds ``CELLS_PER_BIN`` movable cells on
  average (32 x 32 at 50k cells) — a solver-independent "is it spread"
  gauge in the density-map sense, not the flow model's window capacities.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

Rect = Tuple[float, float, float, float]  # x_lo, y_lo, x_hi, y_hi

EXTENSIONS = ("nodes", "nets", "pl", "scl", "mb")
TOL = 1e-6
#: violations that fail an op; a global-only placement is not legalized
#: and answers for ``out_of_die`` alone
LEGAL_CHECKS = (
    "out_of_die",
    "off_row",
    "off_site",
    "on_blockage",
    "overlaps",
    "movebound",
)
GLOBAL_CHECKS = ("out_of_die",)
CELLS_PER_BIN = 49


@dataclass
class Design:
    names: List[str]
    width: np.ndarray
    height: np.ndarray
    fixed: np.ndarray
    movebound: List[Optional[str]]
    x: np.ndarray
    y: np.ndarray
    die: Rect
    row_height: float
    site_width: float
    blockages: List[Rect]
    net_ptr: np.ndarray  # start of each net in the pin arrays
    net_weight: np.ndarray
    pin_cell: np.ndarray  # -1 = PAD
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    bounds: Dict[str, Tuple[str, List[Rect]]] = field(default_factory=dict)

    @property
    def movable(self) -> np.ndarray:
        return ~self.fixed


def read_design(directory: str, name: str) -> Design:
    base = os.path.join(directory, name)
    die: Optional[Rect] = None
    row_height = site_width = 1.0
    blockages: List[Rect] = []
    with open(base + ".scl") as f:
        for line in f:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "Die":
                die = tuple(float(v) for v in tok[1:5])
                row_height = float(tok[tok.index("RowHeight") + 1])
                site_width = float(tok[tok.index("SiteWidth") + 1])
            elif tok[0] == "Blockage":
                blockages.append(tuple(float(v) for v in tok[1:5]))
    if die is None:
        raise ValueError(f"{base}.scl has no Die line")

    names: List[str] = []
    width: List[float] = []
    height: List[float] = []
    fixed: List[bool] = []
    movebound: List[Optional[str]] = []
    with open(base + ".nodes") as f:
        for line in f:
            tok = line.split()
            if not tok or tok[0] == "NumNodes":
                continue
            names.append(tok[0])
            width.append(float(tok[1]))
            height.append(float(tok[2]))
            fixed.append("terminal" in tok[3:])
            bound = [t[len("movebound="):] for t in tok[3:] if t.startswith("movebound=")]
            movebound.append(bound[0] if bound else None)
    index = {n: i for i, n in enumerate(names)}

    x = np.full(len(names), (die[0] + die[2]) / 2)
    y = np.full(len(names), (die[1] + die[3]) / 2)
    with open(base + ".pl") as f:
        for line in f:
            tok = line.split()
            if len(tok) == 3:
                i = index[tok[0]]
                x[i], y[i] = float(tok[1]), float(tok[2])

    net_ptr: List[int] = []
    net_weight: List[float] = []
    pin_cell: List[int] = []
    pin_dx: List[float] = []
    pin_dy: List[float] = []
    with open(base + ".nets") as f:
        for line in f:
            tok = line.split()
            if not tok or tok[0] == "NumNets":
                continue
            if tok[0] == "NetDegree":
                net_ptr.append(len(pin_cell))
                net_weight.append(float(tok[4]) if len(tok) > 4 else 1.0)
            else:
                pin_cell.append(-1 if tok[0] == "PAD" else index[tok[0]])
                pin_dx.append(float(tok[2]))
                pin_dy.append(float(tok[3]))

    bounds: Dict[str, Tuple[str, List[Rect]]] = {}
    if os.path.exists(base + ".mb"):
        with open(base + ".mb") as f:
            for line in f:
                tok = line.split()
                if len(tok) < 6:
                    continue
                coords = [float(v) for v in tok[2:]]
                bounds[tok[0]] = (
                    tok[1],
                    [tuple(coords[i : i + 4]) for i in range(0, len(coords), 4)],
                )
    return Design(
        names=names,
        width=np.array(width),
        height=np.array(height),
        fixed=np.array(fixed, dtype=bool),
        movebound=movebound,
        x=x,
        y=y,
        die=die,
        row_height=row_height,
        site_width=site_width,
        blockages=blockages,
        net_ptr=np.array(net_ptr, dtype=np.int64),
        net_weight=np.array(net_weight),
        pin_cell=np.array(pin_cell, dtype=np.int64),
        pin_dx=np.array(pin_dx),
        pin_dy=np.array(pin_dy),
        bounds=bounds,
    )


def hpwl(d: Design) -> float:
    """Weighted half-perimeter wirelength of the positions in ``d``."""
    if len(d.pin_cell) == 0:
        return 0.0
    on_cell = d.pin_cell >= 0
    px = np.where(on_cell, d.x[d.pin_cell] + d.pin_dx, d.pin_dx)
    py = np.where(on_cell, d.y[d.pin_cell] + d.pin_dy, d.pin_dy)
    ends = np.append(d.net_ptr[1:], len(d.pin_cell))
    nonempty = ends > d.net_ptr
    ptr = d.net_ptr[nonempty]
    span = (
        np.maximum.reduceat(px, ptr)
        - np.minimum.reduceat(px, ptr)
        + np.maximum.reduceat(py, ptr)
        - np.minimum.reduceat(py, ptr)
    )
    return float(np.dot(d.net_weight[nonempty], span))


def _edges(d: Design):
    return (
        d.x - d.width / 2,
        d.y - d.height / 2,
        d.x + d.width / 2,
        d.y + d.height / 2,
    )


def _overlap_area(xl, yl, xh, yh, rect: Rect) -> np.ndarray:
    w = np.minimum(xh, rect[2]) - np.maximum(xl, rect[0])
    h = np.minimum(yh, rect[3]) - np.maximum(yl, rect[1])
    return np.where((w > 0) & (h > 0), w * h, 0.0)


def _disjoint(rects: List[Rect]) -> List[Rect]:
    """The union of ``rects`` as disjoint pieces (coordinate grid)."""
    xs = sorted({v for r in rects for v in (r[0], r[2])})
    ys = sorted({v for r in rects for v in (r[1], r[3])})
    pieces = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            if any(r[0] <= cx <= r[2] and r[1] <= cy <= r[3] for r in rects):
                pieces.append((x0, y0, x1, y1))
    return pieces


def count_overlaps(d: Design) -> int:
    """Cells overlapping an earlier cell of their row: every cell is
    entered into each row it touches, each row is swept by ``x_lo``
    against the running maximum of ``x_hi``."""
    xl, yl, xh, yh = _edges(d)
    h = d.row_height
    first = np.floor((yl - d.die[1]) / h + 1e-4).astype(np.int64)
    last = np.ceil((yh - d.die[1]) / h - 1e-4).astype(np.int64)
    rows_of = np.maximum(last - first, 1)
    cell = np.repeat(np.arange(len(d.names)), rows_of)
    row = np.repeat(first, rows_of) + (
        np.arange(rows_of.sum()) - np.repeat(np.cumsum(rows_of) - rows_of, rows_of)
    )
    order = np.lexsort((xl[cell], row))
    cell, row = cell[order], row[order]
    # shift every row into its own x range so one accumulate serves all
    stride = 4.0 * (d.die[2] - d.die[0] + float(d.width.max(initial=0.0)) + 1.0)
    lo = xl[cell] + (row - row.min(initial=0)) * stride
    hi = xh[cell] + (row - row.min(initial=0)) * stride
    reach = np.maximum.accumulate(hi)
    hit = lo[1:] < reach[:-1] - TOL
    # two fixed cells may overlap by construction of the input
    both_fixed = d.fixed[cell[1:]] & d.fixed[cell[:-1]]
    return int(np.count_nonzero(hit & ~both_fixed))


def count_movebound_violations(d: Design) -> int:
    xl, yl, xh, yh = _edges(d)
    area = d.width * d.height
    bad = np.zeros(len(d.names), dtype=bool)
    owner = np.array([m if m is not None else "" for m in d.movebound])
    for name in set(owner[d.movable].tolist()) - {""}:
        members = d.movable & (owner == name)
        if name not in d.bounds:
            bad |= members
            continue
        cover = np.zeros(len(d.names))
        for piece in _disjoint(d.bounds[name][1]):
            cover += _overlap_area(xl, yl, xh, yh, piece)
        bad |= members & (cover < area - 1e-9 * np.maximum(area, 1.0))
    for name, (kind, rects) in d.bounds.items():
        if kind != "exclusive":
            continue
        foreign = d.movable & (owner != name)
        for piece in _disjoint(rects):
            inside = _overlap_area(xl, yl, xh, yh, piece)
            bad |= foreign & (inside > 1e-9 * np.maximum(area, 1.0))
    return int(np.count_nonzero(bad))


def violations(d: Design) -> Dict[str, int]:
    xl, yl, xh, yh = _edges(d)
    mov = d.movable
    out = {
        "out_of_die": int(
            np.count_nonzero(
                mov
                & (
                    (xl < d.die[0] - TOL)
                    | (yl < d.die[1] - TOL)
                    | (xh > d.die[2] + TOL)
                    | (yh > d.die[3] + TOL)
                )
            )
        )
    }
    std = mov & (d.height <= d.row_height + TOL)
    k = (yl[std] - d.die[1]) / d.row_height
    out["off_row"] = int(np.count_nonzero(np.abs(k - np.round(k)) > 1e-4))
    s = (xl[mov] - d.die[0]) / d.site_width
    out["off_site"] = int(np.count_nonzero(np.abs(s - np.round(s)) > 1e-4))
    blocked = np.zeros(len(d.names))
    for rect in d.blockages:
        blocked += _overlap_area(xl, yl, xh, yh, rect)
    area = d.width * d.height
    out["on_blockage"] = int(
        np.count_nonzero(mov & (blocked > TOL * np.maximum(area, 1.0)))
    )
    out["overlaps"] = count_overlaps(d)
    out["movebound"] = count_movebound_violations(d)
    return out


def max_bin_util(d: Design, grid: Optional[int] = None) -> float:
    """Peak over a ``grid`` x ``grid`` map of movable area (by cell
    centre) over the bin's free area (bin minus blockages and fixed
    cells)."""
    if grid is None:
        grid = max(2, int(round((np.count_nonzero(d.movable) / CELLS_PER_BIN) ** 0.5)))
    x_lo, y_lo, x_hi, y_hi = d.die
    bw, bh = (x_hi - x_lo) / grid, (y_hi - y_lo) / grid
    mov = d.movable
    ix = np.clip(((d.x[mov] - x_lo) / bw).astype(np.int64), 0, grid - 1)
    iy = np.clip(((d.y[mov] - y_lo) / bh).astype(np.int64), 0, grid - 1)
    used = np.zeros((grid, grid))
    np.add.at(used, (ix, iy), (d.width * d.height)[mov])
    obstacles = list(d.blockages)
    xl, yl, xh, yh = _edges(d)
    obstacles += [
        (xl[i], yl[i], xh[i], yh[i]) for i in np.nonzero(d.fixed)[0].tolist()
    ]
    bx = x_lo + bw * np.arange(grid)
    by = y_lo + bh * np.arange(grid)
    free = np.full((grid, grid), bw * bh)
    for r in obstacles:
        w = np.clip(np.minimum(bx + bw, r[2]) - np.maximum(bx, r[0]), 0.0, None)
        h = np.clip(np.minimum(by + bh, r[3]) - np.maximum(by, r[1]), 0.0, None)
        free -= np.outer(w, h)
    usable = free > 1e-9 * bw * bh
    return float(np.max(used[usable] / free[usable])) if usable.any() else 0.0


@dataclass
class AuditReport:
    hpwl: float
    max_bin_util: float
    violations: Dict[str, int]
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def audit(
    directory: str,
    name: str,
    legalized: bool,
    reported_hpwl: Optional[float],
    hpwl_abs_tol: float = 0.0,
    reported_legal: Optional[bool] = None,
) -> AuditReport:
    """Audit one written result against what the program said about
    it.  ``hpwl_abs_tol`` covers a reported HPWL that was rounded for
    printing; the relative tolerance is 1e-6."""
    d = read_design(directory, name)
    found = violations(d)
    own_hpwl = hpwl(d)
    checks = LEGAL_CHECKS if legalized else GLOBAL_CHECKS
    problems = [f"{c}={found[c]}" for c in checks if found[c]]
    if reported_hpwl is None:
        problems.append("program reported no HPWL")
    elif abs(own_hpwl - reported_hpwl) > 1e-6 * abs(own_hpwl) + hpwl_abs_tol:
        problems.append(
            f"HPWL disagrees: audit {own_hpwl!r} vs program {reported_hpwl!r}"
        )
    if legalized and reported_legal is not None:
        audit_legal = not any(found[c] for c in LEGAL_CHECKS)
        if audit_legal != reported_legal:
            problems.append(
                f"legality disagrees: audit {audit_legal} vs program {reported_legal}"
            )
    return AuditReport(own_hpwl, max_bin_util(d), found, problems)


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fingerprint(directory: str, names: List[str]) -> str:
    """sha256 over every input file of the named instances."""
    digest = hashlib.sha256()
    for name in names:
        for ext in EXTENSIONS:
            path = os.path.join(directory, f"{name}.{ext}")
            if os.path.exists(path):
                digest.update(f"{name}.{ext}:{file_sha256(path)}\n".encode())
    return digest.hexdigest()
