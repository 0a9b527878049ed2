"""Synthetic netlist generation.

Cells get *logical coordinates* in the unit square; nets connect small
groups of logically nearby cells (plus a tail of global nets), which
gives placements the locality structure real circuits have — placers
can actually win or lose wirelength on these instances, unlike on
uniform random hypergraphs.  Boundary pads anchor the QP.

The generator is deterministic in (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry import Rect
from repro.netlist import FIXED_PIN, Netlist


@dataclass
class NetlistSpec:
    """Parameters of a synthetic instance."""

    name: str
    num_cells: int
    utilization: float = 0.55  # movable area / free die area
    nets_per_cell: float = 1.1
    avg_degree: float = 3.4  # mean net degree (2-pin heavy)
    max_degree: int = 12
    global_net_fraction: float = 0.04
    num_pads: int = 32
    row_height: float = 1.0
    site_width: float = 0.25
    cell_widths: Tuple[float, ...] = (1.0, 1.0, 1.5, 2.0, 3.0)
    #: number of movable macros (mixed-size instances, cf. ISPD nb1)
    num_macros: int = 0
    macro_size: Tuple[float, float] = (8.0, 6.0)
    #: fixed blockages as fractions of the die (x, y, w, h)
    blockage_fracs: Tuple[Tuple[float, float, float, float], ...] = ()


def _sample_degrees(
    rng: np.random.Generator, n: int, avg: float, max_degree: int
) -> np.ndarray:
    """Net degrees >= 2 with the given mean: 2 + geometric tail."""
    p = 1.0 / max(avg - 1.0, 1.001)
    degrees = 2 + rng.geometric(p, size=n) - 1
    return np.clip(degrees, 2, max_degree)


def generate_netlist(
    spec: NetlistSpec, seed: int = 0
) -> Tuple[Netlist, np.ndarray]:
    """Build the netlist; returns ``(netlist, logical_xy)`` where
    ``logical_xy`` is the (n, 2) array of logical coordinates (the
    movebound generator clusters on them)."""
    rng = np.random.default_rng(seed)

    widths = rng.choice(spec.cell_widths, size=spec.num_cells)
    cell_area = float(np.sum(widths * spec.row_height))
    macro_area = spec.num_macros * spec.macro_size[0] * spec.macro_size[1]
    blocked_frac = sum(w * h for _x, _y, w, h in spec.blockage_fracs)
    die_area = (cell_area + macro_area) / spec.utilization / max(
        1.0 - blocked_frac, 0.1
    )
    side = math.sqrt(die_area)
    n_rows = max(int(round(side / spec.row_height)), 8)
    die = Rect(0.0, 0.0, side, n_rows * spec.row_height)

    netlist = Netlist(
        die,
        row_height=spec.row_height,
        site_width=spec.site_width,
        name=spec.name,
    )
    for x, y, w, h in spec.blockage_fracs:
        netlist.add_blockage(
            Rect(
                die.x_lo + x * die.width,
                die.y_lo + y * die.height,
                die.x_lo + (x + w) * die.width,
                die.y_lo + (y + h) * die.height,
            )
        )

    logical = rng.random((spec.num_cells, 2))
    xs = die.x_lo + logical[:, 0] * die.width
    ys = die.y_lo + logical[:, 1] * die.height
    netlist.add_cells(
        [f"c{i}" for i in range(spec.num_cells)],
        widths,
        spec.row_height,
        x=xs,
        y=ys,
    )
    macro_at = rng.random((spec.num_macros, 2))
    netlist.add_cells(
        [f"macro{m}" for m in range(spec.num_macros)],
        spec.macro_size[0],
        spec.macro_size[1],
        x=die.x_lo + macro_at[:, 0] * die.width,
        y=die.y_lo + macro_at[:, 1] * die.height,
    )

    # ------------------------------------------------------------------
    # nets: locality via a KD-tree on logical coordinates.
    # All randomness and neighbor lookups are batched — one KD-tree
    # query over every local seed and one RNG draw per decision array —
    # so a million-cell instance materializes in seconds instead of the
    # quadratic-ish per-net query loop this replaced.
    # ------------------------------------------------------------------
    num_nets = int(round(spec.num_cells * spec.nets_per_cell))
    degrees = _sample_degrees(rng, num_nets, spec.avg_degree, spec.max_degree)
    tree = cKDTree(logical)

    if num_nets and spec.num_cells >= 2:
        seeds = rng.integers(0, spec.num_cells, size=num_nets)
        is_global = rng.random(num_nets) < spec.global_net_fraction
        kmax = int(degrees.max(initial=2))
        qcount = min(kmax + 3, spec.num_cells)

        names: list = []
        member_lists: list = []

        # local nets: the (k+3)-nearest logical neighbors of each seed,
        # shuffled per net so members are a random subset of the
        # neighborhood rather than always the k nearest.  Nets are
        # extracted one degree class at a time, so member lists come
        # out of a single 2D ``tolist`` per class instead of a Python
        # slice per net.
        local_rows = np.nonzero(~is_global)[0]
        if len(local_rows):
            _d, nbr = tree.query(logical[seeds[local_rows]], k=qcount)
            nbr = np.atleast_2d(nbr)
            perm = rng.random(nbr.shape).argsort(axis=1)
            shuffled = np.take_along_axis(nbr, perm, axis=1)
            local_k = np.minimum(degrees[local_rows], qcount)
            for k in np.unique(local_k).tolist():
                rows = np.nonzero(local_k == k)[0]
                names.extend(
                    map("n{}".format, local_rows[rows].tolist())
                )
                member_lists.extend(shuffled[rows, :k].tolist())

        # global nets: sample with replacement, then dedupe per net —
        # for k << num_cells collisions are rare, and a net only
        # shrinks (never below 2) when they happen
        global_rows = np.nonzero(is_global)[0]
        if len(global_rows):
            draw = rng.integers(
                0, spec.num_cells, size=(len(global_rows), kmax)
            )
            for r, j in enumerate(global_rows.tolist()):
                members = np.unique(draw[r, : degrees[j]])
                if len(members) >= 2:
                    names.append(f"n{j}")
                    member_lists.append(members.tolist())
        netlist.add_nets_bulk(names, member_lists)

    # macros join a few local nets each, and boundary pads are fixed
    # terminals wired to the logically closest cells: center pins but
    # for the pad, whose offsets are its position
    names, member_lists, dx, dy = [], [], [], []
    for m in range(spec.num_macros):
        idx = spec.num_cells + m
        lx = (netlist.x[idx] - die.x_lo) / die.width
        ly = (netlist.y[idx] - die.y_lo) / die.height
        _d, near = tree.query((lx, ly), k=min(6, spec.num_cells))
        near = np.atleast_1d(near)
        names.append(f"mnet{m}")
        member_lists.append([idx] + near[:3].tolist())
        dx += [0.0] * len(member_lists[-1])
        dy += [0.0] * len(member_lists[-1])
    for p in range(spec.num_pads):
        t = p / max(spec.num_pads, 1)
        edge = p % 4
        if edge == 0:
            px, py = die.x_lo + t * die.width, die.y_lo
        elif edge == 1:
            px, py = die.x_hi, die.y_lo + t * die.height
        elif edge == 2:
            px, py = die.x_hi - t * die.width, die.y_hi
        else:
            px, py = die.x_lo, die.y_hi - t * die.height
        lx = (px - die.x_lo) / die.width
        ly = (py - die.y_lo) / die.height
        _d, near = tree.query((lx, ly), k=min(4, spec.num_cells))
        near = np.atleast_1d(near)
        names.append(f"pad{p}")
        member_lists.append([FIXED_PIN] + near[:2].tolist())
        dx += [px] + [0.0] * (len(member_lists[-1]) - 1)
        dy += [py] + [0.0] * (len(member_lists[-1]) - 1)
    netlist.add_nets_bulk(names, member_lists, offsets=(dx, dy))
    return netlist, logical
