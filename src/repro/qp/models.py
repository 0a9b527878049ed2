"""Net models: assembly of the per-axis quadratic system.

For one axis, the energy is

    E(x) = sum_springs w * (x_i + o_i - x_j - o_j)^2  +  anchors,

where each spring connects two pins with offsets o from their cell
centers; fixed cells and terminals contribute to the right-hand side.
Minimizing E gives the SPD linear system ``A x = b`` assembled here in
COO form.

Models
------
clique
    Every pin pair of a degree-p net gets weight ``w_net / (p - 1)``.
star
    One auxiliary unknown per net, edge weight ``w_net * p / (p - 1)``;
    by the star-mesh identity this is *exactly* the clique model after
    eliminating the star node (a tested invariant).
hybrid
    clique for p <= 3, star otherwise — the usual practical choice.
b2b
    Bound2Bound (Kraftwerk2): per axis, each pin connects to the two
    extreme pins of the net with weight ``w_net * 2 / ((p-1) * dist)``.
    The model linearizes HPWL around the current placement, so it
    requires current positions and is rebuilt every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from repro.netlist import Net, Netlist, flat_pin_arrays

NET_MODELS = ("clique", "star", "hybrid", "b2b")

#: Minimum pin separation used in B2B weights to avoid division blowup.
B2B_MIN_DIST = 1e-3


@dataclass
class AxisSystem:
    """Sparse SPD system for one axis, over movable + auxiliary unknowns."""

    matrix: csr_matrix
    rhs: np.ndarray
    #: unknown index of each movable cell (cell index -> column), -1 if fixed
    unknown_of_cell: np.ndarray
    num_cell_unknowns: int

    def energy(self, solution: np.ndarray) -> float:
        """Quadratic form value 0.5 x^T A x - b^T x (for monotonicity tests)."""
        return float(
            0.5 * solution @ (self.matrix @ solution) - self.rhs @ solution
        )


class _Builder:
    """COO accumulator for one axis."""

    def __init__(self, n_unknowns: int) -> None:
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[float] = []
        self.rhs = np.zeros(n_unknowns)
        self.n = n_unknowns

    def add_spring(
        self,
        iu: int,
        ju: int,
        i_const: float,
        j_const: float,
        w: float,
    ) -> None:
        """Spring w * ((x_iu + i_const) - (x_ju + j_const))^2.

        ``iu``/``ju`` are unknown indices or -1 for fixed ends, in which
        case the corresponding ``*_const`` is the absolute pin position.
        """
        if w <= 0:
            return
        if iu >= 0 and ju >= 0:
            self.rows += [iu, ju, iu, ju]
            self.cols += [iu, ju, ju, iu]
            self.vals += [w, w, -w, -w]
            self.rhs[iu] += w * (j_const - i_const)
            self.rhs[ju] += w * (i_const - j_const)
        elif iu >= 0:
            self.rows.append(iu)
            self.cols.append(iu)
            self.vals.append(w)
            self.rhs[iu] += w * (j_const - i_const)
        elif ju >= 0:
            self.rows.append(ju)
            self.cols.append(ju)
            self.vals.append(w)
            self.rhs[ju] += w * (i_const - j_const)
        # both fixed: constant energy, ignore

    def add_anchor(self, iu: int, target: float, w: float) -> None:
        """Anchor spring w * (x_iu - target)^2."""
        if iu < 0 or w <= 0:
            return
        self.rows.append(iu)
        self.cols.append(iu)
        self.vals.append(w)
        self.rhs[iu] += w * target

    def finish(self) -> Tuple[csr_matrix, np.ndarray]:
        a = coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n, self.n)
        ).tocsr()
        return a, self.rhs


@dataclass
class _AxisSkeleton:
    """Axis-independent assembly state captured from one axis.

    For the clique/star/hybrid models the sparsity pattern *and* the
    matrix values are the same for x and y: spring endpoints and
    weights come from the netlist topology alone, and the per-axis
    data (pin offsets, current positions, anchor targets) feeds only
    the right-hand side.  Capturing the endpoint/weight arrays, the
    pin-index provenance of each spring end and the finished CSR
    matrix on the first axis lets the second axis skip the whole
    selection/concatenation/COO-to-CSR pipeline and just re-derive the
    rhs — gathering the identical values through identical index
    arrays, so the result is bit-for-bit what a full assembly emits.

    Anchors are the one axis-coupled matrix term: each applied anchor
    adds ``w`` on the diagonal at its unknown.  ``anchor_cols`` records
    the applied ``(unknown, weight)`` pairs; the skeleton is only
    reused when the other axis's anchors produce the same pairs (their
    targets may differ freely — targets are rhs-only).
    """

    matrix: csr_matrix
    ai: np.ndarray
    aj: np.ndarray
    aw: np.ndarray
    pos_i: np.ndarray
    pos_j: np.ndarray
    #: pin index feeding each spring end's constant (-1 = star center,
    #: whose constant is identically 0.0)
    pi_idx: np.ndarray
    pj_idx: np.ndarray
    cell_ix: np.ndarray
    fixed_pin: np.ndarray
    unknown_of_cell: np.ndarray
    movable_indices: np.ndarray
    n_unknowns: int
    n_cells: int
    anchor_cols: tuple
    regularization: float
    #: resolved (off_x, off_y) flat offset arrays
    off_xy: tuple


def _axis_system_from_skeleton(
    sk: _AxisSkeleton,
    axis: int,
    positions: np.ndarray,
    anchors: Optional[Sequence[Tuple[int, float, float]]],
) -> Optional[AxisSystem]:
    """Second-axis assembly from a captured skeleton: matrix reused,
    rhs re-derived with this axis's offsets/positions/anchor targets.
    Returns None when the anchors' diagonal structure differs from the
    captured axis (the matrix then can't be shared)."""
    applied = []
    if anchors:
        for cell_index, target, w in anchors:
            iu = int(sk.unknown_of_cell[cell_index])
            if iu >= 0 and w > 0:
                applied.append((iu, float(w)))
    if tuple(applied) != sk.anchor_cols:
        return None
    off = sk.off_xy[axis]
    const_pin = np.where(sk.fixed_pin, positions[sk.cell_ix] + off, off)
    aic = const_pin[sk.pi_idx]
    ajc = np.where(
        sk.pj_idx >= 0, const_pin[np.maximum(sk.pj_idx, 0)], 0.0
    )
    rhs = np.zeros(sk.n_unknowns)
    np.add.at(rhs, sk.ai[sk.pos_i], (sk.aw * (ajc - aic))[sk.pos_i])
    np.add.at(rhs, sk.aj[sk.pos_j], (sk.aw * (aic - ajc))[sk.pos_j])
    if anchors:
        for cell_index, target, w in anchors:
            iu = int(sk.unknown_of_cell[cell_index])
            if iu >= 0 and w > 0:
                rhs[iu] += w * target
    if sk.regularization > 0:
        rhs[: sk.n_cells] += (
            sk.regularization * positions[sk.movable_indices]
        )
    return AxisSystem(sk.matrix, rhs, sk.unknown_of_cell, sk.n_cells)


def _fast_axis_system(
    netlist: Netlist,
    axis: int,
    model: str,
    positions: np.ndarray,
    unknown_of_cell: np.ndarray,
    movable_indices: np.ndarray,
    anchors: Optional[Sequence[Tuple[int, float, float]]],
    regularization: float,
    nets: Optional[Sequence[Net]] = None,
    flat: Optional[tuple] = None,
    skeleton_out: Optional[list] = None,
) -> AxisSystem:
    """Vectorized assembly over flat pin arrays.

    Covers the clique/star/hybrid models — the netlist's cached arrays
    for the global QP, a one-pass subset extraction for local QPs; emits
    the same springs as the scalar builder, so the two paths assemble
    the same quadratic form.  ``flat`` lets a caller solving both axes
    share one subset extraction (the arrays are position-independent).
    ``skeleton_out`` (a one-element list) additionally captures an
    ``_AxisSkeleton`` so the caller can assemble the *other* axis
    without redoing the axis-independent work.
    """
    if flat is not None:
        ptr, pin_cell, off_x, off_y, weights = flat
    elif nets is None:
        ptr, pin_cell, off_x, off_y, weights = netlist.pin_arrays()
    else:
        ptr, pin_cell, off_x, off_y, weights = flat_pin_arrays(nets)
    n_nets = len(weights)
    n_cells = len(movable_indices)
    n_pins = len(pin_cell)
    counts = np.empty(n_nets, dtype=np.int64)
    if n_nets:
        counts[:-1] = np.diff(ptr)
        counts[-1] = n_pins - ptr[-1]

    off = off_x if axis == 0 else off_y
    cell_ix = np.maximum(pin_cell, 0)
    on_cell = pin_cell >= 0
    iu_pin = np.where(on_cell, unknown_of_cell[cell_ix], -1)
    fixed_pin = on_cell & (iu_pin < 0)
    const_pin = np.where(fixed_pin, positions[cell_ix] + off, off)
    net_of_pin = np.repeat(np.arange(n_nets), counts)
    if n_nets:
        active = np.maximum.reduceat(iu_pin, ptr) >= 0
    else:
        active = np.zeros(0, dtype=bool)

    if model == "star":
        star_mask = np.ones(n_nets, dtype=bool)
    elif model == "hybrid":
        star_mask = counts > 3
    else:
        star_mask = np.zeros(n_nets, dtype=bool)
    star_rank = np.cumsum(star_mask) - 1
    su_net = np.where(star_mask, n_cells + star_rank, -1)
    n_unknowns = n_cells + int(star_mask.sum() if n_nets else 0)

    si: List[np.ndarray] = []
    sj: List[np.ndarray] = []
    sic: List[np.ndarray] = []
    sjc: List[np.ndarray] = []
    sw: List[np.ndarray] = []
    capture = skeleton_out is not None
    # pin-index provenance of each spring end (for skeleton reuse):
    # mirrors the sic/sjc appends index for index, -1 marking a star
    # center whose constant is identically 0.0
    sii: List[np.ndarray] = []
    sjj: List[np.ndarray] = []

    pin_sel = star_mask[net_of_pin] & active[net_of_pin]
    if pin_sel.any():
        w_star = weights * counts / (counts - 1)
        si.append(iu_pin[pin_sel])
        sj.append(su_net[net_of_pin][pin_sel])
        sic.append(const_pin[pin_sel])
        sjc.append(np.zeros(int(pin_sel.sum())))
        sw.append(w_star[net_of_pin][pin_sel])
        if capture:
            idx = np.nonzero(pin_sel)[0]
            sii.append(idx)
            sjj.append(np.full(len(idx), -1, dtype=np.int64))

    cl_mask = active & ~star_mask
    w_cl = weights / np.maximum(counts - 1, 1)
    p2 = cl_mask & (counts == 2)
    if p2.any():
        s = ptr[p2]
        si.append(iu_pin[s])
        sj.append(iu_pin[s + 1])
        sic.append(const_pin[s])
        sjc.append(const_pin[s + 1])
        sw.append(w_cl[p2])
        if capture:
            sii.append(s)
            sjj.append(s + 1)
    p3 = cl_mask & (counts == 3)
    if p3.any():
        s = ptr[p3]
        a = np.concatenate([s, s, s + 1])
        b = np.concatenate([s + 1, s + 2, s + 2])
        si.append(iu_pin[a])
        sj.append(iu_pin[b])
        sic.append(const_pin[a])
        sjc.append(const_pin[b])
        sw.append(np.tile(w_cl[p3], 3))
        if capture:
            sii.append(a)
            sjj.append(b)
    pbig = np.nonzero(cl_mask & (counts > 3))[0]
    for ni in pbig:  # clique model on a big net: rare, scalar pairs
        s, p = int(ptr[ni]), int(counts[ni])
        a, b = np.triu_indices(p, k=1)
        si.append(iu_pin[s + a])
        sj.append(iu_pin[s + b])
        sic.append(const_pin[s + a])
        sjc.append(const_pin[s + b])
        sw.append(np.full(len(a), w_cl[ni]))
        if capture:
            sii.append(s + a)
            sjj.append(s + b)

    if si:
        ai = np.concatenate(si)
        aj = np.concatenate(sj)
        aic = np.concatenate(sic)
        ajc = np.concatenate(sjc)
        aw = np.concatenate(sw)
        keep = aw > 0
        ai, aj, aic, ajc, aw = (
            ai[keep], aj[keep], aic[keep], ajc[keep], aw[keep]
        )
        if capture:
            pi_idx = np.concatenate(sii)[keep]
            pj_idx = np.concatenate(sjj)[keep]
    else:
        ai = aj = np.zeros(0, dtype=np.int64)
        aic = ajc = aw = np.zeros(0)
        if capture:
            pi_idx = pj_idx = np.zeros(0, dtype=np.int64)

    pos_i = ai >= 0
    pos_j = aj >= 0
    both = pos_i & pos_j
    rows = [ai[both], aj[both], ai[both], aj[both]]
    cols = [ai[both], aj[both], aj[both], ai[both]]
    w_b = aw[both]
    vals = [w_b, w_b, -w_b, -w_b]
    i_only = pos_i & ~pos_j
    j_only = pos_j & ~pos_i
    rows += [ai[i_only], aj[j_only]]
    cols += [ai[i_only], aj[j_only]]
    vals += [aw[i_only], aw[j_only]]
    rhs = np.zeros(n_unknowns)
    np.add.at(rhs, ai[pos_i], (aw * (ajc - aic))[pos_i])
    np.add.at(rhs, aj[pos_j], (aw * (aic - ajc))[pos_j])

    extra_r: List[int] = []
    extra_v: List[float] = []
    if anchors:
        for cell_index, target, w in anchors:
            iu = int(unknown_of_cell[cell_index])
            if iu >= 0 and w > 0:
                extra_r.append(iu)
                extra_v.append(w)
                rhs[iu] += w * target
    if regularization > 0:
        rows.append(np.arange(n_unknowns, dtype=np.int64))
        cols.append(np.arange(n_unknowns, dtype=np.int64))
        vals.append(np.full(n_unknowns, regularization))
        rhs[:n_cells] += regularization * positions[movable_indices]
    if extra_r:
        rows.append(np.asarray(extra_r, dtype=np.int64))
        cols.append(np.asarray(extra_r, dtype=np.int64))
        vals.append(np.asarray(extra_v))

    matrix = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknowns, n_unknowns),
    ).tocsr()
    if capture:
        skeleton_out[0] = _AxisSkeleton(
            matrix=matrix,
            ai=ai,
            aj=aj,
            aw=aw,
            pos_i=pos_i,
            pos_j=pos_j,
            pi_idx=pi_idx,
            pj_idx=pj_idx,
            cell_ix=cell_ix,
            fixed_pin=fixed_pin,
            unknown_of_cell=unknown_of_cell,
            movable_indices=movable_indices,
            n_unknowns=n_unknowns,
            n_cells=n_cells,
            anchor_cols=tuple(zip(extra_r, extra_v)),
            regularization=regularization,
            off_xy=(off_x, off_y),
        )
    return AxisSystem(matrix, rhs, unknown_of_cell, n_cells)


def _pin_endpoint(
    netlist: Netlist,
    pin,
    axis: int,
    unknown_of_cell: np.ndarray,
    positions: np.ndarray,
) -> Tuple[int, float]:
    """(unknown index or -1, constant part) of a pin along one axis."""
    offset = pin.offset_x if axis == 0 else pin.offset_y
    if pin.is_fixed_terminal:
        return -1, offset  # terminal offsets *are* absolute coordinates
    iu = int(unknown_of_cell[pin.cell_index])
    if iu >= 0:
        return iu, offset
    return -1, positions[pin.cell_index] + offset


def build_axis_system(
    netlist: Netlist,
    axis: int,
    model: str = "hybrid",
    movable_mask: Optional[np.ndarray] = None,
    anchors: Optional[Sequence[Tuple[int, float, float]]] = None,
    regularization: float = 1e-8,
    nets: Optional[Sequence[Net]] = None,
    flat: Optional[tuple] = None,
) -> AxisSystem:
    """Assemble the quadratic system of one axis (0 = x, 1 = y).

    Parameters
    ----------
    movable_mask:
        Boolean per-cell mask of unknowns.  Defaults to the netlist's
        non-fixed cells; local QP passes the cells of the coarse window.
    anchors:
        Optional ``(cell_index, target, weight)`` pseudo-nets.
    regularization:
        Tiny diagonal term anchoring each unknown at its current
        position, guaranteeing positive definiteness even for cells
        with no path to a fixed pin.
    nets:
        Restrict assembly to these nets (local QP passes only the nets
        incident to the coarse window).  Defaults to all nets.
    flat:
        Optional precomputed ``flat_pin_arrays(nets)`` result so a
        caller assembling both axes extracts the subset only once.
    """
    if model not in NET_MODELS:
        raise ValueError(f"unknown net model {model!r}")
    positions = netlist.x if axis == 0 else netlist.y
    if movable_mask is None:
        movable_mask = ~netlist.fixed_mask
    else:
        movable_mask = np.asarray(movable_mask, dtype=bool)
        if movable_mask.shape != (netlist.num_cells,):
            raise ValueError("movable_mask must cover all cells")

    unknown_of_cell = np.full(netlist.num_cells, -1, dtype=np.int64)
    movable_indices = np.nonzero(movable_mask)[0]
    unknown_of_cell[movable_indices] = np.arange(len(movable_indices))
    n_cells = len(movable_indices)

    if model != "b2b":
        return _fast_axis_system(
            netlist,
            axis,
            model,
            positions,
            unknown_of_cell,
            movable_indices,
            anchors,
            regularization,
            nets=nets,
            flat=flat,
        )

    # b2b: weights depend on the current positions, assembled net by net
    net_list = netlist.nets if nets is None else list(nets)
    builder = _Builder(n_cells)
    for net in net_list:
        p = net.degree
        if p < 2:
            continue
        ends = [
            _pin_endpoint(netlist, pin, axis, unknown_of_cell, positions)
            for pin in net.pins
        ]
        if all(iu < 0 for iu, _ in ends):
            continue
        coords = [
            positions[movable_indices[iu]] + const if iu >= 0 else const
            for iu, const in ends
        ]
        lo = int(np.argmin(coords))
        hi = int(np.argmax(coords))
        if lo == hi:
            hi = (lo + 1) % p
        for b in (lo, hi):
            for i in range(p):
                if i == b or (b == hi and i == lo):
                    continue  # lo-hi pair added once (when b == lo)
                dist = max(abs(coords[i] - coords[b]), B2B_MIN_DIST)
                w = net.weight * 2.0 / ((p - 1) * dist)
                builder.add_spring(
                    ends[i][0], ends[b][0], ends[i][1], ends[b][1], w
                )

    if anchors:
        for cell_index, target, w in anchors:
            builder.add_anchor(int(unknown_of_cell[cell_index]), target, w)

    if regularization > 0:
        for iu, ci in enumerate(movable_indices):
            builder.add_anchor(iu, positions[ci], regularization)

    matrix, rhs = builder.finish()
    return AxisSystem(matrix, rhs, unknown_of_cell, n_cells)


def build_axis_systems_xy(
    netlist: Netlist,
    model: str = "hybrid",
    movable_mask: Optional[np.ndarray] = None,
    anchors_x: Optional[Sequence[Tuple[int, float, float]]] = None,
    anchors_y: Optional[Sequence[Tuple[int, float, float]]] = None,
    regularization: float = 1e-8,
    nets: Optional[Sequence[Net]] = None,
    flat: Optional[tuple] = None,
) -> Tuple[AxisSystem, AxisSystem]:
    """Assemble both axis systems, sharing the matrix across axes.

    For the position-independent models (clique/star/hybrid) the x and
    y matrices are the same object: spring endpoints and weights come
    from the topology, anchors contribute per-axis *targets* to the
    rhs but the same ``(unknown, weight)`` diagonal entries whenever
    the caller anchors the same cells with the same weights on both
    axes (every placer here does).  The x assembly captures an
    ``_AxisSkeleton``; the y system is then just a fresh rhs over the
    shared matrix — bit-identical to two independent assemblies, at
    roughly half the cost.  B2B (position-dependent weights) and
    mismatched anchor structures fall back to two full assemblies.
    """
    if model == "b2b":
        return (
            build_axis_system(
                netlist, 0, model=model, movable_mask=movable_mask,
                anchors=anchors_x, regularization=regularization,
                nets=nets, flat=flat,
            ),
            build_axis_system(
                netlist, 1, model=model, movable_mask=movable_mask,
                anchors=anchors_y, regularization=regularization,
                nets=nets, flat=flat,
            ),
        )
    if model not in NET_MODELS:
        raise ValueError(f"unknown net model {model!r}")
    if movable_mask is None:
        movable_mask = ~netlist.fixed_mask
    else:
        movable_mask = np.asarray(movable_mask, dtype=bool)
        if movable_mask.shape != (netlist.num_cells,):
            raise ValueError("movable_mask must cover all cells")
    unknown_of_cell = np.full(netlist.num_cells, -1, dtype=np.int64)
    movable_indices = np.nonzero(movable_mask)[0]
    unknown_of_cell[movable_indices] = np.arange(len(movable_indices))

    sk_out: list = [None]
    sys_x = _fast_axis_system(
        netlist, 0, model, netlist.x, unknown_of_cell, movable_indices,
        anchors_x, regularization, nets=nets, flat=flat,
        skeleton_out=sk_out,
    )
    sys_y = _axis_system_from_skeleton(
        sk_out[0], 1, netlist.y, anchors_y
    )
    if sys_y is None:  # anchor diagonal structure differs across axes
        sys_y = _fast_axis_system(
            netlist, 1, model, netlist.y, unknown_of_cell,
            movable_indices, anchors_y, regularization, nets=nets,
            flat=flat,
        )
    return sys_x, sys_y
