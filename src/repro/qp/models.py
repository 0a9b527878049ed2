"""Net models: assembly of the quadratic system of both axes.

For one axis, the energy is

    E(x) = sum_springs w * (x_i + o_i - x_j - o_j)^2  +  anchors,

where each spring connects two pins with offsets o from their cell
centers; fixed cells and terminals contribute to the right-hand side.
Minimizing E gives the SPD linear system ``A x = b`` assembled here
from COO triplets into a :class:`CSR` record.

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

Every model is assembled from the flat pin arrays
(:meth:`Netlist.pin_arrays`): one set of springs, one matrix and one
right-hand side per axis.  Except under b2b, spring endpoints and
weights come from the topology alone, so the x and y systems share one
matrix object and differ only in the rhs.

The matrices are :class:`CSR` records built and multiplied by scipy's
``_sparsetools`` kernels, loaded by file on import (no scipy package),
and bit-identical to scipy's (``tests/test_qp_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.scipy_ext import load_extension

_sparsetools = load_extension(
    "scipy.sparse._sparsetools",
    "the QP runs on scipy's compiled sparse kernels",
)

NET_MODELS = ("clique", "star", "hybrid", "b2b")

#: Minimum pin separation used in B2B weights to avoid division blowup.
B2B_MIN_DIST = 1e-3


@dataclass(frozen=True)
class CSR:
    """A sparse matrix in compressed sparse row form, in scipy's layout
    (``csr_matrix((data, indices, indptr), shape)``)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"cannot multiply {self.shape} by {np.shape(x)}")
        y = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(
            *self.shape, self.indptr, self.indices, self.data, x, y
        )
        return y

    def diagonal(self) -> np.ndarray:
        y = np.empty(min(self.shape))
        _sparsetools.csr_diagonal(
            0, *self.shape, self.indptr, self.indices, self.data, y
        )
        return y

    def tocsc(self) -> "CSR":
        """The matrix's CSC arrays, which are the CSR arrays of its
        transpose (hence the swapped shape)."""
        m, n = self.shape
        indptr = np.empty(n + 1, dtype=self.indptr.dtype)
        indices = np.empty(self.nnz, dtype=self.indices.dtype)
        data = np.empty(self.nnz)
        _sparsetools.csr_tocsc(
            m, n, self.indptr, self.indices, self.data, indptr, indices, data
        )
        return CSR(indptr, indices, data, (n, m))


@dataclass
class AxisSystem:
    """Sparse SPD system for one axis, over movable + auxiliary unknowns."""

    matrix: CSR
    rhs: np.ndarray
    #: unknown index of each movable cell (cell index -> column), -1 if fixed
    unknown_of_cell: np.ndarray
    num_cell_unknowns: int

    def energy(self, solution: np.ndarray) -> float:
        """Quadratic form value 0.5 x^T A x - b^T x (for monotonicity tests)."""
        return float(
            0.5 * solution @ (self.matrix @ solution) - self.rhs @ solution
        )


@dataclass
class _Pins:
    """The assembly's view of the flat pin arrays: one row per net."""

    ptr: np.ndarray
    counts: np.ndarray
    weights: np.ndarray
    net_of_pin: np.ndarray
    #: unknown of each pin's cell, -1 for fixed cells and terminals
    iu_pin: np.ndarray
    #: nets with at least one movable pin (the others are constant)
    active: np.ndarray


@dataclass
class _Springs:
    """Springs ``w * ((x_ui + c_i) - (x_uj + c_j))^2``.

    ``ui`` / ``uj`` are unknown indices, -1 for a fixed end; ``pi`` /
    ``pj`` are the pins whose constants ``c`` they carry, -1 marking a
    star center (constant 0.0)."""

    ui: np.ndarray
    uj: np.ndarray
    w: np.ndarray
    pi: np.ndarray
    pj: np.ndarray


def _topology_springs(
    model: str, pins: _Pins, n_cells: int
) -> Tuple[_Springs, int]:
    """Springs of the clique / star / hybrid models and the number of
    unknowns (cells plus star centers)."""
    counts, ptr, net_of_pin, iu_pin = (
        pins.counts, pins.ptr, pins.net_of_pin, pins.iu_pin
    )
    if model == "star":
        star_mask = np.ones(len(counts), dtype=bool)
    elif model == "hybrid":
        star_mask = counts > 3
    else:
        star_mask = np.zeros(len(counts), dtype=bool)
    su_net = np.where(star_mask, n_cells + np.cumsum(star_mask) - 1, -1)
    n_unknowns = n_cells + int(star_mask.sum())

    empty = np.zeros(0, dtype=np.int64)
    pi: List[np.ndarray] = [empty]
    pj: List[np.ndarray] = [empty]
    uj: List[np.ndarray] = [empty]
    w: List[np.ndarray] = [np.zeros(0)]

    def pairs(a: np.ndarray, b: np.ndarray, weight: np.ndarray) -> None:
        pi.append(a)
        pj.append(b)
        uj.append(iu_pin[b])
        w.append(weight)

    star_pins = np.nonzero((star_mask & pins.active)[net_of_pin])[0]
    if len(star_pins):
        w_star = pins.weights * counts / (counts - 1)
        pi.append(star_pins)
        pj.append(np.full(len(star_pins), -1, dtype=np.int64))
        uj.append(su_net[net_of_pin[star_pins]])
        w.append(w_star[net_of_pin[star_pins]])
    cl_mask = pins.active & ~star_mask
    w_cl = pins.weights / np.maximum(counts - 1, 1)
    p2 = cl_mask & (counts == 2)
    if p2.any():
        pairs(ptr[p2], ptr[p2] + 1, w_cl[p2])
    p3 = cl_mask & (counts == 3)
    if p3.any():
        s = ptr[p3]
        pairs(
            np.concatenate([s, s, s + 1]),
            np.concatenate([s + 1, s + 2, s + 2]),
            np.tile(w_cl[p3], 3),
        )
    for ni in np.nonzero(cl_mask & (counts > 3))[0]:
        # clique model on a big net: rare, one net at a time
        a, b = np.triu_indices(int(counts[ni]), k=1)
        s = int(ptr[ni])
        pairs(s + a, s + b, np.full(len(a), w_cl[ni]))

    springs = _Springs(
        iu_pin[np.concatenate(pi)],
        np.concatenate(uj),
        np.concatenate(w),
        np.concatenate(pi),
        np.concatenate(pj),
    )
    return _keep_positive(springs), n_unknowns


def _b2b_springs(pins: _Pins, coords: np.ndarray) -> _Springs:
    """Bound2Bound springs of one axis at the pins' current coordinates:
    every pin to the net's first lowest pin, and every other pin to its
    first highest one (the pin after the lowest when all coincide)."""
    n_pins = len(coords)
    idx = np.arange(n_pins)
    net = pins.net_of_pin
    if n_pins:
        lo_val = np.minimum.reduceat(coords, pins.ptr)[net]
        hi_val = np.maximum.reduceat(coords, pins.ptr)[net]
        lo = np.minimum.reduceat(
            np.where(coords == lo_val, idx, n_pins), pins.ptr
        )
        hi = np.minimum.reduceat(
            np.where(coords == hi_val, idx, n_pins), pins.ptr
        )
        hi = np.where(hi == lo, lo + 1, hi)
    else:
        lo = hi = np.zeros(0, dtype=np.int64)
    to_lo = pins.active[net] & (idx != lo[net])
    to_hi = to_lo & (idx != hi[net])
    pi = np.concatenate([idx[to_lo], idx[to_hi]])
    pj = np.concatenate([lo[net][to_lo], hi[net][to_hi]])
    p = pins.counts[net[pi]]
    dist = np.maximum(np.abs(coords[pi] - coords[pj]), B2B_MIN_DIST)
    w = pins.weights[net[pi]] * 2.0 / ((p - 1) * dist)
    springs = _Springs(pins.iu_pin[pi], pins.iu_pin[pj], w, pi, pj)
    return _keep_positive(springs)


def _keep_positive(s: _Springs) -> _Springs:
    keep = s.w > 0
    return _Springs(s.ui[keep], s.uj[keep], s.w[keep], s.pi[keep], s.pj[keep])


def _matrix(
    s: _Springs,
    n_unknowns: int,
    regularization: float,
    anchor_u: np.ndarray,
    anchor_w: np.ndarray,
) -> CSR:
    """Springs, then the regularization diagonal, then the anchors'
    diagonal, as one matrix."""
    pos_i = s.ui >= 0
    pos_j = s.uj >= 0
    both = pos_i & pos_j
    i_only = pos_i & ~pos_j
    j_only = pos_j & ~pos_i
    ib, jb, wb = s.ui[both], s.uj[both], s.w[both]
    rows = [ib, jb, ib, jb, s.ui[i_only], s.uj[j_only]]
    cols = [ib, jb, jb, ib, s.ui[i_only], s.uj[j_only]]
    vals = [wb, wb, -wb, -wb, s.w[i_only], s.w[j_only]]
    if regularization > 0:
        diag = np.arange(n_unknowns, dtype=np.int64)
        rows.append(diag)
        cols.append(diag)
        vals.append(np.full(n_unknowns, regularization))
    rows.append(anchor_u)
    cols.append(anchor_u)
    vals.append(anchor_w)
    return _csr(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        n_unknowns,
    )


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> CSR:
    """``coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()``, call
    for call as scipy 1.17 makes it, so duplicates are summed in the
    order its sort (unstable past 16 entries a row) leaves them."""
    nnz = len(vals)
    idx = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    if nnz == 0:
        return CSR(np.zeros(n + 1, idx), np.zeros(0, idx), np.zeros(0), (n, n))
    # the kernel writes where the indices say: scipy's bounds check
    if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n:
        raise ValueError("a COO index is outside the matrix")
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    _sparsetools.coo_tocsr(
        n, n, nnz, rows.astype(idx), cols.astype(idx), vals,
        indptr, indices, data,
    )
    if not _sparsetools.csr_has_canonical_format(n, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(n, indptr, indices):
            _sparsetools.csr_sort_indices(n, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
        indices, data = indices[: indptr[-1]], data[: indptr[-1]]
    return CSR(indptr, indices, data, (n, n))


def _rhs(
    s: _Springs,
    const_pin: np.ndarray,
    n_unknowns: int,
    anchor_u: np.ndarray,
    anchor_pull: np.ndarray,
    regularization_pull: np.ndarray,
) -> np.ndarray:
    """Right-hand side of one axis, gathering each spring end's constant
    from its pin."""
    ci = const_pin[s.pi]
    cj = np.where(s.pj >= 0, const_pin[np.maximum(s.pj, 0)], 0.0)
    pos_i = s.ui >= 0
    pos_j = s.uj >= 0
    rhs = np.zeros(n_unknowns)
    np.add.at(rhs, s.ui[pos_i], (s.w * (cj - ci))[pos_i])
    np.add.at(rhs, s.uj[pos_j], (s.w * (ci - cj))[pos_j])
    rhs[anchor_u] += anchor_pull
    rhs[: len(regularization_pull)] += regularization_pull
    return rhs


def build_axis_systems(
    netlist: Netlist,
    model: str = "hybrid",
    movable_mask: Optional[np.ndarray] = None,
    net_ids: Optional[np.ndarray] = None,
    anchors: Optional[tuple] = None,
    regularization: float = 1e-8,
) -> Tuple[AxisSystem, AxisSystem]:
    """Assemble the x and y systems.

    Parameters
    ----------
    movable_mask:
        Boolean per-cell mask of unknowns.  Defaults to the netlist's
        non-fixed cells; local QP passes the cells of the coarse window.
    net_ids:
        Ascending net indices to assemble (local QP passes the nets
        incident to the coarse window).  Defaults to all nets.
    anchors:
        Optional ``(targets_x, targets_y, weight)``: per-cell target
        arrays and one weight, a scalar or per cell, shared by both
        axes.  Each unknown cell with a positive weight gets the
        pseudo-net ``weight * (x - target)^2``.
    regularization:
        Tiny diagonal term anchoring each unknown at its current
        position, guaranteeing positive definiteness even for cells
        with no path to a fixed pin.
    """
    if model not in NET_MODELS:
        raise ValueError(f"unknown net model {model!r}")
    if movable_mask is None:
        movable_mask = ~netlist.fixed_mask
    else:
        movable_mask = np.asarray(movable_mask, dtype=bool)
        if movable_mask.shape != (netlist.num_cells,):
            raise ValueError("movable_mask must cover all cells")
    movable_indices = np.nonzero(movable_mask)[0]
    n_cells = len(movable_indices)
    unknown_of_cell = np.full(netlist.num_cells, -1, dtype=np.int64)
    unknown_of_cell[movable_indices] = np.arange(n_cells)

    if net_ids is None:
        ptr, pin_cell, off_x, off_y, weights = netlist.pin_arrays()
    else:
        ptr, pin_cell, off_x, off_y, weights = netlist.net_subset_arrays(
            net_ids
        )
    counts = np.diff(np.append(ptr, len(pin_cell))).astype(np.int64)
    cell_ix = np.maximum(pin_cell, 0)
    on_cell = pin_cell >= 0
    iu_pin = np.where(on_cell, unknown_of_cell[cell_ix], -1)
    pins = _Pins(
        ptr=ptr,
        counts=counts,
        weights=weights,
        net_of_pin=np.repeat(np.arange(len(weights)), counts),
        iu_pin=iu_pin,
        active=(
            np.maximum.reduceat(iu_pin, ptr) >= 0
            if len(weights)
            else np.zeros(0, dtype=bool)
        ),
    )

    anchor_u = np.zeros(0, dtype=np.int64)
    anchor_w = np.zeros(0)
    targets = (anchor_w, anchor_w)
    if anchors is not None:
        targets_x, targets_y, weight = anchors
        w = np.broadcast_to(
            np.asarray(weight, dtype=np.float64), (netlist.num_cells,)
        )[movable_indices]
        anchor_u = np.nonzero(w > 0)[0]
        anchor_w = w[anchor_u]
        cells = movable_indices[anchor_u]
        targets = (np.asarray(targets_x)[cells], np.asarray(targets_y)[cells])

    fixed_pin = on_cell & (iu_pin < 0)
    springs = matrix = None
    if model != "b2b":
        springs, n_unknowns = _topology_springs(model, pins, n_cells)
        matrix = _matrix(
            springs, n_unknowns, regularization, anchor_u, anchor_w
        )
    systems = []
    for axis, positions, off in ((0, netlist.x, off_x), (1, netlist.y, off_y)):
        const_pin = np.where(fixed_pin, positions[cell_ix] + off, off)
        if model == "b2b":
            n_unknowns = n_cells
            springs = _b2b_springs(
                pins, np.where(on_cell, positions[cell_ix] + off, off)
            )
            matrix = _matrix(
                springs, n_unknowns, regularization, anchor_u, anchor_w
            )
        rhs = _rhs(
            springs,
            const_pin,
            n_unknowns,
            anchor_u,
            anchor_w * targets[axis],
            regularization * positions[movable_indices]
            if regularization > 0
            else np.zeros(0),
        )
        systems.append(AxisSystem(matrix, rhs, unknown_of_cell, n_cells))
    return systems[0], systems[1]
