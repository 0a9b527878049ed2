"""Solving the quadratic placement systems.

Direct sparse factorization below a size threshold, Jacobi-
preconditioned conjugate gradients above it.  The systems are SPD by
construction (net springs are PSD; a tiny diagonal regularization
anchors floating unknowns), so CG is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg, spsolve

from repro.netlist import Netlist, flat_pin_arrays
from repro.obs import incr
from repro.qp.models import AxisSystem, build_axis_systems_xy

#: Unknown-count threshold below which a direct solve is used.
DIRECT_SOLVE_LIMIT = 4000


@dataclass
class QPOptions:
    """Knobs of a quadratic solve."""

    net_model: str = "hybrid"
    cg_tol: float = 1e-7
    cg_maxiter: int = 2000
    regularization: float = 1e-8


def _solve_axis(system: AxisSystem, x0: np.ndarray, opts: QPOptions) -> np.ndarray:
    n = system.matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if n <= DIRECT_SOLVE_LIMIT:
        # the two axes share one assembled matrix (see
        # build_axis_systems_xy), so memoize its CSC conversion on the
        # object; the matrix is never mutated after assembly
        csc = getattr(system.matrix, "_csc_cache", None)
        if csc is None:
            csc = system.matrix.tocsc()
            system.matrix._csc_cache = csc
        return spsolve(csc, system.rhs)
    diag = system.matrix.diagonal()
    diag[diag <= 0] = 1.0
    inv_diag = 1.0 / diag

    # the Jacobi preconditioner as a sparse diagonal matrix: applied
    # by scipy's C matvec (a diagonal row is one product, so the
    # result is bit-identical to ``inv_diag * v``) without the python
    # LinearOperator callback layers on every iteration
    m = diags(inv_diag)
    iters = 0

    def count_iteration(_xk: np.ndarray) -> None:
        nonlocal iters
        iters += 1

    solution, info = cg(
        system.matrix,
        system.rhs,
        x0=x0,
        rtol=opts.cg_tol,
        maxiter=opts.cg_maxiter,
        M=m,
        callback=count_iteration,
    )
    incr("qp.cg_iters", iters)
    if info > 0:
        # not fully converged — still usable as a placement iterate
        pass
    elif info < 0:
        raise RuntimeError(f"CG failed with code {info}")
    return solution


def solve_qp(
    netlist: Netlist,
    options: Optional[QPOptions] = None,
    movable_mask: Optional[np.ndarray] = None,
    anchors_x: Optional[Sequence[Tuple[int, float, float]]] = None,
    anchors_y: Optional[Sequence[Tuple[int, float, float]]] = None,
    apply: bool = True,
    nets=None,
    flat: Optional[tuple] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize quadratic netlength over the movable cells.

    Cells outside ``movable_mask`` (and fixed cells) stay at their
    current positions and act as fixed pins — passing the cells of a
    coarse window gives the *local QP* of FBP realization (§IV.B).

    Returns the new full-length coordinate arrays; when ``apply`` is
    True (default) the netlist is updated in place.
    """
    opts = options or QPOptions()
    if movable_mask is None:
        movable_mask = ~netlist.fixed_mask

    new_x = netlist.x.copy()
    new_y = netlist.y.copy()
    # the flat pin arrays are position-independent, so both axis
    # assemblies share one subset extraction (or the caller's, e.g.
    # repartitioning passes Netlist.net_subset_arrays output) — and
    # for the position-independent models the whole assembled matrix
    # is shared across the two axes (only the rhs differs)
    if flat is None and nets is not None and opts.net_model != "b2b":
        flat = flat_pin_arrays(nets)
    sys_x, sys_y = build_axis_systems_xy(
        netlist,
        model=opts.net_model,
        movable_mask=movable_mask,
        anchors_x=anchors_x,
        anchors_y=anchors_y,
        regularization=opts.regularization,
        nets=nets,
        flat=flat,
    )
    movable_indices = np.nonzero(movable_mask)[0]
    for system, current, out in (
        (sys_x, netlist.x, new_x),
        (sys_y, netlist.y, new_y),
    ):
        x0 = np.zeros(system.matrix.shape[0])
        x0[: system.num_cell_unknowns] = current[movable_indices]
        solution = _solve_axis(system, x0, opts)
        out[movable_indices] = solution[: system.num_cell_unknowns]

    if apply:
        netlist.x = new_x
        netlist.y = new_y
        netlist.clamp_into_die()
        return netlist.x, netlist.y
    return new_x, new_y
