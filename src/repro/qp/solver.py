"""Solving the quadratic placement systems.

Direct sparse factorization below a size threshold, Jacobi-
preconditioned conjugate gradients above it.  The systems are SPD by
construction (net springs are PSD; a tiny diagonal regularization
anchors floating unknowns), so CG is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg, spsolve

from repro.netlist import Netlist
from repro.obs import incr
from repro.qp.models import build_axis_systems

#: Unknown-count threshold below which a direct solve is used.
DIRECT_SOLVE_LIMIT = 4000


@dataclass
class QPOptions:
    """Knobs of a quadratic solve."""

    net_model: str = "hybrid"
    cg_tol: float = 1e-7
    cg_maxiter: int = 2000
    regularization: float = 1e-8


def _solve_axis(
    matrix, rhs: np.ndarray, x0: np.ndarray, opts: QPOptions
) -> np.ndarray:
    """One axis: ``matrix`` is CSC up to ``DIRECT_SOLVE_LIMIT`` unknowns
    (a direct solve), CSR above (Jacobi-preconditioned CG)."""
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if n <= DIRECT_SOLVE_LIMIT:
        return spsolve(matrix, rhs)
    diag = matrix.diagonal()
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
        matrix,
        rhs,
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
    net_ids: Optional[np.ndarray] = None,
    anchors: Optional[tuple] = None,
    apply: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize quadratic netlength over the movable cells.

    Cells outside ``movable_mask`` (and fixed cells) stay at their
    current positions and act as fixed pins — passing the cells of a
    coarse window and the ``net_ids`` incident to them gives the *local
    QP* of FBP realization (§IV.B).  ``anchors`` is ``(targets_x,
    targets_y, weight)``, see :func:`build_axis_systems`.

    Returns the new full-length coordinate arrays; when ``apply`` is
    True (default) the netlist is updated in place.
    """
    opts = options or QPOptions()
    sys_x, sys_y = build_axis_systems(
        netlist,
        model=opts.net_model,
        movable_mask=movable_mask,
        net_ids=net_ids,
        anchors=anchors,
        regularization=opts.regularization,
    )
    matrix_x, matrix_y = sys_x.matrix, sys_y.matrix
    if 0 < matrix_x.shape[0] <= DIRECT_SOLVE_LIMIT:
        # except under b2b the axes share one matrix: convert it once
        matrix_x = matrix_x.tocsc()
        matrix_y = (
            matrix_x if sys_y.matrix is sys_x.matrix else matrix_y.tocsc()
        )
    movable_indices = np.nonzero(sys_x.unknown_of_cell >= 0)[0]
    n_cells = sys_x.num_cell_unknowns
    new_x = netlist.x.copy()
    new_y = netlist.y.copy()
    for system, matrix, current, out in (
        (sys_x, matrix_x, netlist.x, new_x),
        (sys_y, matrix_y, netlist.y, new_y),
    ):
        x0 = np.zeros(matrix.shape[0])
        x0[:n_cells] = current[movable_indices]
        solution = _solve_axis(matrix, system.rhs, x0, opts)
        out[movable_indices] = solution[:n_cells]

    if apply:
        netlist.x = new_x
        netlist.y = new_y
        netlist.clamp_into_die()
        return netlist.x, netlist.y
    return new_x, new_y
