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
    """One axis: a direct solve up to ``DIRECT_SOLVE_LIMIT`` unknowns,
    Jacobi-preconditioned CG above."""
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if n <= DIRECT_SOLVE_LIMIT:
        return spsolve(matrix.tocsc(), rhs)
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
    True (default) the netlist's arrays are updated in place: its
    unknown movable cells are clamped into the die and written, no
    other cell is touched.
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
    unknown = np.nonzero(sys_x.unknown_of_cell >= 0)[0]
    n_cells = sys_x.num_cell_unknowns
    n = sys_x.matrix.shape[0]
    if 0 < n <= DIRECT_SOLVE_LIMIT and sys_y.matrix is sys_x.matrix:
        # except under b2b the axes share one matrix: factor it once
        # for both right-hand sides
        both = spsolve(
            sys_x.matrix.tocsc(), np.column_stack((sys_x.rhs, sys_y.rhs))
        )
        sol_x, sol_y = both[:n_cells, 0], both[:n_cells, 1]
    else:
        solutions = []
        for system, current in ((sys_x, netlist.x), (sys_y, netlist.y)):
            x0 = np.zeros(n)
            x0[:n_cells] = current[unknown]
            solution = _solve_axis(system.matrix, system.rhs, x0, opts)
            solutions.append(solution[:n_cells])
        sol_x, sol_y = solutions

    if apply:
        # only the unknowns moved: clamp the movable ones into the die
        # and write back just those
        movable, hw, hh = netlist.cell_dims()
        die, fixed = netlist.die, ~movable[unknown]
        hw, hh = hw[unknown], hh[unknown]
        netlist.x[unknown] = np.where(
            fixed, sol_x, np.clip(sol_x, die.x_lo + hw, die.x_hi - hw)
        )
        netlist.y[unknown] = np.where(
            fixed, sol_y, np.clip(sol_y, die.y_lo + hh, die.y_hi - hh)
        )
        return netlist.x, netlist.y
    new_x, new_y = netlist.x.copy(), netlist.y.copy()
    new_x[unknown], new_y[unknown] = sol_x, sol_y
    return new_x, new_y
