"""Solving the quadratic placement systems.

Direct sparse factorization below a size threshold, Jacobi-
preconditioned conjugate gradients above it.  The systems are SPD by
construction (net springs are PSD; a tiny diagonal regularization
anchors floating unknowns), so CG is safe.

:func:`spsolve` calls SuperLU's ``gssv`` as scipy 1.17's ``spsolve``
does (the ``_superlu`` extension, loaded by file on import), and
:func:`cg` is scipy 1.17's ``cg`` loop on the CSR matvec: both are
bit-identical to scipy's (``tests/test_qp_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.obs import incr
from repro.qp.models import CSR, build_axis_systems
from repro.resilience.errors import SolverNumericsError
from repro.scipy_ext import load_extension

_superlu = load_extension(
    "scipy.sparse.linalg._dsolve._superlu",
    "the QP's direct solve runs scipy's SuperLU",
)

#: Unknown-count threshold below which a direct solve is used.
DIRECT_SOLVE_LIMIT = 4000


@dataclass
class QPOptions:
    """Knobs of a quadratic solve."""

    net_model: str = "hybrid"
    cg_tol: float = 1e-7
    cg_maxiter: int = 2000
    regularization: float = 1e-8


def spsolve(matrix: CSR, b: np.ndarray) -> np.ndarray:
    """``scipy.sparse.linalg.spsolve(matrix.tocsc(), b)`` for a dense
    ``b`` of one or more columns; a singular matrix raises
    :class:`SolverNumericsError` where scipy warns and returns NaN."""
    csc = matrix.tocsc()
    x, info = _superlu.gssv(
        matrix.shape[1], csc.nnz, csc.data,
        csc.indices.astype(np.intc, copy=False),
        csc.indptr.astype(np.intc, copy=False),
        b, 1, options={"ColPerm": None},
    )
    if info != 0:
        raise SolverNumericsError(
            f"the QP matrix is singular (SuperLU info {info})",
            stage="qp",
            solver="superlu",
        )
    return x.ravel() if b.ndim == 1 else x


def cg(
    a: CSR,
    b: np.ndarray,
    x0: np.ndarray,
    rtol: float,
    maxiter: int,
    inv_diag: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """``scipy.sparse.linalg.cg(a, b, x0, rtol=rtol, maxiter=maxiter,
    M=diags(inv_diag))``: the solution and the number of iterations
    (``maxiter`` when not converged; the result is still usable as a
    placement iterate)."""
    x = np.array(x0, dtype=np.float64)
    bnrm2 = np.linalg.norm(b)
    atol = rtol * float(bnrm2)
    if bnrm2 == 0:
        return b, 0
    r = b - a @ x if x.any() else b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration
        # the preconditioner as scipy's diagonal matvec computes it:
        # each product added to a zero, which turns -0.0 into 0.0
        z = inv_diag * r
        z += 0.0
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = a @ p
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def _solve_axis(
    matrix: CSR, rhs: np.ndarray, x0: np.ndarray, opts: QPOptions
) -> np.ndarray:
    """One axis: a direct solve up to ``DIRECT_SOLVE_LIMIT`` unknowns,
    Jacobi-preconditioned CG above."""
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if n <= DIRECT_SOLVE_LIMIT:
        return spsolve(matrix, rhs)
    diag = matrix.diagonal()
    diag[diag <= 0] = 1.0
    solution, iters = cg(
        matrix, rhs, x0, opts.cg_tol, opts.cg_maxiter, 1.0 / diag
    )
    incr("qp.cg_iters", iters)
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
            sys_x.matrix, np.column_stack((sys_x.rhs, sys_y.rhs))
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
