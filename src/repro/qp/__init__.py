"""Quadratic netlength minimization (the "QP" of the paper).

Analytical placers model each net as quadratic springs between pins and
minimize total quadratic netlength by solving one sparse linear system
per axis.  This package provides:

* net models — ``clique`` (pairwise springs, weight w/(p-1)), ``star``
  (auxiliary net node; exactly equivalent to the clique by star-mesh
  transformation, cheaper for high-degree nets), ``hybrid`` (clique up
  to degree 3, star above) and ``b2b`` (Kraftwerk2's Bound2Bound
  linearization of HPWL, position-dependent);
* :func:`solve_qp` — global or *local* QP (a movable-subset solve with
  every other cell fixed at its current position, as used by FBP
  realization, §IV.B);
* :func:`build_axis_systems` — the x and y systems from the flat pin
  arrays, sharing one matrix except under b2b;
* anchor (pseudo-net) support for force-directed baselines: per-cell
  target arrays and one weight shared by both axes.

The matrices are CSR arrays run through scipy's compiled kernels, each
loaded by file on import (no scipy package), bit-identical to scipy's
``coo_matrix(...).tocsr()``, ``spsolve`` and ``cg``.
"""

from repro.qp.solver import QPOptions, solve_qp
from repro.qp.models import NET_MODELS, build_axis_systems

__all__ = ["solve_qp", "QPOptions", "NET_MODELS", "build_axis_systems"]
