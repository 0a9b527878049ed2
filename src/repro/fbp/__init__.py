"""Flow-based partitioning (FBP) — the paper's core contribution (§IV).

The pipeline:

1. :mod:`repro.fbp.model` builds the global MinCostFlow instance
   ``(G, b, cost)`` with cell-group, transit and region nodes per
   window (and per movebound), intra-window edge sets
   ``E^cr, E^ct, E^tt, E^tr`` and zero-cost external edges between
   facing transit nodes of adjacent windows.  |V(G)| and |E(G)| are
   linear in |W| + |R| and independent of the number of cells.
2. Theorem 3: the instance is feasible iff a fractional placement with
   movebounds exists — surfaced by the solver's feasibility flag.
3. :mod:`repro.fbp.realization` turns the abstract flow into actual
   cell movement: external arcs go in rounds of disjoint 2x3/3x2
   *coarse windows*; per round one local QP (under
   ``local_qp_cell_limit`` cells), then each arc is shipped greedily
   (:func:`~repro.fbp.realization._ship_arc`); finally every window
   partitions its cells among its regions by the §III step.
4. :mod:`repro.fbp.schedule` computes the deterministic parallel
   schedule (independent arcs = disjoint coarse windows) whose
   achievable speedup the paper reports.
5. :mod:`repro.fbp.partitioner` wraps 1-4 into the single
   ``fbp_partition`` step used by the global placer.
"""

from repro.fbp.model import FBPModel, build_fbp_model
from repro.fbp.realization import RealizationResult, realize_flow
from repro.fbp.schedule import ParallelSchedule, compute_schedule
from repro.fbp.partitioner import FBPReport, fbp_partition

__all__ = [
    "FBPModel",
    "build_fbp_model",
    "RealizationResult",
    "realize_flow",
    "ParallelSchedule",
    "compute_schedule",
    "FBPReport",
    "fbp_partition",
]
