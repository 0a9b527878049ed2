"""Partitioning algorithms besides FBP.

* :mod:`repro.partitioning.transport` — the shared §III step:
  movebound-aware transportation of a cell set onto capacitated
  targets, with almost-integral rounding; one instance type
  (:class:`TransportInstance`) and one solve (:func:`solve_instances`)
  for every caller.
* :mod:`repro.partitioning.recursive` — the classical recursive
  2x2 partitioning of BonnPlace [5] (the paper's predecessor and our
  ablation baseline), including the drawback the paper highlights:
  subdivision can fail locally even when a global solution exists.
* :mod:`repro.partitioning.repartition` — 2x2/3x3 window *reflow*
  refinement ([17], [5], [27]).
"""

from repro.partitioning.transport import (
    TransportInstance,
    TransportTargets,
    build_instance,
    partition_cells,
    solve_instances,
)
from repro.partitioning.recursive import RecursivePartitionReport, recursive_partition
from repro.partitioning.repartition import (
    block_windows,
    enforce_blocks,
    repartition_pass,
)

__all__ = [
    "block_windows",
    "enforce_blocks",
    "TransportTargets",
    "TransportInstance",
    "build_instance",
    "solve_instances",
    "partition_cells",
    "RecursivePartitionReport",
    "recursive_partition",
    "repartition_pass",
]
