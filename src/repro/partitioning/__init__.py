"""Partitioning algorithms besides FBP.

* :mod:`repro.partitioning.transport` — the shared §III primitive:
  movebound-aware transportation of a cell set onto capacitated
  targets, with almost-integral rounding.
* :mod:`repro.partitioning.recursive` — the classical recursive
  2x2 partitioning of BonnPlace [5] (the paper's predecessor and our
  ablation baseline), including the drawback the paper highlights:
  subdivision can fail locally even when a global solution exists.
* :mod:`repro.partitioning.repartition` — 2x2/3x3 window *reflow*
  refinement ([17], [5], [27]).
"""

from repro.partitioning.transport import (
    TransportProblem,
    TransportTargets,
    build_transport_problem,
    complete_partition,
    partition_cells,
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
    "TransportProblem",
    "build_transport_problem",
    "complete_partition",
    "partition_cells",
    "RecursivePartitionReport",
    "recursive_partition",
    "repartition_pass",
]
