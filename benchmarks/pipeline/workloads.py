"""The four workloads: sizes, instance counts and seed derivation.

Pure data — nothing here imports ``repro``.  A workload is a set of
seeded instances plus the operation run on each; the set-up child
(``adapter.py setup``) turns a :class:`Workload` into Bookshelf files
and the measured children only ever see those files.

Sizes are the issue's sizing (12k / 8.4k / 50k / 4k cells) shrunk by
one common factor of 4 so that a run fits the driver's time cap;
``--scale 4`` restores the original sizes for offline ledger runs.
Every run places several instances per workload and reports medians
over them, because one instance's wall time and wirelength depend on
the seed far more than the regression bounds allow (see README).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: operation: "cli" (python -m repro place), "global" (library
    #: place with legalize=False) or "eco" (EcoEngine.apply per delta)
    op: str
    cells: int
    #: instances placed per untraced pass / per traced pass
    instances: int
    traced_instances: int
    #: number of inclusive movebounds (0 = none) and their cell share
    movebounds: int = 0
    movebound_share: float = 0.0
    movebound_density: float = 0.0
    #: ECO deltas applied per pass, and movable cells each one claims
    deltas: int = 0
    delta_cells: int = 8

    def scaled(self, scale: float) -> "Workload":
        return replace(self, cells=max(50, int(round(self.cells * scale))))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flat3k",
            why="default CLI journey without movebounds: legalization and "
            "detailed placement dominate, the flow layers do not",
            op="cli",
            cells=3000,
            instances=4,
            traced_instances=2,
        ),
        Workload(
            name="mb2k",
            why="9 inclusive movebounds hold 80% of the cells: regions, "
            "feasibility, per-movebound FBP nodes and LP realization fire",
            op="cli",
            cells=2100,
            instances=4,
            traced_instances=2,
            movebounds=9,
            movebound_share=0.80,
            movebound_density=0.74,
        ),
        Workload(
            name="global12k",
            why="global placement only at the largest size the cap allows: "
            "flow solve, repartitioning, QP and model build dominate",
            op="global",
            cells=12500,
            instances=3,
            traced_instances=1,
        ),
        Workload(
            name="eco1k",
            why="movebound deltas on a resident ECO engine with a journal: "
            "the same layers scoped to a small frontier, paid per delta",
            op="eco",
            cells=1000,
            instances=1,
            traced_instances=1,
            deltas=16,
        ),
    )
}

#: ``--smoke``: tiny instances, one per workload, for the self-tests
SMOKE_SCALE = 0.2

#: cells of the warm-up instance placed once per set-up (bytecode and
#: page cache), independent of scale
WARMUP_CELLS = 200


def instance_seed(workload: str, seed: int, index: int) -> int:
    """Generator seed of instance ``index``: a hash, so neighbouring
    ``--seed`` values share no instance."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def instance_names(workload: Workload) -> List[str]:
    return [f"{workload.name}_{i}" for i in range(workload.instances)]
