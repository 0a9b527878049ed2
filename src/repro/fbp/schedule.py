"""Deterministic parallel scheduling of realization (paper §IV.B).

Two external arcs without unrealized external predecessors can be
realized independently when their coarse windows do not overlap.  The
scheduler below greedily packs ready arcs with pairwise-disjoint coarse
blocks into rounds, in a fixed deterministic order, and reports the
achievable speedup — the quantity behind the paper's "up to 7.9 with
8 CPUs" claim.  (Execution in this reproduction is sequential Python;
the *schedule* is what carries the parallelism result.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.fbp.model import ExternalArc, FBPModel
from repro.fbp.realization import cancel_external_cycles
from repro.obs import incr, span


@dataclass
class ParallelSchedule:
    """Rounds of independently realizable external arcs."""

    rounds: List[List[ExternalArc]] = field(default_factory=list)
    #: arc id -> the arc's flow after cycle cancellation
    flow: Dict[int, float] = field(default_factory=dict)

    @property
    def num_arcs(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def max_parallelism(self) -> int:
        return max((len(r) for r in self.rounds), default=0)

    def speedup(self, num_cpus: int) -> float:
        """Speedup over sequential processing with unit-cost arcs:
        sequential time / sum over rounds of ceil(round size / CPUs)."""
        if self.num_arcs == 0:
            return 1.0
        parallel_time = sum(
            math.ceil(len(r) / num_cpus) for r in self.rounds
        )
        return self.num_arcs / max(parallel_time, 1)


def compute_schedule(
    model: FBPModel,
    flows: List[Tuple[ExternalArc, float]],
) -> ParallelSchedule:
    """Build the deterministic parallel schedule for the given flow,
    after cancelling its cycles (:func:`cancel_external_cycles`).

    Ready = every external arc into the arc's source window (same
    movebound) already scheduled.  Among ready arcs, a deterministic
    greedy picks a maximal set whose coarse blocks are pairwise
    disjoint; that set forms one round.
    """
    with span("fbp.schedule.compute"):
        schedule = _compute_schedule(model, flows)
    incr("schedule.computed")
    incr("schedule.rounds", schedule.num_rounds)
    incr("schedule.arcs", schedule.num_arcs)
    return schedule


def _compute_schedule(
    model: FBPModel,
    flows: List[Tuple[ExternalArc, float]],
) -> ParallelSchedule:
    flows = cancel_external_cycles(flows)
    grid = model.grid
    scheduled = [False] * len(flows)

    # predecessors: arcs of the same bound ending at this arc's source
    # window, looked up by (bound, destination window)
    into: Dict[Tuple[str, int], List[int]] = {}
    for j, (arc, _f) in enumerate(flows):
        into.setdefault((arc.bound, arc.dst_window), []).append(j)
    preds = [into.get((arc.bound, arc.src_window), []) for arc, _f in flows]

    blocks: List[Set[int]] = []
    for arc, _f in flows:
        block = grid.coarse_block(
            grid.windows[arc.src_window], grid.windows[arc.dst_window]
        )
        blocks.append({w.index for w in block})

    schedule = ParallelSchedule(flow={arc.arc_id: f for arc, f in flows})
    remaining = set(range(len(flows)))
    while remaining:
        ready = sorted(
            i
            for i in remaining
            if all(scheduled[j] for j in preds[i])
        )
        if not ready:
            # should not happen after cycle cancellation; fall back to
            # breaking the tie deterministically
            ready = [min(remaining)]
        used: Set[int] = set()
        this_round: List[int] = []
        for i in ready:
            if blocks[i] & used:
                continue
            used |= blocks[i]
            this_round.append(i)
        for i in this_round:
            scheduled[i] = True
            remaining.discard(i)
        schedule.rounds.append([flows[i][0] for i in this_round])
    return schedule
