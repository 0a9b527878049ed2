"""Tests for the deterministic parallel realization schedule."""

import pytest

from repro.fbp import build_fbp_model, compute_schedule
from repro.fbp.schedule import ParallelSchedule
from repro.fbp.model import ExternalArc
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _schedule(seed=0, nx=6, num_cells=200, clustered=True):
    nl = build_random_netlist(num_cells, 120, seed, DIE)
    if clustered:
        # pile the cells into one corner so flow must cross windows
        import numpy as np

        rng = np.random.default_rng(seed)
        movable = [c.index for c in nl.cells if not c.fixed]
        # overload a single window column so flow must spill outward
        nl.x[movable] = rng.uniform(2, 14, len(movable))
        nl.y[movable] = rng.uniform(2, 14, len(movable))
    mbs = MoveBoundSet(DIE)
    dec = decompose_regions(DIE, mbs)
    grid = Grid(DIE, nx, nx)
    grid.build_regions(dec)
    model = build_fbp_model(nl, mbs, grid, density_target=0.8)
    result = model.solve()
    assert result.feasible
    flows = model.external_flows(result)
    return model, flows, compute_schedule(model, flows), grid


class TestSchedule:
    def test_covers_all_arcs(self):
        from repro.fbp.realization import cancel_external_cycles

        model, flows, schedule, _grid = _schedule()
        expected = len(cancel_external_cycles(flows))
        assert schedule.num_arcs == expected

    def test_rounds_are_independent(self):
        """Within a round, coarse blocks must be pairwise disjoint —
        the paper's condition for parallel realization."""
        model, _flows, schedule, grid = _schedule(seed=1)
        for round_arcs in schedule.rounds:
            used = set()
            for arc in round_arcs:
                block = {
                    w.index
                    for w in grid.coarse_block(
                        grid.windows[arc.src_window],
                        grid.windows[arc.dst_window],
                    )
                }
                assert not (block & used)
                used |= block

    def test_respects_dependencies(self):
        """A same-bound arc into this arc's source window must be
        scheduled in an earlier round: in the same round it would ship
        cells that have not arrived yet."""
        found_arcs = False
        for seed in range(6):
            model, _flows, schedule, _grid = _schedule(seed=seed)
            round_of = {}
            for rnd, round_arcs in enumerate(schedule.rounds):
                for arc in round_arcs:
                    round_of[arc.arc_id] = (rnd, arc)
            if round_of:
                found_arcs = True
            for aid, (rnd, arc) in round_of.items():
                for oid, (ornd, other) in round_of.items():
                    if (
                        other.bound == arc.bound
                        and other.dst_window == arc.src_window
                    ):
                        assert ornd < rnd
        assert found_arcs, "no test instance produced external flow"

    def test_speedup_bounds(self):
        _m, _f, schedule, _g = _schedule(seed=3)
        if schedule.num_arcs == 0:
            return
        s1 = schedule.speedup(1)
        s8 = schedule.speedup(8)
        assert s1 <= 1.0 + 1e-9
        assert 1.0 <= s8 <= 8.0 + 1e-9

    def test_deterministic(self):
        a = _schedule(seed=4)[2]
        b = _schedule(seed=4)[2]
        assert [
            [arc.arc_id for arc in r] for r in a.rounds
        ] == [[arc.arc_id for arc in r] for r in b.rounds]

    def test_empty_schedule(self):
        schedule = ParallelSchedule()
        assert schedule.speedup(8) == 1.0
        assert schedule.num_arcs == 0
        assert schedule.max_parallelism == 0
