"""Integration tests: all four placers end-to-end on small instances."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.place import (
    BonnPlaceFBP,
    BonnPlaceOptions,
    KraftwerkPlacer,
    KraftwerkOptions,
    PlacementError,
    RecursiveOptions,
    RecursivePlacer,
    RQLOptions,
    RQLPlacer,
)
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)

DIE = Rect(0, 0, 100, 100)


def _instance(num_cells=250, seed=0, with_bounds=False):
    spec = NetlistSpec("itest", num_cells, utilization=0.5, num_pads=12)
    nl, logical = generate_netlist(spec, seed=seed)
    if with_bounds:
        bounds = attach_movebounds(
            nl, logical,
            [MoveBoundSpec("m0", 0.12, density=0.7),
             MoveBoundSpec("m1", 0.10, density=0.7)],
            seed=seed,
        )
    else:
        bounds = MoveBoundSet(nl.die)
    return nl, bounds


class TestBonnPlaceFBP:
    def test_legal_without_bounds(self):
        nl, bounds = _instance()
        res = BonnPlaceFBP().place(nl, bounds)
        assert res.legality.is_legal
        assert res.hpwl > 0
        assert res.global_seconds > 0 and res.legal_seconds > 0

    def test_legal_with_bounds(self):
        nl, bounds = _instance(with_bounds=True, seed=1)
        res = BonnPlaceFBP().place(nl, bounds)
        assert res.legality.is_legal
        assert res.violations == 0

    def test_improves_over_scrambled(self):
        nl, bounds = _instance(seed=2)
        rng = np.random.default_rng(0)
        movable = [c.index for c in nl.cells if not c.fixed]
        nl.x[movable] = rng.uniform(1, 99, len(movable))
        nl.y[movable] = rng.uniform(1, 99, len(movable))
        scrambled_hpwl = nl.hpwl()
        res = BonnPlaceFBP().place(nl, bounds)
        assert res.hpwl < scrambled_hpwl

    def test_infeasible_raises_with_witness(self):
        nl, _ = _instance(seed=3)
        bounds = MoveBoundSet(nl.die)
        side = nl.die.width * 0.05
        bounds.add_rects("tiny", [Rect(0, 0, side, side)])
        nl.set_cells(range(200), movebound="tiny")
        with pytest.raises(PlacementError, match="tiny"):
            BonnPlaceFBP().place(nl, bounds)

    def test_level_reports_available(self):
        nl, bounds = _instance(seed=4)
        bp = BonnPlaceFBP()
        bp.place(nl, bounds)
        assert len(bp.level_reports) == bp.num_levels(nl)
        for rep in bp.level_reports:
            assert rep.feasible
            assert rep.stats.num_nodes > 0

    def test_deterministic(self):
        a_nl, a_b = _instance(seed=5)
        b_nl, b_b = _instance(seed=5)
        ra = BonnPlaceFBP().place(a_nl, a_b)
        rb = BonnPlaceFBP().place(b_nl, b_b)
        assert ra.hpwl == pytest.approx(rb.hpwl)
        assert np.array_equal(a_nl.x, b_nl.x)

    def test_max_levels_override(self):
        nl, bounds = _instance(seed=6)
        bp = BonnPlaceFBP(BonnPlaceOptions(max_levels=2))
        assert bp.num_levels(nl) == 2


class TestRQL:
    def test_legal_without_bounds(self):
        nl, bounds = _instance(seed=7)
        res = RQLPlacer().place(nl, bounds)
        assert not res.crashed
        assert res.legality.overlaps == 0
        assert res.legality.off_row == 0

    def test_violations_with_tight_bounds(self):
        nl, bounds = _instance(with_bounds=True, seed=8)
        res = RQLPlacer().place(nl, bounds)
        # the RQL-style baseline has no capacity-aware movebound
        # handling; it typically violates (paper Tables IV/V)
        assert not res.crashed
        assert res.legality.overlaps == 0

    def test_iteration_cap(self):
        nl, bounds = _instance(seed=9)
        placer = RQLPlacer(RQLOptions(max_iterations=2))
        placer.place(nl, bounds)
        assert placer.iterations_run <= 2

    def test_tetris_failure_is_a_crashed_result(self):
        """Table IV's "crashed" outcome: Tetris finds no room for a
        cell, and the placer reports it instead of raising."""
        spec = NetlistSpec("h", 1500, utilization=0.6, num_pads=8)
        nl, logical = generate_netlist(spec, seed=11)
        bounds = attach_movebounds(
            nl, logical,
            [MoveBoundSpec("m0", 0.2), MoveBoundSpec("m1", 0.15),
             MoveBoundSpec("m2", 0.1, overlaps="m1"),
             MoveBoundSpec("m3", 0.05, nested_in="m0")],
            seed=3,
        )
        res = RQLPlacer().place(nl, bounds)
        assert res.crashed
        assert res.error.startswith("tetris")
        assert np.isnan(res.hpwl)
        assert res.legal_seconds > 0


class TestKraftwerk:
    def test_legal_output(self):
        nl, bounds = _instance(seed=10)
        res = KraftwerkPlacer(KraftwerkOptions(max_iterations=8)).place(
            nl, bounds
        )
        assert res.legality.is_legal

    def test_spreads_density(self):
        from repro.metrics import DensityMap

        nl, bounds = _instance(seed=11)
        KraftwerkPlacer(KraftwerkOptions(max_iterations=10)).place(nl, bounds)
        dmap = DensityMap(nl, 8, 8)
        assert dmap.overflow_ratio(0.97) < 0.3


class TestRecursive:
    def test_legal_output(self):
        nl, bounds = _instance(seed=12)
        res = RecursivePlacer(RecursiveOptions(reflow_passes=0)).place(
            nl, bounds
        )
        assert res.legality.is_legal

    def test_respects_bounds_when_loose(self):
        nl, bounds = _instance(with_bounds=True, seed=13)
        res = RecursivePlacer().place(nl, bounds)
        assert res.violations == 0


class TestPoisson:
    def test_poisson_solver(self):
        from repro.place.kraftwerk import solve_poisson_neumann

        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(16, 16))
        phi = solve_poisson_neumann(rhs)
        # verify -laplace(phi) ~ rhs - mean(rhs) in the interior
        lap = (
            -4 * phi[1:-1, 1:-1]
            + phi[2:, 1:-1]
            + phi[:-2, 1:-1]
            + phi[1:-1, 2:]
            + phi[1:-1, :-2]
        )
        target = rhs - rhs.mean()
        corr = np.corrcoef((-lap).ravel(), target[1:-1, 1:-1].ravel())[0, 1]
        assert corr > 0.95
