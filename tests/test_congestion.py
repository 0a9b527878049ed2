"""Tests for congestion estimation and cell inflation."""

import numpy as np
import pytest

from repro.congestion import (
    congestion_map,
    deflate_cells,
    inflate_cells,
)
from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.workloads import NetlistSpec, generate_netlist

DIE = Rect(0, 0, 40, 40)


def _crowded_netlist():
    """Dense, heavily wired corner + sparse remainder."""
    nl = Netlist(DIE, row_height=1.0, site_width=0.5)
    rng = np.random.default_rng(0)
    for i in range(60):
        nl.add_cell(f"c{i}", 1.0, 1.0,
                    x=float(rng.uniform(1, 8)), y=float(rng.uniform(1, 8)))
    for i in range(20):
        nl.add_cell(f"s{i}", 1.0, 1.0,
                    x=float(rng.uniform(20, 39)),
                    y=float(rng.uniform(20, 39)))
    for j in range(200):  # dense wiring in the corner
        a, b = rng.choice(60, 2, replace=False)
        nl.add_net(f"n{j}", [Pin(int(a)), Pin(int(b))])
    for j in range(10):
        a, b = rng.choice(20, 2, replace=False)
        nl.add_net(f"m{j}", [Pin(60 + int(a)), Pin(60 + int(b))])
    return nl


class TestCongestionMap:
    def test_normalized_average(self):
        nl = _crowded_netlist()
        cmap = congestion_map(nl, bins=8)
        positive = cmap[cmap > 0]
        assert positive.mean() == pytest.approx(1.0, rel=1e-6)

    def test_hotspot_detected(self):
        nl = _crowded_netlist()
        cmap = congestion_map(nl, bins=8)
        # the crowded corner bins are well above average
        assert cmap[0, 0] > 2.0
        assert cmap[0, 0] > cmap[5, 5]

    def test_no_nets_no_congestion(self):
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=5, y=5)
        cmap = congestion_map(nl, bins=4)
        assert np.all(cmap == 0)


class TestInflation:
    def test_inflates_hotspot_only(self):
        nl = _crowded_netlist()
        result = inflate_cells(nl, threshold=1.4, bins=8)
        assert result.inflated_cells > 0
        # sparse-region cells untouched
        for i in range(60, 80):
            assert i not in result.original_widths

    def test_area_accounting(self):
        nl = _crowded_netlist()
        before = nl.total_cell_area()
        result = inflate_cells(nl, bins=8)
        assert nl.total_cell_area() == pytest.approx(
            before + result.added_area
        )

    def test_factor_cap(self):
        nl = _crowded_netlist()
        result = inflate_cells(nl, max_factor=1.25, bins=8)
        assert result.max_factor <= 1.25 + 1e-9
        for index, w0 in result.original_widths.items():
            assert nl.cells[index].width <= w0 * 1.25 + 1e-9

    def test_deflate_roundtrip(self):
        nl = _crowded_netlist()
        before = [c.width for c in nl.cells]
        result = inflate_cells(nl, bins=8)
        deflate_cells(nl, result)
        assert [c.width for c in nl.cells] == before

    def test_threshold_disables(self):
        nl = _crowded_netlist()
        result = inflate_cells(nl, threshold=1e9, bins=8)
        assert result.inflated_cells == 0


class TestInflationVsPlacers:
    def test_fbp_feasible_after_inflation(self):
        """The §IV claim: FBP re-establishes feasibility for any given
        placement, including after congestion inflation."""
        from repro.fbp import fbp_partition
        from repro.grid import Grid
        from repro.movebounds import MoveBoundSet, decompose_regions

        spec = NetlistSpec("infl", 200, utilization=0.5, num_pads=8)
        nl, _ = generate_netlist(spec, seed=3)
        inflate_cells(nl, threshold=1.0, strength=0.4, bins=6)
        bounds = MoveBoundSet(nl.die)
        dec = decompose_regions(nl.die, bounds, nl.blockages)
        grid = Grid(nl.die, 4, 4)
        grid.build_regions(dec)
        report = fbp_partition(nl, bounds, grid, density_target=0.95)
        assert report.feasible


class TestInflationReachesTheSupplies:
    """Inflation has to change the areas every consumer reads.  The
    cached ``cell_sizes()`` once kept the pre-inflation areas, so the
    FBP model, realization and ``partition_cells`` never saw an
    inflated cell."""

    @staticmethod
    def _model_supply(nl):
        from repro.fbp import fbp_partition
        from repro.grid import Grid
        from repro.movebounds import MoveBoundSet, decompose_regions

        bounds = MoveBoundSet(nl.die)
        grid = Grid(nl.die, 4, 4)
        grid.build_regions(decompose_regions(nl.die, bounds, nl.blockages))
        report = fbp_partition(nl, bounds, grid, density_target=0.95,
                               run_local_qp=False, keep_model=True)
        return sum(report.model.group_supply.values())

    def test_sizes_and_supplies_follow_inflate_and_deflate(self):
        spec = NetlistSpec("infl", 200, utilization=0.5, num_pads=8)
        nl, _ = generate_netlist(spec, seed=3)
        base = nl.snapshot()
        sizes = nl.cell_sizes().copy()
        area = nl.movable_area()
        assert self._model_supply(nl) == pytest.approx(area, rel=1e-12)

        nl.restore(base)
        result = inflate_cells(nl, threshold=1.0, strength=0.4, bins=6)
        assert result.inflated_cells > 0
        assert nl.movable_area() > area
        np.testing.assert_array_equal(
            nl.cell_sizes(), [c.width * c.height for c in nl.cells]
        )
        nl.restore(base)
        assert self._model_supply(nl) == pytest.approx(
            nl.movable_area(), rel=1e-12
        )

        deflate_cells(nl, result)
        np.testing.assert_array_equal(nl.cell_sizes(), sizes)
        nl.restore(base)
        assert self._model_supply(nl) == pytest.approx(area, rel=1e-12)


class TestExampleOverflow:
    """``examples/congestion_rebalance.py``'s input, pinned: seed 9,
    inflation threshold 1.2 / strength 0.5 / max factor 1.8 on 8x8
    bins, incremental FBP on an 8x8 grid at density 0.97 with the
    local QP on."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.fbp import fbp_partition
        from repro.grid import Grid
        from repro.movebounds import MoveBoundSet, decompose_regions
        from repro.place import BonnPlaceFBP, BonnPlaceOptions

        spec = NetlistSpec("congest", num_cells=500, utilization=0.60,
                           num_pads=12)
        nl, _ = generate_netlist(spec, seed=9)
        bounds = MoveBoundSet(nl.die)
        BonnPlaceFBP(BonnPlaceOptions(legalize=False)).place(nl, bounds)
        inflate_cells(nl, threshold=1.2, strength=0.5, max_factor=1.8,
                      bins=8)
        largest = float(nl.cell_sizes()[nl.movable_indices].max())
        grid = Grid(nl.die, 8, 8)
        grid.build_regions(decompose_regions(nl.die, bounds, nl.blockages))
        report = fbp_partition(nl, bounds, grid, density_target=0.97)
        return report, largest

    def test_stays_globally_feasible(self, run):
        report, _largest = run
        assert report.feasible

    # the multi-arc rounding debt this could hit is pinned, solver-free,
    # by tests/test_fbp_realization.py::TestFanInRounding
    def test_overflow_within_the_largest_cell(self, run):
        report, largest = run
        assert report.realization.max_overflow <= largest + 1e-6
