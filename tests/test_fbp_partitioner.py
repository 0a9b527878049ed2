"""Tests for the fbp_partition wrapper (flags, reports, timing)."""

import numpy as np
import pytest

from repro.fbp import fbp_partition
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _setup(seed=0, num_cells=150):
    nl = build_random_netlist(num_cells, 100, seed, DIE)
    bounds = MoveBoundSet(DIE)
    dec = decompose_regions(DIE, bounds, nl.blockages)
    grid = Grid(DIE, 4, 4)
    grid.build_regions(dec)
    return nl, bounds, grid


class TestReport:
    def test_timings_populated(self):
        nl, bounds, grid = _setup()
        report = fbp_partition(nl, bounds, grid, density_target=0.9)
        assert report.feasible
        assert report.flow_seconds > 0
        assert report.realization_seconds > 0
        assert np.isfinite(report.flow_cost)

    def test_stats_populated(self):
        nl, bounds, grid = _setup(seed=1)
        report = fbp_partition(nl, bounds, grid, density_target=0.9)
        assert report.stats.num_windows == 16
        assert report.stats.num_nodes > 0

    def test_keep_model(self):
        nl, bounds, grid = _setup(seed=2)
        report = fbp_partition(
            nl, bounds, grid, density_target=0.9, keep_model=True
        )
        assert report.model is not None
        assert report.model.stats.num_nodes == report.stats.num_nodes

    def test_model_not_kept_by_default(self):
        nl, bounds, grid = _setup(seed=3)
        report = fbp_partition(nl, bounds, grid, density_target=0.9)
        assert report.model is None

    def test_explicit_cell_windows(self):
        nl, bounds, grid = _setup(seed=5)
        # assign all cells to window 0 explicitly; a low density target
        # makes the single window overfull so flow must move area out
        cw = np.zeros(nl.num_cells, dtype=np.int64)
        report = fbp_partition(
            nl, bounds, grid, density_target=0.2, cell_windows=cw,
            run_local_qp=False,
        )
        assert report.feasible
        assert report.realization.arcs_realized > 0
