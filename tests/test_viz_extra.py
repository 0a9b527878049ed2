"""Additional viz coverage: flow graphs without results, empty inputs,
and geometry edge cases in the renderers."""

import pytest

from repro.fbp import build_fbp_model
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from repro.viz import render_flow_graph, render_placement, render_regions
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


class TestRenderers:
    def test_flow_graph_without_result(self):
        nl = build_random_netlist(40, 20, 0, DIE)
        mbs = MoveBoundSet(DIE)
        grid = Grid(DIE, 2, 2)
        grid.build_regions(decompose_regions(DIE, mbs))
        model = build_fbp_model(nl, mbs, grid)
        out = render_flow_graph(model)
        assert "|V|=" in out
        assert "flow-carrying" not in out

    def test_flow_graph_truncates_long_lists(self):
        import numpy as np

        nl = build_random_netlist(400, 100, 1, DIE)
        rng = np.random.default_rng(0)
        movable = [c.index for c in nl.cells if not c.fixed]
        nl.x[movable] = rng.uniform(1, 12, len(movable))
        nl.y[movable] = rng.uniform(1, 12, len(movable))
        mbs = MoveBoundSet(DIE)
        grid = Grid(DIE, 8, 8)
        grid.build_regions(decompose_regions(DIE, mbs))
        model = build_fbp_model(nl, mbs, grid, density_target=0.5)
        result = model.solve()
        out = render_flow_graph(model, result, max_arcs=3)
        if len(model.external_flows(result)) > 3:
            assert "more" in out

    def test_placement_empty_netlist(self):
        nl = Netlist(DIE)
        out = render_placement(nl, width=20, height=8)
        assert len(out.splitlines()) == 8

    def test_regions_no_bounds(self):
        dec = decompose_regions(DIE, MoveBoundSet(DIE))
        out = render_regions(dec, width=20, height=8)
        assert "." in out
        assert "unconstrained" in out

    def test_placement_cell_on_die_edge(self):
        nl = Netlist(DIE)
        nl.add_cell("edge", 1, 1, x=100, y=100)  # exactly on the corner
        out = render_placement(nl, width=10, height=10)
        assert any(ch not in " \n" for ch in out)
