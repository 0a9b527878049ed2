"""Tests for the ASCII renderers and the command-line interface."""

import pytest

from repro.bookshelf import load_instance
from repro.cli import main
from repro.fbp import build_fbp_model
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.viz import render_flow_graph, render_placement, render_regions
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


class TestViz:
    def test_render_regions(self, figure1_bounds):
        dec = decompose_regions(DIE, figure1_bounds)
        out = render_regions(dec, width=40, height=16)
        assert "region covered by" in out
        assert "." in out  # default region present
        # three lettered regions: N, M, M+L
        legend_lines = [l for l in out.splitlines() if "= region" in l]
        assert len(legend_lines) == 3

    def test_render_placement(self):
        nl = build_random_netlist(60, 10, seed=0)
        out = render_placement(nl, width=40, height=16)
        assert len(out.splitlines()) == 16
        assert any(ch != " " for ch in out)

    def test_render_placement_with_bounds(self, figure1_bounds):
        nl = build_random_netlist(60, 10, seed=0)
        out = render_placement(nl, figure1_bounds, width=40, height=16)
        assert "N" in out or "M" in out or "L" in out

    def test_render_flow_graph(self):
        nl = build_random_netlist(80, 40, seed=0)
        mbs = MoveBoundSet(DIE)
        grid = Grid(DIE, 4, 4)
        grid.build_regions(decompose_regions(DIE, mbs))
        model = build_fbp_model(nl, mbs, grid)
        result = model.solve()
        out = render_flow_graph(model, result)
        assert "|V|=" in out and "|E|=" in out
        assert "external arcs" in out


class TestCLI:
    def test_generate_check_place_score(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "Rabe", "--movebounds", "--out", out,
                     "--suite", "movebound"]) == 0
        assert main(["check", "Rabe", "--dir", out]) == 0
        assert main(["place", "Rabe", "--dir", out, "--placer", "fbp"]) == 0
        assert main(["score", "Rabe", "--dir", out]) == 0

    def test_generate_table2(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "Dagmar", "--out", out]) == 0
        nl, mbs = load_instance(out, "Dagmar")
        assert nl.num_cells > 100 and len(mbs) == 0

    def test_generate_ispd(self, tmp_path):
        out = str(tmp_path)
        assert main(["generate", "nb2", "--out", out, "--suite", "ispd"]) == 0

    def test_unknown_instance(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "NoSuchChip", "--out", str(tmp_path)])

    def test_unknown_placer_choice(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["place", "Rabe", "--placer", "magic"])
