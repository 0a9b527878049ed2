"""Bookshelf loader robustness on malformed inputs."""

import os

import pytest

from repro.bookshelf import load_instance, save_instance
from repro.geometry import Rect
from repro.netlist import Netlist, Pin


def _write(path, name, ext, content):
    with open(os.path.join(path, f"{name}.{ext}"), "w") as f:
        f.write(content)


class TestLoaderErrors:
    def test_missing_die_line(self, tmp_path):
        d = str(tmp_path)
        _write(d, "bad", "scl", "Blockage 0 0 1 1\n")
        _write(d, "bad", "nodes", "NumNodes : 0\n")
        _write(d, "bad", "nets", "NumNets : 0\n")
        _write(d, "bad", "pl", "")
        with pytest.raises(ValueError, match="no Die line"):
            load_instance(d, "bad")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(str(tmp_path), "ghost")

    def test_cell_without_position_defaults_to_center(self, tmp_path):
        d = str(tmp_path)
        _write(d, "c", "scl", "Die 0 0 10 10 RowHeight 1 SiteWidth 0.5\n")
        _write(d, "c", "nodes", "NumNodes : 1\ncellA 1 1\n")
        _write(d, "c", "nets", "NumNets : 0\n")
        _write(d, "c", "pl", "")  # no placement line for cellA
        nl, _ = load_instance(d, "c")
        assert (nl.x[0], nl.y[0]) == (5, 5)

    def test_empty_mb_lines_skipped(self, tmp_path):
        d = str(tmp_path)
        nl = Netlist(Rect(0, 0, 10, 10), name="m")
        nl.add_cell("a", 1, 1, x=5, y=5)
        from repro.movebounds import MoveBoundSet

        mbs = MoveBoundSet(nl.die)
        mbs.add_rects("b1", [Rect(0, 0, 4, 4)])
        save_instance(d, nl, mbs)
        with open(os.path.join(d, "m.mb"), "a") as f:
            f.write("\nshort line\n")  # malformed extras
        _nl, bounds = load_instance(d, "m")
        assert bounds.names() == ["b1"]

    def test_net_weight_default(self, tmp_path):
        d = str(tmp_path)
        _write(d, "w", "scl", "Die 0 0 10 10 RowHeight 1 SiteWidth 0.5\n")
        _write(d, "w", "nodes", "NumNodes : 2\na 1 1\nb 1 1\n")
        _write(
            d, "w", "nets",
            "NumNets : 1\nNetDegree : 2 n1\n  a : 0 0\n  b : 0 0\n",
        )
        _write(d, "w", "pl", "a 1 1\nb 9 9\n")
        nl, _ = load_instance(d, "w")
        assert nl.nets[0].weight == 1.0
        assert nl.hpwl() == pytest.approx(16.0)
