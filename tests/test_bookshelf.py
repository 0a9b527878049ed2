"""Round-trip tests for the Bookshelf-style I/O."""

import os

import numpy as np
import pytest

from repro.bookshelf import load_instance, save_instance
from repro.geometry import Rect
from repro.movebounds import EXCLUSIVE, MoveBoundSet
from repro.netlist import Netlist, Pin
from repro.workloads import NetlistSpec, generate_netlist, movebound_instance


def _build():
    die = Rect(0, 0, 50, 40)
    nl = Netlist(die, row_height=2.0, site_width=0.5, name="demo")
    nl.add_blockage(Rect(10, 10, 20, 20))
    nl.add_cell("a", 2, 2, x=5, y=5, movebound="m")
    nl.add_cell("b", 3, 2, x=30, y=30)
    nl.add_cell("pad_cell", 1, 1, x=0.5, y=0.5, fixed=True)
    nl.add_net("n1", [Pin(0, 0.5, 0.0), Pin(1)], weight=2.0)
    nl.add_net("n2", [Pin(1), Pin.terminal(50, 40)])
    mbs = MoveBoundSet(die)
    mbs.add_rects("m", [Rect(0, 0, 12, 12), Rect(12, 0, 24, 6)])
    mbs.add_rects("x", [Rect(30, 30, 45, 38)], EXCLUSIVE)
    return nl, mbs


class TestRoundTrip:
    def test_full_roundtrip(self, tmp_path):
        nl, mbs = _build()
        save_instance(str(tmp_path), nl, mbs)
        nl2, mbs2 = load_instance(str(tmp_path), "demo")

        assert nl2.num_cells == nl.num_cells
        assert nl2.num_nets == nl.num_nets
        assert nl2.die == nl.die
        assert nl2.row_height == nl.row_height
        assert nl2.site_width == nl.site_width
        assert np.allclose(nl2.x, nl.x)
        assert np.allclose(nl2.y, nl.y)
        assert nl2.blockages.area == pytest.approx(nl.blockages.area)

    def test_cell_attributes_roundtrip(self, tmp_path):
        nl, mbs = _build()
        save_instance(str(tmp_path), nl, mbs)
        nl2, _ = load_instance(str(tmp_path), "demo")
        assert nl2.cells[0].movebound == "m"
        assert nl2.cells[2].fixed
        assert nl2.cells[1].width == 3

    def test_net_attributes_roundtrip(self, tmp_path):
        nl, mbs = _build()
        save_instance(str(tmp_path), nl, mbs)
        nl2, _ = load_instance(str(tmp_path), "demo")
        n1 = nl2.nets[0]
        assert n1.weight == 2.0
        assert n1.pins[0].offset_x == 0.5
        n2 = nl2.nets[1]
        assert n2.pins[1].is_fixed_terminal
        assert (n2.pins[1].offset_x, n2.pins[1].offset_y) == (50, 40)

    def test_movebounds_roundtrip(self, tmp_path):
        nl, mbs = _build()
        save_instance(str(tmp_path), nl, mbs)
        _, mbs2 = load_instance(str(tmp_path), "demo")
        assert len(mbs2) == 2
        assert mbs2.get("m").area.area == pytest.approx(
            mbs.get("m").area.area
        )
        assert mbs2.get("x").is_exclusive

    def test_hpwl_preserved(self, tmp_path):
        nl, mbs = _build()
        hpwl = nl.hpwl()
        save_instance(str(tmp_path), nl, mbs)
        nl2, _ = load_instance(str(tmp_path), "demo")
        assert nl2.hpwl() == pytest.approx(hpwl)

    def test_no_movebounds_no_mb_file(self, tmp_path):
        nl, _ = _build()
        save_instance(str(tmp_path), nl, MoveBoundSet(nl.die))
        assert not (tmp_path / "demo.mb").exists()
        _, mbs2 = load_instance(str(tmp_path), "demo")
        assert len(mbs2) == 0

    def test_suite_instance_roundtrip(self, tmp_path):
        inst = movebound_instance("Rabe", seed=0)
        save_instance(str(tmp_path), inst.netlist, inst.bounds)
        nl2, mbs2 = load_instance(str(tmp_path), "Rabe")
        assert nl2.hpwl() == pytest.approx(inst.netlist.hpwl())
        assert len(mbs2) == len(inst.bounds)


def _files(directory, name):
    return {
        f: open(os.path.join(directory, f), "rb").read()
        for f in sorted(os.listdir(directory))
        if f.startswith(name + ".")
    }


def _generated(kind):
    if kind == "flat":
        nl, _logical = generate_netlist(
            NetlistSpec("flat", 400, num_pads=12, num_macros=2), seed=4
        )
        bounds = MoveBoundSet(nl.die)
    else:
        inst = movebound_instance("Rabe", seed=1)
        nl, bounds = inst.netlist, inst.bounds
    nl.add_net("lone", [Pin(3, 0.25, -0.5)])  # a degree-1 net
    nl.add_net("pads", [Pin.terminal(0.0, 1.5), Pin.terminal(2.0, 0.0)])
    nl.set_net_weights({0: 2.5, 7: 0.125, nl.num_nets - 1: 3.0})
    nl.add_blockage(Rect(nl.die.x_lo, nl.die.y_lo, nl.die.x_lo + 4.0,
                         nl.die.y_lo + 2.0))
    return nl, bounds


@pytest.mark.parametrize("kind", ["flat", "movebound"])
def test_save_load_save_gives_the_same_bytes(tmp_path, kind):
    nl, bounds = _generated(kind)
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    save_instance(first, nl, bounds)
    nl2, bounds2 = load_instance(first, nl.name)
    save_instance(second, nl2, bounds2)
    assert _files(first, nl.name) == _files(second, nl.name)
    assert (kind == "movebound") == os.path.exists(
        os.path.join(first, f"{nl.name}.mb")
    )
    assert list(nl2.nets) == list(nl.nets)
    assert nl2.hpwl() == nl.hpwl()


def test_offsets_and_weights_are_written_as_floats(tmp_path):
    """The pin table holds floats: a net built with int offsets and
    weight writes ``1.0``, not ``1``."""
    nl = Netlist(Rect(0, 0, 10, 10), name="ints")
    nl.add_cell("a", 2, 1, x=5, y=5)
    nl.add_net("n", [Pin(0, 1, 0), Pin.terminal(3, 4)], weight=2)
    save_instance(str(tmp_path), nl)
    assert (tmp_path / "ints.nets").read_text() == (
        "NumNets : 1\n"
        "NetDegree : 2 n 2.0\n"
        "  a : 1.0 0.0\n"
        "  PAD : 3.0 4.0\n"
    )
