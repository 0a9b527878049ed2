"""Tests for the detailed placement refinement."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import check_legality, legalize_with_movebounds
from repro.legalize.detailed import detailed_place
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin
from repro.place import BonnPlaceFBP
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)

DIE = Rect(0, 0, 40, 10)


class TestBasics:
    def test_moves_cell_toward_its_net(self):
        nl = Netlist(DIE, row_height=1.0, site_width=0.5)
        a = nl.add_cell("a", 2, 1, x=2, y=0.5)      # far from partner
        b = nl.add_cell("b", 2, 1, x=38, y=9.5, fixed=True)
        nl.add_net("n", [Pin(a.index), Pin(b.index)])
        before = nl.hpwl()
        report = detailed_place(nl)
        assert report.moves >= 1
        assert nl.hpwl() < before
        assert check_legality(nl).is_legal

    def test_never_degrades(self):
        spec = NetlistSpec("dp", 150, utilization=0.5, num_pads=8)
        nl, _ = generate_netlist(spec, seed=0)
        BonnPlaceFBP().place(nl, MoveBoundSet(nl.die))
        before = nl.hpwl()
        report = detailed_place(nl)
        assert report.hpwl_after <= before + 1e-6
        assert report.hpwl_after == pytest.approx(nl.hpwl())

    def test_stays_legal(self):
        spec = NetlistSpec("dp", 200, utilization=0.55, num_pads=8)
        nl, _ = generate_netlist(spec, seed=1)
        BonnPlaceFBP().place(nl, MoveBoundSet(nl.die))
        detailed_place(nl)
        rep = check_legality(nl)
        assert rep.overlaps == 0
        assert rep.off_row == 0
        assert rep.out_of_die == 0

    def test_improvement_metric(self):
        spec = NetlistSpec("dp", 150, utilization=0.5, num_pads=8)
        nl, _ = generate_netlist(spec, seed=2)
        BonnPlaceFBP().place(nl, MoveBoundSet(nl.die))
        report = detailed_place(nl)
        assert 0.0 <= report.improvement < 1.0

    def test_empty_design(self):
        nl = Netlist(DIE)
        report = detailed_place(nl)
        assert report.moves == 0 and report.swaps == 0


class TestWithMovebounds:
    def test_respects_movebounds(self):
        spec = NetlistSpec("dpmb", 200, utilization=0.5, num_pads=8)
        nl, logical = generate_netlist(spec, seed=3)
        bounds = attach_movebounds(
            nl, logical,
            [MoveBoundSpec("m", 0.2, density=0.6)],
            seed=3,
        )
        BonnPlaceFBP().place(nl, bounds)
        assert bounds.violations(nl) == []
        dec = decompose_regions(nl.die, bounds, nl.blockages)
        detailed_place(nl, bounds, dec)
        assert bounds.violations(nl) == []
        assert check_legality(nl, bounds).is_legal

    def test_swap_counts_reported(self):
        spec = NetlistSpec("dp", 180, utilization=0.6, num_pads=8)
        nl, _ = generate_netlist(spec, seed=4)
        BonnPlaceFBP().place(nl, MoveBoundSet(nl.die))
        report = detailed_place(nl, passes=3)
        assert report.passes >= 1
        assert report.moves + report.swaps >= 0
