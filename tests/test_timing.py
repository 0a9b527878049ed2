"""Tests for the STA and timing-driven placement loop."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.timing import analyze_timing, reweight_nets, timing_driven_place
from repro.workloads import NetlistSpec, generate_netlist

DIE = Rect(0, 0, 60, 60)


def _chain_netlist():
    """PI -> a -> b -> PO with known geometry."""
    nl = Netlist(DIE)
    a = nl.add_cell("a", 1, 1, x=10, y=10)
    b = nl.add_cell("b", 1, 1, x=30, y=10)
    nl.add_net("pi", [Pin.terminal(0, 10), Pin(a.index)])     # delay 10
    nl.add_net("ab", [Pin(a.index), Pin(b.index)])            # delay 20
    nl.add_net("po", [Pin(b.index), Pin.terminal(60, 10)])    # delay 30
    return nl


class TestSTA:
    def test_chain_arrivals(self):
        nl = _chain_netlist()
        report = analyze_timing(nl)
        # arrival(a) = 10 (PI net), arrival(b) = 10 + 1 + 20 = 31
        assert report.arrival[0] == pytest.approx(10)
        assert report.arrival[1] == pytest.approx(31)
        # critical path = worst endpoint arrival (cell b)
        assert report.critical_path == pytest.approx(31)

    def test_criticality_on_chain(self):
        nl = _chain_netlist()
        report = analyze_timing(nl)
        # the a->b net lies on the single path: criticality 1
        assert report.net_criticality[1] == pytest.approx(1.0)

    def test_side_path_less_critical(self):
        nl = Netlist(DIE)
        a = nl.add_cell("a", 1, 1, x=10, y=10)
        b = nl.add_cell("b", 1, 1, x=50, y=10)   # long branch
        c = nl.add_cell("c", 1, 1, x=12, y=10)   # short branch
        nl.add_net("pi", [Pin.terminal(0, 10), Pin(a.index)])
        long_net = nl.add_net("long", [Pin(a.index), Pin(b.index)])
        short_net = nl.add_net("short", [Pin(a.index), Pin(c.index)])
        report = analyze_timing(nl)
        crit_long = report.net_criticality[1]
        crit_short = report.net_criticality[2]
        assert crit_long > crit_short

    def test_cycle_broken(self):
        nl = Netlist(DIE)
        a = nl.add_cell("a", 1, 1, x=10, y=10)
        b = nl.add_cell("b", 1, 1, x=20, y=10)
        nl.add_net("ab", [Pin(a.index), Pin(b.index)])
        nl.add_net("ba", [Pin(b.index), Pin(a.index)])  # cycle
        report = analyze_timing(nl)
        assert report.broken_arcs == 1
        assert np.isfinite(report.critical_path)

    def test_empty_netlist(self):
        nl = Netlist(DIE)
        report = analyze_timing(nl)
        assert report.critical_path == 0.0

    def test_critical_nets_query(self):
        nl = _chain_netlist()
        report = analyze_timing(nl)
        assert 1 in report.critical_nets(0.9)


class TestReweighting:
    def test_critical_nets_gain_weight(self):
        nl = _chain_netlist()
        report = analyze_timing(nl)
        reweight_nets(nl, report, alpha=3.0)
        assert nl.nets[1].weight > 1.0  # the critical a->b net

    def test_base_weights_no_compounding(self):
        nl = _chain_netlist()
        base = [n.weight for n in nl.nets]
        report = analyze_timing(nl)
        reweight_nets(nl, report, alpha=3.0, base_weights=base)
        w1 = nl.nets[1].weight
        reweight_nets(nl, report, alpha=3.0, base_weights=base)
        assert nl.nets[1].weight == pytest.approx(w1)

    def test_hpwl_cache_invalidated(self):
        nl = _chain_netlist()
        before = nl.hpwl()
        report = analyze_timing(nl)
        reweight_nets(nl, report, alpha=10.0)
        assert nl.hpwl() > before  # heavier weights raise weighted HPWL


class TestLoop:
    def test_critical_path_improves(self):
        spec = NetlistSpec("td", 250, utilization=0.5, num_pads=12)
        nl, _ = generate_netlist(spec, seed=4)
        first, final = timing_driven_place(nl, iterations=2, alpha=4.0)
        # the loop returns the best placement seen, so it never regresses
        assert final.critical_path <= first.critical_path + 1e-9

    def test_weights_restored(self):
        spec = NetlistSpec("td", 150, utilization=0.5, num_pads=8)
        nl, _ = generate_netlist(spec, seed=5)
        base = [n.weight for n in nl.nets]
        timing_driven_place(nl, iterations=1)
        assert [n.weight for n in nl.nets] == base
