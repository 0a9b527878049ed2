"""Tests for the wirelength models (HPWL / RMST / RSMT estimate)."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.metrics.wirelength import (
    net_hpwl,
    net_rmst,
    net_rsmt_estimate,
    wirelength_report,
)
from repro.netlist import Netlist, Pin

DIE = Rect(0, 0, 100, 100)


def _net_at(points, weight=1.0):
    nl = Netlist(DIE)
    pins = []
    for x, y in points:
        pins.append(Pin.terminal(x, y))
    net = nl.add_net("n", pins, weight)
    return nl, net


class TestPerNet:
    def test_two_pin_all_equal(self):
        nl, net = _net_at([(0, 0), (3, 4)])
        assert net_hpwl(nl, net) == 7
        assert net_rmst(nl, net) == 7
        assert net_rsmt_estimate(nl, net) == 7

    def test_three_pin_rsmt_is_hpwl(self):
        nl, net = _net_at([(0, 0), (10, 0), (5, 5)])
        assert net_rsmt_estimate(nl, net) == net_hpwl(nl, net) == 15

    def test_three_pin_rmst_exceeds_hpwl(self):
        nl, net = _net_at([(0, 0), (10, 0), (5, 5)])
        assert net_rmst(nl, net) >= net_hpwl(nl, net)

    def test_rmst_chain(self):
        nl, net = _net_at([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert net_rmst(nl, net) == 3

    def test_four_pin_star(self):
        # pins at the corners of a square: RMST = 3 sides = 30
        nl, net = _net_at([(0, 0), (10, 0), (0, 10), (10, 10)])
        assert net_rmst(nl, net) == pytest.approx(30)
        assert net_rsmt_estimate(nl, net) == pytest.approx(0.887 * 30)

    def test_degenerate(self):
        nl, net = _net_at([(5, 5)])
        assert net_hpwl(nl, net) == 0
        assert net_rmst(nl, net) == 0


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_hpwl_lower_bounds_rmst(self, seed):
        rng = np.random.default_rng(seed)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 50, (7, 2))]
        nl, net = _net_at(pts)
        assert net_rmst(nl, net) >= net_hpwl(nl, net) - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_estimate_between_hpwl_and_rmst(self, seed):
        rng = np.random.default_rng(seed)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 50, (8, 2))]
        nl, net = _net_at(pts)
        est = net_rsmt_estimate(nl, net)
        assert est <= net_rmst(nl, net) + 1e-9


class TestReport:
    def test_totals_and_ratio(self):
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=10, y=10)
        nl.add_cell("b", 1, 1, x=20, y=10)
        nl.add_net("n1", [Pin(0), Pin(1)], weight=2.0)
        report = wirelength_report(nl)
        assert report.hpwl == pytest.approx(20)
        assert report.rsmt_estimate == pytest.approx(20)
        assert report.rsmt_over_hpwl == pytest.approx(1.0)

    def test_ratio_grows_with_high_degree(self):
        rng = np.random.default_rng(0)
        nl = Netlist(DIE)
        for i in range(30):
            nl.add_cell(f"c{i}", 1, 1,
                        x=float(rng.uniform(0, 99)),
                        y=float(rng.uniform(0, 99)))
        nl.add_net("big", [Pin(i) for i in range(12)])
        report = wirelength_report(nl)
        assert report.rsmt_over_hpwl > 1.0
