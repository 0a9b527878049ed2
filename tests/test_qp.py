"""Tests for the quadratic placement engine."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.qp import QPOptions, build_axis_system, solve_qp

DIE = Rect(0, 0, 10, 10)


def chain_netlist():
    nl = Netlist(DIE)
    a = nl.add_cell("a", 1, 1, x=5, y=5)
    b = nl.add_cell("b", 1, 1, x=5, y=5)
    nl.finalize()
    nl.add_net("n1", [Pin.terminal(0, 0), Pin(a.index)])
    nl.add_net("n2", [Pin(a.index), Pin(b.index)])
    nl.add_net("n3", [Pin(b.index), Pin.terminal(10, 10)])
    return nl


class TestChain:
    @pytest.mark.parametrize("model", ["clique", "star", "hybrid"])
    def test_equispaced_solution(self, model):
        nl = chain_netlist()
        x, y = solve_qp(nl, QPOptions(net_model=model))
        assert x[0] == pytest.approx(10 / 3, abs=1e-5)
        assert x[1] == pytest.approx(20 / 3, abs=1e-5)
        assert y[0] == pytest.approx(10 / 3, abs=1e-5)

    def test_weighted_net_pulls(self):
        nl = chain_netlist()
        nl.set_net_weights({0: 10.0})  # strong pull to (0, 0)
        x, _ = solve_qp(nl)
        assert x[0] < 10 / 3


class TestStarCliqueEquivalence:
    def test_high_degree_net(self):
        """Star with weight p*w/(p-1) is exactly the clique after
        eliminating the star node."""
        rng = np.random.default_rng(0)
        nl = Netlist(DIE)
        for i in range(6):
            nl.add_cell(f"c{i}", 1, 1,
                        x=float(rng.uniform(1, 9)), y=float(rng.uniform(1, 9)))
        nl.finalize()
        nl.add_net("big", [Pin(i) for i in range(6)])
        nl.add_net("anchor", [Pin(0), Pin.terminal(0, 0)])
        nl.add_net("anchor2", [Pin(5), Pin.terminal(10, 10)])
        snap = nl.snapshot()
        xc, yc = solve_qp(nl, QPOptions(net_model="clique"), apply=False)
        nl.restore(snap)
        xs, ys = solve_qp(nl, QPOptions(net_model="star"), apply=False)
        assert np.allclose(xc, xs, atol=1e-5)
        assert np.allclose(yc, ys, atol=1e-5)


class TestSystemAssembly:
    def test_spd(self):
        nl = chain_netlist()
        system = build_axis_system(nl, 0)
        a = system.matrix.toarray()
        assert np.allclose(a, a.T)
        eigenvalues = np.linalg.eigvalsh(a)
        assert eigenvalues.min() > 0

    def test_fixed_cells_enter_rhs(self):
        nl = chain_netlist()
        nl.set_cells([1], fixed=True)
        nl.x[1] = 8.0
        system = build_axis_system(nl, 0)
        assert system.num_cell_unknowns == 1
        # a's optimum: midpoint of (0, 8) with equal weights
        x, _ = solve_qp(nl)
        assert x[0] == pytest.approx(4.0, abs=1e-5)

    def test_pin_offsets_affect_solution(self):
        nl = Netlist(DIE)
        a = nl.add_cell("a", 2, 1, x=5, y=5)
        nl.finalize()
        nl.add_net("n", [Pin(a.index, 1.0, 0.0), Pin.terminal(6, 5)])
        x, _ = solve_qp(nl)
        # pin at center+1 should land on 6 -> center at 5
        assert x[0] == pytest.approx(5.0, abs=1e-5)

    def test_nets_subset(self):
        nl = chain_netlist()
        system_all = build_axis_system(nl, 0)
        system_sub = build_axis_system(nl, 0, nets=[nl.nets[0]])
        assert system_sub.matrix.nnz < system_all.matrix.nnz

    def test_unknown_model_rejected(self):
        nl = chain_netlist()
        with pytest.raises(ValueError):
            build_axis_system(nl, 0, model="resistor")

    def test_bad_mask_shape(self):
        nl = chain_netlist()
        with pytest.raises(ValueError):
            build_axis_system(nl, 0, movable_mask=np.array([True]))


class TestLocalQP:
    def test_outside_cells_fixed(self):
        nl = chain_netlist()
        mask = np.array([True, False])
        x_before = nl.x[1]
        solve_qp(nl, movable_mask=mask)
        assert nl.x[1] == x_before  # b untouched
        # a sits at the weighted middle of (0,0) and b
        assert nl.x[0] == pytest.approx((0 + x_before) / 2, abs=1e-5)

    def test_apply_false_leaves_netlist(self):
        nl = chain_netlist()
        x0 = nl.x.copy()
        solve_qp(nl, apply=False)
        assert np.array_equal(nl.x, x0)


class TestAnchors:
    def test_anchor_pulls(self):
        nl = chain_netlist()
        solve_qp(nl)
        free = nl.x[0]
        nl.set_positions([5, 5], [5, 5])
        solve_qp(nl, anchors_x=[(0, 9.0, 10.0)])
        assert nl.x[0] > free

    def test_strong_anchor_dominates(self):
        nl = chain_netlist()
        solve_qp(nl, anchors_x=[(0, 9.0, 1e6)], anchors_y=[(0, 9.0, 1e6)])
        assert nl.x[0] == pytest.approx(9.0, abs=1e-3)


class TestB2B:
    def test_b2b_reduces_hpwl_vs_start(self):
        rng = np.random.default_rng(1)
        nl = Netlist(DIE)
        for i in range(30):
            nl.add_cell(f"c{i}", 0.5, 0.5,
                        x=float(rng.uniform(1, 9)), y=float(rng.uniform(1, 9)))
        nl.finalize()
        for j in range(25):
            members = rng.choice(30, size=3, replace=False)
            nl.add_net(f"n{j}", [Pin(int(c)) for c in members])
        nl.add_net("p1", [Pin(0), Pin.terminal(0, 0)])
        nl.add_net("p2", [Pin(1), Pin.terminal(10, 10)])
        before = nl.hpwl()
        solve_qp(nl, QPOptions(net_model="b2b"))
        assert nl.hpwl() < before

    def test_clamped_into_die(self):
        nl = chain_netlist()
        solve_qp(nl)
        assert not nl.check_in_die()
