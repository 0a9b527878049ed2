"""Tests for the quadratic placement engine."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.qp import NET_MODELS, QPOptions, build_axis_systems, solve_qp
from tests.conftest import scipy_csr

DIE = Rect(0, 0, 10, 10)


def chain_netlist():
    nl = Netlist(DIE)
    a = nl.add_cell("a", 1, 1, x=5, y=5)
    b = nl.add_cell("b", 1, 1, x=5, y=5)
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
        system, _ = build_axis_systems(nl)
        a = scipy_csr(system.matrix).toarray()
        assert np.allclose(a, a.T)
        eigenvalues = np.linalg.eigvalsh(a)
        assert eigenvalues.min() > 0

    def test_fixed_cells_enter_rhs(self):
        nl = chain_netlist()
        nl.set_cells([1], fixed=True)
        nl.x[1] = 8.0
        system, _ = build_axis_systems(nl)
        assert system.num_cell_unknowns == 1
        # a's optimum: midpoint of (0, 8) with equal weights
        x, _ = solve_qp(nl)
        assert x[0] == pytest.approx(4.0, abs=1e-5)

    def test_pin_offsets_affect_solution(self):
        nl = Netlist(DIE)
        a = nl.add_cell("a", 2, 1, x=5, y=5)
        nl.add_net("n", [Pin(a.index, 1.0, 0.0), Pin.terminal(6, 5)])
        x, _ = solve_qp(nl)
        # pin at center+1 should land on 6 -> center at 5
        assert x[0] == pytest.approx(5.0, abs=1e-5)

    def test_nets_subset(self):
        nl = chain_netlist()
        system_all, _ = build_axis_systems(nl)
        system_sub, _ = build_axis_systems(nl, net_ids=np.array([0]))
        assert system_sub.matrix.nnz < system_all.matrix.nnz

    def test_unknown_model_rejected(self):
        nl = chain_netlist()
        with pytest.raises(ValueError):
            build_axis_systems(nl, model="resistor")

    def test_bad_mask_shape(self):
        nl = chain_netlist()
        with pytest.raises(ValueError):
            build_axis_systems(nl, movable_mask=np.array([True]))


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
        # only cell a is anchored (b's weight is 0), at x = 9
        solve_qp(nl, anchors=([9.0, 9.0], [5.0, 5.0], np.array([10.0, 0.0])))
        assert nl.x[0] > free

    def test_strong_anchor_dominates(self):
        nl = chain_netlist()
        solve_qp(nl, anchors=([9.0, 0.0], [9.0, 0.0], np.array([1e6, 0.0])))
        assert nl.x[0] == pytest.approx(9.0, abs=1e-3)
        assert nl.y[0] == pytest.approx(9.0, abs=1e-3)


class TestB2B:
    def test_b2b_reduces_hpwl_vs_start(self):
        rng = np.random.default_rng(1)
        nl = Netlist(DIE)
        for i in range(30):
            nl.add_cell(f"c{i}", 0.5, 0.5,
                        x=float(rng.uniform(1, 9)), y=float(rng.uniform(1, 9)))
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


# ----------------------------------------------------------------------
# an independent oracle: the dense quadratic form of E(x), written from
# the model definitions in repro.qp.models' docstring over Net / Pin
# objects, sharing no code with the assembly
# ----------------------------------------------------------------------
def _oracle_netlist():
    """Fixed cells, terminals, pin offsets, degrees 1-6, a weighted
    net, a net with no movable pin and b2b ties."""
    rng = np.random.default_rng(7)
    nl = Netlist(DIE)
    for i in range(9):
        nl.add_cell(
            f"c{i}", 1, 1,
            x=float(rng.uniform(1, 9)), y=float(rng.uniform(1, 9)),
            fixed=i in (2, 6),
        )
    nl.x[4], nl.y[4] = nl.x[3], nl.y[3]  # b2b: coinciding pins
    # b2b: net "ties" has two lowest and two highest pins on x
    nl.x[1] = nl.x[7] = 1.5
    nl.x[5] = nl.x[8] = 8.5
    nl.add_net("t2", [Pin(0, 0.3, -0.2), Pin.terminal(0.5, 9.0)])
    nl.add_net("c2", [Pin(0), Pin(1, -0.25, 0.1)], weight=2.5)
    nl.add_net("c3", [Pin(1), Pin(2, 0.4, 0.4), Pin(3)])
    nl.add_net("lonely", [Pin(5)])
    nl.add_net("c4", [Pin(3, 0.1, 0.0), Pin(4), Pin(5), Pin.terminal(10, 0)])
    nl.add_net("fixed", [Pin(2), Pin(6), Pin.terminal(3, 3)])
    nl.add_net("same", [Pin(3), Pin(4)])
    nl.add_net(
        "c6", [Pin(0), Pin(8), Pin(6, -0.3, 0.2), Pin(5), Pin(7), Pin(1)],
        weight=0.5,
    )
    nl.add_net("c5", [Pin(7), Pin(8), Pin(4), Pin(0), Pin(2)], weight=1.5)
    nl.add_net("ties", [Pin(5), Pin(1), Pin(7), Pin(8), Pin(3)])
    return nl


def _oracle_springs(model, net, coords):
    """``(pin a, pin b or None = the star center, weight)`` of one net."""
    p = len(net.pins)
    if model == "b2b":
        lo = int(np.argmin(coords))
        hi = int(np.argmax(coords))
        if lo == hi:
            hi = (lo + 1) % p
        out = []
        for b in (lo, hi):
            for i in range(p):
                if i == b or (b == hi and i == lo):
                    continue
                dist = max(abs(coords[i] - coords[b]), 1e-3)
                out.append((i, b, net.weight * 2.0 / ((p - 1) * dist)))
        return out
    if model == "star" or (model == "hybrid" and p > 3):
        return [(i, None, net.weight * p / (p - 1)) for i in range(p)]
    return [
        (i, j, net.weight / (p - 1))
        for i in range(p)
        for j in range(i + 1, p)
    ]


def _oracle_system(nl, model, axis, mask, net_ids, anchors, reg):
    """Dense (A, b) with A x = b the minimizer of E along one axis.

    Unknowns: the cells of ``mask`` in index order, then one star
    center per star-modelled net in net order.  A net without a
    movable pin is constant and contributes nothing; the tiny
    regularization holds every cell unknown at its current position
    and every star center at 0."""
    pos = nl.x if axis == 0 else nl.y
    cells = [i for i in range(nl.num_cells) if mask[i]]
    col = {c: k for k, c in enumerate(cells)}
    nets = [nl.nets[i] for i in net_ids if nl.nets[i].degree >= 2]
    stars = [
        n for n in nets
        if model == "star" or (model == "hybrid" and n.degree > 3)
    ]
    n = len(cells) + len(stars)
    a = np.zeros((n, n))
    b = np.zeros(n)

    def pin_term(pin):
        """(unknown or None, constant) of one pin along the axis."""
        off = pin.offset_x if axis == 0 else pin.offset_y
        if pin.cell_index < 0:
            return None, off
        if pin.cell_index in col:
            return col[pin.cell_index], off
        return None, pos[pin.cell_index] + off

    for net in nets:
        terms = [pin_term(pin) for pin in net.pins]
        if all(u is None for u, _c in terms):
            continue
        coords = [
            pos[pin.cell_index] + c if u is not None else c
            for pin, (u, c) in zip(net.pins, terms)
        ]
        for i, j, w in _oracle_springs(model, net, coords):
            # w * (v . x + k)^2 adds w v v^T to A and -w k v to b
            v = np.zeros(n)
            ui, ki = terms[i]
            uj, kj = (
                (len(cells) + stars.index(net), 0.0) if j is None else terms[j]
            )
            if ui is not None:
                v[ui] += 1.0
            if uj is not None:
                v[uj] -= 1.0
            a += w * np.outer(v, v)
            b -= w * (ki - kj) * v
    if anchors is not None:
        targets = anchors[axis]
        weights = np.broadcast_to(anchors[2], (nl.num_cells,))
        for c, k in col.items():
            if weights[c] > 0:
                a[k, k] += weights[c]
                b[k] += weights[c] * targets[c]
    for k in range(n):
        a[k, k] += reg
        if k < len(cells):
            b[k] += reg * pos[cells[k]]
    return a, b


class TestAssemblyOracle:
    """Both axes' matrix and rhs against the dense oracle, for every
    model, on the whole netlist and on a local QP."""

    CASES = {
        "global": {},
        "local": {
            "mask": [True, True, False, True, True, False, False, True, True],
            "net_ids": [1, 2, 3, 4, 5, 6, 8],
            "anchors": (
                np.linspace(1, 9, 9),
                np.linspace(9, 1, 9),
                np.array([2.0, 0.0, 3.0, 1.5, 0.5, 4.0, 1.0, 0.0, 2.0]),
            ),
        },
        "scalar_weight": {"anchors": (np.full(9, 4.0), np.zeros(9), 0.75)},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("model", NET_MODELS)
    def test_matches_the_dense_oracle(self, model, case):
        nl = _oracle_netlist()
        spec = self.CASES[case]
        mask = np.asarray(spec.get("mask", ~nl.fixed_mask))
        net_ids = spec.get("net_ids")
        anchors = spec.get("anchors")
        reg = 1e-3
        systems = build_axis_systems(
            nl,
            model=model,
            movable_mask=spec.get("mask"),
            net_ids=None if net_ids is None else np.array(net_ids),
            anchors=anchors,
            regularization=reg,
        )
        ids = range(nl.num_nets) if net_ids is None else net_ids
        for axis, system in enumerate(systems):
            a, b = _oracle_system(nl, model, axis, mask, ids, anchors, reg)
            assert system.matrix.shape == a.shape
            dense = scipy_csr(system.matrix).toarray()
            assert np.allclose(dense, a, rtol=1e-12)
            assert np.allclose(system.rhs, b, rtol=1e-12)
            assert system.num_cell_unknowns == int(mask.sum())
        if model == "b2b":
            assert systems[0].matrix is not systems[1].matrix
        else:
            assert systems[0].matrix is systems[1].matrix
