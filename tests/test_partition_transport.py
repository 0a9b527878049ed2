"""Tests for the §III partitioning step (partition_cells and the
shared solve, solve_instances)."""

import numpy as np
import pytest

from repro.flows import RELAX_CHAIN_PARTITION
from repro.geometry import Rect, RectSet
from repro.netlist import Netlist
from repro.partitioning import (
    TransportTargets,
    build_instance,
    partition_cells,
    solve_instances,
)

DIE = Rect(0, 0, 100, 100)


def _netlist(cells):
    """cells: list of (x, y, width, movebound)"""
    nl = Netlist(DIE)
    for i, (x, y, w, mb) in enumerate(cells):
        nl.add_cell(f"c{i}", w, 1.0, x=x, y=y, movebound=mb)
    return nl


def _targets(entries):
    """entries: list of (key, capacity, rect, admitted_bounds or None=all)"""
    keys, caps, areas, admits = [], [], [], []
    for key, cap, rect, allowed in entries:
        keys.append(key)
        caps.append(cap)
        areas.append(RectSet([rect]))
        if allowed is None:
            admits.append(lambda b: True)
        else:
            admits.append(lambda b, allowed=frozenset(allowed): b in allowed)
    return TransportTargets(keys, np.array(caps, dtype=float), areas, admits)


class TestBasics:
    def test_nearest_assignment(self):
        nl = _netlist([(10, 10, 1, None), (90, 90, 1, None)])
        targets = _targets([
            ("left", 5.0, Rect(0, 0, 20, 20), None),
            ("right", 5.0, Rect(80, 80, 100, 100), None),
        ])
        out = partition_cells(nl, [0, 1], targets)
        assert out.feasible
        assert out.assignment == {0: "left", 1: "right"}
        assert out.cost == pytest.approx(0.0)

    def test_capacity_forces_split(self):
        nl = _netlist([(10, 10, 2, None), (11, 11, 2, None)])
        targets = _targets([
            ("near", 2.0, Rect(0, 0, 20, 20), None),
            ("far", 10.0, Rect(80, 80, 100, 100), None),
        ])
        out = partition_cells(nl, [0, 1], targets)
        assert out.feasible
        values = sorted(out.assignment.values())
        assert values == ["far", "near"]

    def test_movebound_admissibility(self):
        nl = _netlist([(50, 50, 1, "m")])
        targets = _targets([
            ("forbidden", 10.0, Rect(40, 40, 60, 60), ["other"]),
            ("allowed", 10.0, Rect(0, 0, 10, 10), ["m"]),
        ])
        out = partition_cells(nl, [0], targets)
        assert out.assignment[0] == "allowed"

    def test_empty_cells(self):
        nl = _netlist([])
        targets = _targets([("t", 1.0, Rect(0, 0, 1, 1), None)])
        out = partition_cells(nl, [], targets)
        assert out.feasible and out.assignment == {}

    def test_infeasible_relaxes(self):
        nl = _netlist([(10, 10, 5, None)])
        targets = _targets([("tiny", 1.0, Rect(0, 0, 20, 20), None)])
        out = partition_cells(nl, [0], targets)
        assert out.feasible and out.relaxed

    def test_infeasible_without_relaxation(self):
        nl = _netlist([(10, 10, 5, None)])
        targets = _targets([("tiny", 1.0, Rect(0, 0, 20, 20), None)])
        inst = build_instance(nl, [0], targets)
        (step,) = solve_instances([inst], chain=RELAX_CHAIN_PARTITION[:1])
        assert not step.feasible and step.target is None

    def test_mixed_bounds_share_target(self):
        nl = _netlist([(10, 10, 1, "a"), (12, 12, 1, "b"), (14, 14, 1, None)])
        targets = _targets([
            ("shared", 10.0, Rect(0, 0, 20, 20), None),
        ])
        out = partition_cells(nl, [0, 1, 2], targets)
        assert set(out.assignment.values()) == {"shared"}


class TestOverflowRepair:
    def test_rounded_overflow_repaired(self):
        """Rounding may overfill a target; repair moves a whole cell to
        an admissible target with slack."""
        rng = np.random.default_rng(0)
        cells = [
            (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)),
             float(rng.choice([1.0, 1.5, 2.0])), None)
            for _ in range(30)
        ]
        nl = _netlist(cells)
        total = sum(c[2] for c in cells)
        targets = _targets([
            ("a", total * 0.5, Rect(0, 0, 20, 20), None),
            ("b", total * 0.6, Rect(30, 0, 50, 20), None),
        ])
        out = partition_cells(nl, list(range(30)), targets)
        assert out.feasible
        load = {"a": 0.0, "b": 0.0}
        for cell, key in out.assignment.items():
            load[key] += nl.cells[cell].size
        assert load["a"] <= total * 0.5 + 1e-6
        assert load["b"] <= total * 0.6 + 1e-6

    def test_cascade_repair(self):
        """Direct repair impossible: target full of movebound cells;
        cascade must move a default cell out first."""
        cells = (
            [(10, 10, 2.0, "m"), (10, 12, 2.0, "m"), (11, 11, 1.0, "m")]
            + [(10, 11, 2.0, None), (12, 10, 2.0, None)]
        )
        nl = _netlist(cells)
        targets = _targets([
            ("mb1", 4.0, Rect(0, 0, 20, 20), ["m", "__default__"]),
            ("mb2", 3.0, Rect(20, 0, 40, 20), ["m", "__default__"]),
            ("rest", 50.0, Rect(60, 0, 100, 40), ["__default__"]),
        ])
        out = partition_cells(nl, list(range(5)), targets)
        assert out.feasible
        load = {}
        for cell, key in out.assignment.items():
            load[key] = load.get(key, 0.0) + nl.cells[cell].size
        assert load.get("mb1", 0.0) <= 4.0 + 1e-6
        assert load.get("mb2", 0.0) <= 3.0 + 1e-6
