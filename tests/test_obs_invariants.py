"""Tests for the opt-in invariant registry: each check catches its
corruption, and everything is a no-op while the gate is off."""

import numpy as np
import pytest

from repro.fbp import build_fbp_model
from repro.flows import MinCostFlowProblem
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from repro.obs import (
    ENV_VAR,
    InvariantViolation,
    checking,
    invariants_enabled,
    maybe_check,
    registered_checks,
    run_check,
    set_invariants_enabled,
)

DIE = Rect(0, 0, 100, 100)


def _small_flow():
    """s supplies 5 units; two routes of cost 1 and 3 into a sink."""
    p = MinCostFlowProblem()
    p.add_node("s", 5.0)
    p.add_node("a")
    p.add_node("b")
    p.add_node("t", -10.0)
    p.add_arc("s", "a", 1.0, capacity=3.0)
    p.add_arc("s", "b", 3.0)
    p.add_arc("a", "t", 0.0)
    p.add_arc("b", "t", 0.0)
    return p


def _movebound_instance():
    """Four cells, one confined to the left half of the die."""
    bounds = MoveBoundSet(DIE)
    bounds.add_rects("left", [Rect(0, 0, 50, 100)])
    nl = Netlist(DIE, row_height=1.0, site_width=0.5, name="inv")
    nl.add_cell("m0", 2.0, 1.0, x=10.0, y=10.0, movebound="left")
    for i in range(3):
        nl.add_cell(f"f{i}", 2.0, 1.0, x=70.0 + i, y=70.0)
    return nl, bounds


class TestGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        set_invariants_enabled(None)
        assert not invariants_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_env_var_enables(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        set_invariants_enabled(None)
        try:
            assert invariants_enabled()
        finally:
            set_invariants_enabled(None)

    def test_env_var_falsey(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        set_invariants_enabled(None)
        assert not invariants_enabled()

    def test_checking_scopes_and_restores(self):
        set_invariants_enabled(None)
        with checking(True):
            assert invariants_enabled()
            with checking(False):
                assert not invariants_enabled()
            assert invariants_enabled()

    def test_maybe_check_noop_when_disabled(self):
        """With the gate off, even garbage arguments never run."""
        with checking(False):
            maybe_check("flow.conservation", None, None)
            maybe_check("fbp.region_capacity", None, None)
            maybe_check("movebound.containment", None, None)

    def test_all_three_checks_registered(self):
        names = registered_checks()
        assert "flow.conservation" in names
        assert "fbp.region_capacity" in names
        assert "movebound.containment" in names

    def test_unknown_check_raises(self):
        with pytest.raises(KeyError):
            run_check("no.such.check")


class TestFlowConservation:
    def test_honest_solve_passes(self):
        p = _small_flow()
        with checking(True):
            result = p.solve()  # solve() runs maybe_check itself
        assert result.feasible

    def test_corrupted_flow_caught(self):
        p = _small_flow()
        result = p.solve()
        result.flows[0] += 1.0  # supply node now over-ships
        with pytest.raises(InvariantViolation) as exc:
            run_check("flow.conservation", p, result)
        assert exc.value.check == "flow.conservation"

    def test_capacity_overflow_caught(self):
        p = _small_flow()
        result = p.solve()
        # push everything down the cap-3 arc: violates its capacity
        result.flows[:] = [5.0, 0.0, 5.0, 0.0]
        with pytest.raises(InvariantViolation):
            run_check("flow.conservation", p, result)

    def test_negative_flow_caught(self):
        p = _small_flow()
        result = p.solve()
        result.flows[1] = -2.0
        with pytest.raises(InvariantViolation):
            run_check("flow.conservation", p, result)

    def test_all_backends_pass_under_gate(self):
        for method in ("lp", "heur"):
            with checking(True):
                result = _small_flow().solve(method)
            assert result.feasible


class TestRegionCapacity:
    def _solved_model(self):
        nl, bounds = _movebound_instance()
        dec = decompose_regions(DIE, bounds, nl.blockages)
        grid = Grid(DIE, 2, 2)
        grid.build_regions(dec)
        model = build_fbp_model(nl, bounds, grid)
        result = model.solve()
        assert result.feasible
        return model, result

    def test_honest_solve_passes(self):
        model, result = self._solved_model()
        run_check("fbp.region_capacity", model, result)

    def test_overfilled_region_caught(self):
        model, result = self._solved_model()
        # shrink the advertised capacity of a region that absorbed flow
        inflow = model.region_inflow(result)
        key = max(inflow, key=inflow.get)
        assert inflow[key] > 0
        # (the capacities are the model's region_cap column; the
        # region_capacity mapping is a read-only view of it)
        node = list(model.region_capacity).index(key)
        model.region_cap[node] = inflow[key] / 2
        with pytest.raises(InvariantViolation) as exc:
            run_check("fbp.region_capacity", model, result)
        assert exc.value.check == "fbp.region_capacity"


class TestMoveboundContainment:
    def test_contained_cell_passes(self):
        nl, bounds = _movebound_instance()
        run_check("movebound.containment", nl, bounds)

    def test_cell_outside_movebound_caught(self):
        nl, bounds = _movebound_instance()
        nl.x[0] = 80.0  # left-bound cell teleported to the right half
        with pytest.raises(InvariantViolation) as exc:
            run_check("movebound.containment", nl, bounds)
        assert exc.value.check == "movebound.containment"

    def test_explicit_cell_subset(self):
        nl, bounds = _movebound_instance()
        nl.x[0] = 80.0
        # auditing only unconstrained cells ignores the violation
        run_check("movebound.containment", nl, bounds, cells=[1, 2, 3])

    def test_boundary_tolerance(self):
        nl, bounds = _movebound_instance()
        nl.x[0] = 50.0 + 1e-12  # a hair outside; within tolerance
        run_check("movebound.containment", nl, bounds)

    def test_violation_is_assertion_error(self):
        nl, bounds = _movebound_instance()
        nl.x[0] = 80.0
        with pytest.raises(AssertionError):
            run_check("movebound.containment", nl, bounds)


class TestPipelineUnderGate:
    def test_full_fbp_pass_with_invariants_on(self):
        """End to end: a real partitioning pass keeps all invariants."""
        from repro.fbp import fbp_partition
        from tests.conftest import build_random_netlist

        bounds = MoveBoundSet(DIE)
        bounds.add_rects("left", [Rect(0, 0, 50, 100)])

        def mb_of(i):
            return "left" if i < 10 else None

        nl = build_random_netlist(40, 30, seed=3, die=DIE,
                                  movebound_of=mb_of)
        dec = decompose_regions(DIE, bounds, nl.blockages)
        grid = Grid(DIE, 2, 2)
        grid.build_regions(dec)
        with checking(True):
            report = fbp_partition(nl, bounds, grid, density_target=0.9)
        assert report.feasible
