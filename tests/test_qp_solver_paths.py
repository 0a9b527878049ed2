"""Tests for the QP solver backends (direct vs CG path)."""

import numpy as np
import pytest

import repro.qp.solver as solver_mod
from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.qp import QPOptions, solve_qp
from repro.resilience.errors import SolverNumericsError
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _netlist(seed=0):
    nl = build_random_netlist(80, 60, seed, DIE)
    nl.add_net("anchor1", [Pin(0), Pin.terminal(0, 0)])
    nl.add_net("anchor2", [Pin(1), Pin.terminal(100, 100)])
    return nl


class TestBackends:
    def test_cg_matches_direct(self, monkeypatch):
        nl = _netlist()
        snap = nl.snapshot()
        x_direct, y_direct = solve_qp(nl, apply=False)
        nl.restore(snap)
        monkeypatch.setattr(solver_mod, "DIRECT_SOLVE_LIMIT", 1)
        x_cg, y_cg = solve_qp(
            nl, QPOptions(cg_tol=1e-10, cg_maxiter=5000), apply=False
        )
        movable = [c.index for c in nl.cells if not c.fixed]
        assert np.allclose(x_direct[movable], x_cg[movable], atol=1e-3)
        assert np.allclose(y_direct[movable], y_cg[movable], atol=1e-3)

    def test_cg_warm_start_converges(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "DIRECT_SOLVE_LIMIT", 1)
        nl = _netlist(seed=1)
        solve_qp(nl, QPOptions(cg_tol=1e-8))
        first = nl.x.copy()
        # solving again from the solution should be a fixed point
        solve_qp(nl, QPOptions(cg_tol=1e-8))
        movable = [c.index for c in nl.cells if not c.fixed]
        assert np.allclose(first[movable], nl.x[movable], atol=1e-2)

    def test_empty_system(self):
        nl = Netlist(DIE)
        nl.add_cell("f", 1, 1, fixed=True)
        x, y = solve_qp(nl)  # zero unknowns: no crash
        assert len(x) == 1

    def test_singular_system_raises_and_writes_nothing(self):
        # two net-less movable cells without regularization: the matrix
        # is all zero, and no NaN may reach the netlist
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=10, y=10)
        nl.add_cell("b", 1, 1, x=20, y=20)
        nl.add_cell("f", 1, 1, x=50, y=50, fixed=True)
        with pytest.raises(SolverNumericsError) as info:
            solve_qp(nl, QPOptions(regularization=0.0))
        assert info.value.stage == "qp"
        assert nl.x.tolist() == [10.0, 20.0, 50.0]
        assert nl.y.tolist() == [10.0, 20.0, 50.0]

    def test_solution_energy_not_worse_than_start(self):
        """The QP optimum has lower quadratic energy than the start."""
        from repro.qp.models import build_axis_systems

        nl = _netlist(seed=2)
        system, _ = build_axis_systems(nl)
        movable = np.nonzero(~nl.fixed_mask)[0]
        x0 = np.zeros(system.matrix.shape[0])
        x0[: system.num_cell_unknowns] = nl.x[movable]
        energy_start = system.energy(x0)
        solve_qp(nl)
        x1 = np.zeros(system.matrix.shape[0])
        x1[: system.num_cell_unknowns] = nl.x[movable]
        # clamping can nudge cells, so allow a tiny tolerance
        assert system.energy(x1) <= energy_start + 1e-6
