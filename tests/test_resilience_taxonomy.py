"""The resilience exception taxonomy: hierarchy, backward
compatibility with the builtin exceptions the pre-taxonomy code raised,
diagnosis lines, input validation, and the CLI exit-code contract."""

import numpy as np
import pytest

from repro.bookshelf import save_instance
from repro.cli import main
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.place import InfeasiblePlacementError, PlacementError
from repro.resilience import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_SERVICE,
    InfeasibleInputError,
    JobCancelledError,
    PipelineStageError,
    ReproError,
    ServiceOverloadError,
    SolverBudgetExceeded,
    SolverNumericsError,
    instance_problems,
    reset_faults,
    set_default_budget,
    validate_instance,
)

DIE = Rect(0, 0, 100, 100)


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    yield
    reset_faults()
    set_default_budget(None)


def _netlist(cells=(("c0", 2.0, 1.0, None),)):
    nl = Netlist(DIE)
    for name, w, h, mb in cells:
        nl.add_cell(name, w, h, movebound=mb)
    return nl


class TestHierarchy:
    def test_backward_compatible_bases(self):
        # the builtins the pre-taxonomy code raised must still catch
        assert issubclass(InfeasibleInputError, ValueError)
        assert issubclass(SolverBudgetExceeded, TimeoutError)
        assert issubclass(SolverNumericsError, ArithmeticError)
        assert issubclass(PipelineStageError, RuntimeError)
        for cls in (
            InfeasibleInputError,
            SolverBudgetExceeded,
            SolverNumericsError,
            PipelineStageError,
        ):
            assert issubclass(cls, ReproError)

    def test_exit_codes(self):
        assert InfeasibleInputError("x").exit_code == EXIT_INFEASIBLE == 2
        assert SolverBudgetExceeded("x").exit_code == EXIT_BUDGET == 3
        assert SolverNumericsError("x").exit_code == EXIT_INTERNAL == 4
        assert PipelineStageError("x").exit_code == EXIT_INTERNAL == 4
        assert ReproError("x").exit_code == EXIT_INTERNAL == 4
        assert ServiceOverloadError("x").exit_code == EXIT_SERVICE == 5
        assert JobCancelledError("x").exit_code == EXIT_SERVICE == 5

    def test_service_errors_in_taxonomy(self):
        assert issubclass(ServiceOverloadError, ReproError)
        assert issubclass(ServiceOverloadError, RuntimeError)
        assert issubclass(JobCancelledError, ReproError)
        exc = ServiceOverloadError(
            "queue full", tenant="acme", shed_job="j000009"
        )
        assert "tenant=acme" in exc.diagnosis()
        assert "shed_job=j000009" in exc.diagnosis()
        assert JobCancelledError("gone", job_id="j000001").job_id == "j000001"

    def test_placement_error_in_taxonomy(self):
        assert issubclass(PlacementError, PipelineStageError)
        assert issubclass(PlacementError, RuntimeError)
        assert issubclass(InfeasiblePlacementError, PlacementError)
        assert issubclass(InfeasiblePlacementError, InfeasibleInputError)
        # the infeasible variant wins the exit-code lookup
        assert InfeasiblePlacementError("x").exit_code == EXIT_INFEASIBLE

    def test_catchable_as_valueerror(self):
        with pytest.raises(ValueError):
            raise InfeasibleInputError("bad input")
        with pytest.raises(RuntimeError):
            raise PipelineStageError("stage died")


class TestDiagnosis:
    def test_stage_and_context(self):
        exc = PipelineStageError(
            "it broke", stage="fbp.realize", level=3, context={"k": "v"}
        )
        line = exc.diagnosis()
        assert line.startswith("[fbp.realize] it broke")
        assert "level=3" in line and "k=v" in line

    def test_witness_and_deficit(self):
        exc = InfeasibleInputError(
            "no placement",
            witness=frozenset({"b", "a"}),
            deficit=12.5,
            stage="place.feasibility",
        )
        line = exc.diagnosis()
        assert "violating movebound subset: ['a', 'b']" in line
        assert "deficit: 12.5 area units" in line

    def test_budget_extras(self):
        exc = SolverBudgetExceeded(
            "over budget", solver="lp", iterations=17, elapsed=1.25
        )
        line = exc.diagnosis()
        assert "solver=lp" in line
        assert "iterations=17" in line
        assert "elapsed=1.25s" in line

    def test_single_line(self):
        exc = InfeasibleInputError(
            "x", witness=frozenset({"m"}), deficit=1.0, stage="s"
        )
        assert "\n" not in exc.diagnosis()


class TestValidation:
    def test_clean_instance_passes(self):
        nl = _netlist()
        validate_instance(nl, MoveBoundSet(DIE), 0.9)
        assert instance_problems(nl, MoveBoundSet(DIE)) == []

    def test_zero_area_movebound_rejected_at_construction(self):
        # RectSet normalization drops zero-area rects, so a movebound
        # declared with only such rects is rejected immediately
        mbs = MoveBoundSet(DIE)
        with pytest.raises(InfeasibleInputError, match="empty area"):
            mbs.add_rects("m", [Rect(0, 0, 0, 10), Rect(5, 5, 5, 9)])

    def test_movebound_outside_die_rejected_at_construction(self):
        mbs = MoveBoundSet(DIE)
        with pytest.raises(InfeasibleInputError, match="leaves the die"):
            mbs.add_rects("m", [Rect(90, 90, 150, 150)])

    def test_undeclared_movebound(self):
        nl = _netlist((("c0", 2.0, 1.0, "ghost"),))
        with pytest.raises(InfeasibleInputError, match="ghost"):
            validate_instance(nl, MoveBoundSet(DIE))

    def test_negative_cell_dimensions(self):
        # add_cell rejects bad dims up front; corruption after
        # construction (or a hand-built netlist) is what validation
        # has to catch
        nl = _netlist()
        nl.set_cells([0], width=-1.0)
        problems = instance_problems(nl)
        assert any("non-finite" in p or "negative" in p for p in problems)

    def test_nan_position(self):
        nl = _netlist()
        nl.x[0] = float("nan")
        problems = instance_problems(nl)
        assert any("NaN" in p for p in problems)

    def test_nonpositive_density(self):
        nl = _netlist()
        with pytest.raises(InfeasibleInputError, match="density"):
            validate_instance(nl, None, 0.0)

    def test_validation_error_is_infeasible_exit(self):
        nl = _netlist((("c0", 2.0, 1.0, "ghost"),))
        try:
            validate_instance(nl, MoveBoundSet(DIE))
        except ReproError as exc:
            assert exc.exit_code == EXIT_INFEASIBLE
            assert exc.stage == "validate"
        else:
            pytest.fail("expected InfeasibleInputError")


def _write_feasible_instance(tmp_path):
    """A small unconstrained instance the placer handles quickly."""
    rng = np.random.default_rng(0)
    nl = Netlist(DIE, name="feas")
    for i in range(60):
        nl.add_cell(f"c{i}", 2.0, 1.0)
    nl.x[:] = rng.uniform(5, 95, nl.num_cells)
    nl.y[:] = rng.uniform(5, 95, nl.num_cells)
    save_instance(str(tmp_path), nl, MoveBoundSet(DIE))
    return "feas"


def _write_infeasible_instance(tmp_path):
    """160 units of cells bound into a 100-unit rectangle."""
    nl = Netlist(DIE, name="infeas")
    for i in range(80):
        nl.add_cell(f"c{i}", 2.0, 1.0, movebound="tiny")
    nl.x[:] = np.linspace(1, 99, nl.num_cells)
    nl.y[:] = 50.0
    mbs = MoveBoundSet(DIE)
    mbs.add_rects("tiny", [Rect(0, 0, 10, 10)])
    save_instance(str(tmp_path), nl, mbs)
    return "infeas"


class TestCLIExitCodes:
    def test_place_infeasible_exits_2(self, tmp_path, capsys):
        name = _write_infeasible_instance(tmp_path)
        rc = main(["place", name, "--dir", str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "tiny" in err
        assert "Traceback" not in err

    def test_place_relax_infeasible_succeeds(self, tmp_path, capsys):
        name = _write_infeasible_instance(tmp_path)
        rc = main(
            ["place", name, "--dir", str(tmp_path), "--relax-infeasible"]
        )
        captured = capsys.readouterr()
        assert "relaxed" in captured.err
        assert rc in (0, 1)  # placed; legality may be imperfect

    def test_check_reports_diagnosis(self, tmp_path, capsys):
        name = _write_infeasible_instance(tmp_path)
        rc = main(["check", name, "--dir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "diagnosis:" in out
        assert "condition (1)" in out and "tiny" in out

    def test_check_relax_reports_factor(self, tmp_path, capsys):
        name = _write_infeasible_instance(tmp_path)
        main(["check", name, "--dir", str(tmp_path), "--relax-infeasible"])
        out = capsys.readouterr().out
        assert "relaxed" in out

    def test_budget_fault_maps_to_exit_3(self, tmp_path, capsys):
        # pin every MCF backend to an injected budget fault so the
        # fallback chain cannot save the first FBP solve
        name = _write_feasible_instance(tmp_path)
        rc = main(
            [
                "--fault-plan",
                "solver.lp=budget;solver.heur=budget",
                "place",
                name,
                "--dir",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_stage_fault_maps_to_exit_4(self, tmp_path, capsys):
        name = _write_feasible_instance(tmp_path)
        rc = main(
            [
                "--fault-plan",
                "stage.place.level=stage",
                "place",
                name,
                "--dir",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
