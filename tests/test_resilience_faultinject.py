"""The deterministic fault-injection harness: plan parsing, firing
semantics, every fallback edge of the solver chain, checkpoint/resume
of the multilevel schedule, and the CLI contract under injected faults
(mapped exit code + one-line diagnosis, never a traceback or a hang)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bookshelf import save_instance
from repro.flows.mincostflow import MinCostFlowProblem
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.place import BonnPlaceFBP, BonnPlaceOptions
from repro.resilience import (
    FaultPlan,
    InfeasibleInputError,
    PipelineStageError,
    ResilientSolver,
    SolverBudgetExceeded,
    SolverNumericsError,
    inject,
    install_fault_plan,
    perturbation,
    reset_faults,
    set_default_budget,
)

DIE = Rect(0, 0, 100, 100)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    reset_faults()
    yield
    reset_faults()
    set_default_budget(None)


def _problem(n=4):
    p = MinCostFlowProblem()
    for i in range(n):
        p.add_node(("s", i), 1.0)
    for j in range(n):
        p.add_node(("t", j), -1.0)
    for i in range(n):
        for j in range(n):
            p.add_arc(("s", i), ("t", j), float(abs(i - j)))
    return p


class TestPlanParsing:
    def test_basic(self):
        plan = FaultPlan.parse("solver.lp=budget")
        rule = plan.rules["solver.lp"]
        assert rule.kind == "budget"
        assert rule.only_hit is None and rule.max_fires is None

    def test_multiple_entries_and_separators(self):
        plan = FaultPlan.parse("a=budget; b=numerics , c=stage")
        assert set(plan.rules) == {"a", "b", "c"}

    def test_only_hit(self):
        plan = FaultPlan.parse("site=stage@3")
        assert plan.rules["site"].only_hit == 3

    def test_max_fires(self):
        plan = FaultPlan.parse("site=numerics#2")
        assert plan.rules["site"].max_fires == 2

    def test_perturb_arg(self):
        plan = FaultPlan.parse("solver.costs=perturb:0.25")
        rule = plan.rules["solver.costs"]
        assert rule.kind == "perturb" and rule.arg == 0.25

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("x=explode")

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="site=kind"):
            FaultPlan.parse("nonsense")


class TestFiring:
    def test_inject_raises_mapped_exception(self):
        install_fault_plan("x=stage")
        with pytest.raises(PipelineStageError) as ei:
            inject("x")
        assert ei.value.context.get("injected") is True
        inject("other-site")  # no rule -> no-op

    def test_kind_mapping(self):
        for kind, exc_type in (
            ("budget", SolverBudgetExceeded),
            ("numerics", SolverNumericsError),
            ("infeasible", InfeasibleInputError),
            ("stage", PipelineStageError),
        ):
            install_fault_plan(f"x={kind}")
            with pytest.raises(exc_type):
                inject("x")

    def test_solver_name_derived_from_site(self):
        install_fault_plan("solver.lp=budget")
        with pytest.raises(SolverBudgetExceeded) as ei:
            inject("solver.lp")
        assert ei.value.solver == "lp"

    def test_only_nth_hit_fires(self):
        install_fault_plan("x=stage@2")
        inject("x")  # hit 1: silent
        with pytest.raises(PipelineStageError):
            inject("x")  # hit 2: fires
        inject("x")  # hit 3: silent again

    def test_first_k_hits_fire(self):
        install_fault_plan("x=stage#2")
        for _ in range(2):
            with pytest.raises(PipelineStageError):
                inject("x")
        inject("x")  # disarmed

    def test_perturbation_returns_eps(self):
        install_fault_plan("solver.costs=perturb:0.125")
        inject("solver.costs")  # perturb rules never raise via inject
        assert perturbation("solver.costs") == 0.125
        assert perturbation("unplanned") == 0.0

    def test_no_plan_is_noop(self):
        inject("anything")
        assert perturbation("anything") == 0.0

    def test_deterministic_across_reinstall(self):
        for _ in range(2):
            install_fault_plan("x=stage@2")
            inject("x")
            with pytest.raises(PipelineStageError):
                inject("x")


class TestFallbackEdges:
    """Every edge of the lp -> heur chain, driven by faults."""

    def test_lp_fails_heur_recovers(self):
        install_fault_plan("solver.lp=numerics")
        res = ResilientSolver().solve(_problem())
        assert res.feasible
        assert [(a.method, a.ok) for a in res.attempts] == [
            ("lp", False),
            ("heur", True),
        ]
        assert res.attempts[0].error_type == "SolverNumericsError"

    def test_whole_chain_fails(self):
        install_fault_plan("solver.lp=budget;solver.heur=budget")
        with pytest.raises(SolverBudgetExceeded) as ei:
            ResilientSolver().solve(_problem())
        assert [a["method"] for a in ei.value.context["attempts"]] == [
            "lp",
            "heur",
        ]

    def test_transient_fault_single_method(self):
        # @1: only the first solve of the LP fails; a retry recovers
        install_fault_plan("solver.lp=numerics@1")
        with pytest.raises(SolverNumericsError):
            _problem().solve()
        res = _problem().solve()
        assert res.feasible

    def test_cost_perturbation_keeps_solve_feasible(self):
        install_fault_plan("solver.costs=perturb:0.001")
        res = _problem().solve()
        assert res.feasible
        ref = _problem().solve()
        assert res.cost == pytest.approx(ref.cost, abs=0.1)


def _small_instance(num_cells=120, seed=0):
    from repro.workloads import NetlistSpec, generate_netlist

    spec = NetlistSpec("fitest", num_cells, utilization=0.5, num_pads=8)
    nl, _logical = generate_netlist(spec, seed=seed)
    return nl, MoveBoundSet(nl.die)


class TestPlacerRecovery:
    def test_transient_level_fault_recovers_via_checkpoint(self):
        ref, ref_bounds = _small_instance()
        BonnPlaceFBP(BonnPlaceOptions(max_levels=2, legalize=False)).place(
            ref, ref_bounds
        )
        nl, bounds = _small_instance()
        install_fault_plan("stage.place.level=stage@2")
        placer = BonnPlaceFBP(
            BonnPlaceOptions(max_levels=2, legalize=False)
        )
        result = placer.place(nl, bounds)  # level 2 fails once, retried
        assert result.hpwl > 0
        assert len(placer.level_reports) == 2
        # the retry restarts from the restored level-1 placement, so it
        # ends exactly where the unfaulted run does
        assert np.array_equal(nl.x, ref.x) and np.array_equal(nl.y, ref.y)

    def test_persistent_level_fault_names_level(self):
        nl, bounds = _small_instance(seed=1)
        install_fault_plan("stage.place.level=stage")
        placer = BonnPlaceFBP(
            BonnPlaceOptions(max_levels=2, legalize=False)
        )
        with pytest.raises(PipelineStageError) as ei:
            placer.place(nl, bounds)
        assert ei.value.level == 1
        assert ei.value.context.get("failed_after_retry") is True

    def test_solver_fault_recovers_without_checkpoint(self):
        # the LP dies on every call; the in-chain heur fallback absorbs
        # it before the checkpointer ever sees a failure
        nl, bounds = _small_instance(seed=2)
        install_fault_plan("solver.lp=budget")
        placer = BonnPlaceFBP(
            BonnPlaceOptions(max_levels=2, legalize=False)
        )
        result = placer.place(nl, bounds)
        assert result.hpwl > 0

    def test_deterministic_under_faults(self):
        results = []
        for _ in range(2):
            nl, bounds = _small_instance(seed=3)
            install_fault_plan("stage.place.level=stage@2")
            placer = BonnPlaceFBP(
                BonnPlaceOptions(max_levels=2, legalize=False)
            )
            results.append(placer.place(nl, bounds).hpwl)
            reset_faults()
        assert results[0] == pytest.approx(results[1])


def _run_cli(tmp_path, argv, fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )


def _write_instances(tmp_path):
    rng = np.random.default_rng(0)
    nl = Netlist(DIE, name="feas")
    for i in range(60):
        nl.add_cell(f"c{i}", 2.0, 1.0)
    nl.x[:] = rng.uniform(5, 95, nl.num_cells)
    nl.y[:] = rng.uniform(5, 95, nl.num_cells)
    save_instance(str(tmp_path), nl, MoveBoundSet(DIE))

    bad = Netlist(DIE, name="infeas")
    for i in range(80):
        bad.add_cell(f"c{i}", 2.0, 1.0, movebound="tiny")
    bad.x[:] = np.linspace(1, 99, bad.num_cells)
    bad.y[:] = 50.0
    mbs = MoveBoundSet(DIE)
    mbs.add_rects("tiny", [Rect(0, 0, 10, 10)])
    save_instance(str(tmp_path), bad, mbs)


class TestCLIUnderFaults:
    """The hard CI contract: an injected fault either recovers or exits
    with its mapped code and a one-line diagnosis — never a traceback."""

    def test_infeasible_exits_2_with_witness(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(tmp_path, ["place", "infeas", "--dir", "."])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "tiny" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solver_faults_recover_to_success(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(
            tmp_path,
            ["place", "feas", "--dir", "."],
            fault_plan="solver.lp=budget",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_chain_exhaustion_exits_3(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(
            tmp_path,
            ["place", "feas", "--dir", "."],
            fault_plan="solver.lp=budget;solver.heur=budget",
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_persistent_stage_fault_exits_4(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(
            tmp_path,
            ["place", "feas", "--dir", "."],
            fault_plan="stage.place.level=stage",
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_transient_stage_fault_recovers(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(
            tmp_path,
            ["place", "feas", "--dir", "."],
            fault_plan="stage.place.level=stage@2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_budget_flags_accepted(self, tmp_path):
        _write_instances(tmp_path)
        proc = _run_cli(
            tmp_path,
            [
                "--max-solver-iters",
                "100000",
                "--solver-timeout",
                "120",
                "place",
                "feas",
                "--dir",
                ".",
            ],
        )
        assert proc.returncode == 0, proc.stderr
