"""Solver budgets (iteration + wall-time), the ResilientSolver
fallback chain, and the terminal transportation heuristic backend."""

import pytest

from repro.flows.mincostflow import MinCostFlowProblem
from repro.resilience import (
    DEFAULT_CHAIN,
    ResilientSolver,
    SolverBudget,
    SolverBudgetExceeded,
    budget_from_env,
    get_default_budget,
    install_fault_plan,
    reset_faults,
    set_default_budget,
)


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    yield
    reset_faults()
    set_default_budget(None)


def _problem(n=4):
    """n sources, n sinks, L1 costs — HiGHS needs n iterations."""
    p = MinCostFlowProblem()
    for i in range(n):
        p.add_node(("s", i), 1.0)
    for j in range(n):
        p.add_node(("t", j), -1.0)
    for i in range(n):
        for j in range(n):
            p.add_arc(("s", i), ("t", j), float(abs(i - j)))
    return p


class TestDefaultBudget:
    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SOLVER_ITERS", "7")
        monkeypatch.setenv("REPRO_SOLVER_TIMEOUT", "2.5")
        b = budget_from_env()
        assert b.max_iters == 7 and b.max_seconds == 2.5
        set_default_budget(None)  # re-read env
        assert get_default_budget() == b

    def test_set_default_budget(self):
        b = SolverBudget(max_iters=3)
        set_default_budget(b)
        assert get_default_budget() is b


class TestSolverBudgets:
    def test_lp_iteration_budget(self):
        p = _problem(6)
        with pytest.raises(SolverBudgetExceeded, match="Iteration limit") as ei:
            p.solve(budget=SolverBudget(max_iters=1))
        assert ei.value.solver == "lp"
        assert ei.value.exit_code == 3
        assert ei.value.stage == "solver.lp"

    def test_lp_time_budget(self):
        p = _problem(4)
        with pytest.raises(SolverBudgetExceeded, match="Time limit"):
            p.solve(budget=SolverBudget(max_seconds=0.0))

    def test_generous_budget_is_harmless(self):
        p = _problem(4)
        res = p.solve(budget=SolverBudget(max_iters=10000))
        assert res.feasible
        ref = _problem(4).solve()
        assert res.cost == pytest.approx(ref.cost)


class TestHeuristicBackend:
    def test_feasible_flow(self):
        p = _problem(4)
        res = p.solve("heur")
        assert res.feasible
        # cost is accounted but not optimized
        opt = _problem(4).solve().cost
        assert res.cost >= opt - 1e-9

    def test_flow_readback(self):
        p = MinCostFlowProblem()
        p.add_node("a", 2.0)
        p.add_node("b", -2.0)
        aid = p.add_arc("a", "b", 1.5)
        res = p.solve("heur")
        assert res.feasible
        assert res.flow_on(aid) == pytest.approx(2.0)
        assert res.cost == pytest.approx(3.0)

    def test_infeasible_detected(self):
        p = MinCostFlowProblem()
        p.add_node("a", 2.0)
        p.add_node("b", -1.0)
        p.add_node("c", -1.0)
        p.add_arc("a", "b", 1.0)  # c unreachable
        res = p.solve("heur")
        assert not res.feasible


class TestResilientSolver:
    def test_falls_back_to_heur_when_budgeted(self):
        p = _problem(4)
        solver = ResilientSolver(budget=SolverBudget(max_iters=1))
        res = solver.solve(p)
        assert res.feasible
        methods = [(a.method, a.ok) for a in res.attempts]
        assert methods == [("lp", False), ("heur", True)]
        assert res.attempts[0].error_type == "SolverBudgetExceeded"

    def test_no_fallback_on_success(self):
        p = _problem(4)
        res = ResilientSolver().solve(p)
        assert [a.method for a in res.attempts] == ["lp"]
        assert res.attempts[0].ok

    def test_all_backends_fail_reraises_with_history(self):
        p = _problem(4)
        install_fault_plan("solver.heur=budget")
        solver = ResilientSolver(budget=SolverBudget(max_iters=0))
        with pytest.raises(SolverBudgetExceeded) as ei:
            solver.solve(p)
        attempts = ei.value.context["attempts"]
        assert [a["method"] for a in attempts] == ["lp", "heur"]
        assert ei.value.context["chain"] == ["lp", "heur"]

    def test_for_method_chains(self):
        assert ResilientSolver.for_method().chain == ("lp", "heur")
        assert ResilientSolver.for_method("heur").chain == ("heur",)
        assert ResilientSolver().chain == DEFAULT_CHAIN == ("lp", "heur")

    def test_default_budget_applies(self):
        set_default_budget(SolverBudget(max_iters=1))
        p = _problem(4)
        # no explicit budget: the LP exhausts it, heur rescues
        res = ResilientSolver().solve(p)
        assert res.feasible
        assert len(res.attempts) == 2
