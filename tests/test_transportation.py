"""Tests for the transportation solver and almost-integral rounding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import (
    round_almost_integral,
    solve_transportation,
)
from repro.resilience.errors import InfeasibleInputError
from tests.flow_oracle import (
    assert_matches,
    on_grid,
    random_transport,
    transport_cost,
)

INF = np.inf


class TestBasics:
    def test_simple_optimal(self):
        res = solve_transportation(
            np.array([2.0, 3.0]),
            np.array([3.0, 4.0]),
            np.array([[1.0, 2.0], [5.0, 1.0]]),
        )
        assert res.feasible
        assert res.cost == pytest.approx(2 * 1 + 3 * 1)

    def test_forbidden_arcs_unused(self):
        res = solve_transportation(
            np.array([2.0, 1.0]),
            np.array([3.0, 3.0]),
            np.array([[INF, 2.0], [1.0, INF]]),
        )
        assert res.feasible
        assert res.flow[0, 0] == 0 and res.flow[1, 1] == 0
        assert res.cost == pytest.approx(2 * 2 + 1 * 1)

    def test_infeasible_capacity(self):
        res = solve_transportation(
            np.array([10.0]), np.array([3.0]), np.array([[1.0]])
        )
        assert not res.feasible

    def test_infeasible_isolated_source(self):
        res = solve_transportation(
            np.array([1.0]), np.array([5.0]), np.array([[INF]])
        )
        assert not res.feasible

    def test_empty_sources(self):
        res = solve_transportation(
            np.zeros(0), np.array([3.0]), np.zeros((0, 1))
        )
        assert res.feasible and res.cost == 0

    def test_unbalanced_slack(self):
        res = solve_transportation(
            np.array([1.0]), np.array([100.0, 100.0]),
            np.array([[1.0, 2.0]]),
        )
        assert res.feasible
        assert res.flow.sum() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_transportation(
                np.array([1.0]), np.array([1.0]), np.zeros((2, 2))
            )

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            solve_transportation(
                np.array([-1.0]), np.array([1.0]), np.zeros((1, 1))
            )

    @pytest.mark.parametrize(
        "supplies,capacities",
        [
            ([np.nan, 1.0], [2.0, 2.0]),
            ([INF, 1.0], [2.0, 2.0]),
            ([1.0, 1.0], [np.nan, 2.0]),
            ([1.0, 1.0], [INF, 2.0]),
        ],
    )
    def test_non_finite_supply_or_capacity_rejected(
        self, supplies, capacities
    ):
        # a NaN supply once slipped through the closed form as
        # "feasible", and a non-finite capacity must never reach HiGHS
        with pytest.raises(InfeasibleInputError, match="finite") as ei:
            solve_transportation(
                np.array(supplies),
                np.array(capacities),
                np.array([[1.0, 2.0], [2.0, 1.0]]),
            )
        assert ei.value.stage == "transport.validate"

    def test_mcf_backend_matches_lp(self):
        """The LP's optimum is the networkx min-cost-flow oracle's
        (:mod:`tests.flow_oracle`), on the oracle's 1/64 grid."""
        rng = np.random.default_rng(3)
        for _ in range(5):
            n, k = 6, 3
            sup = rng.uniform(0.5, 3.0, n)
            cap = rng.uniform(2.0, 6.0, k)
            while cap.sum() < sup.sum():
                cap *= 1.3
            costs = rng.uniform(0.0, 9.0, (n, k))
            sup, cap, costs = on_grid(sup), on_grid(cap), on_grid(costs)
            res = solve_transportation(sup, cap, costs)
            assert res.feasible
            assert_matches(
                res.feasible, res.cost, transport_cost(sup, cap, costs)
            )


class TestAlmostIntegral:
    def test_split_source_bound(self):
        """A basic optimum has at most k-1 split sources ([4])."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            n, k = 30, 4
            sup = rng.uniform(0.5, 2.0, n)
            cap = np.full(k, sup.sum() / k * 1.15)
            costs = rng.uniform(0, 10, (n, k))
            res = solve_transportation(sup, cap, costs)
            assert res.feasible
            assert len(res.split_sources()) <= k - 1

    def test_rounding_respects_supply(self):
        sup = np.array([2.0, 3.0, 1.0])
        cap = np.array([3.5, 3.5])
        costs = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
        res = solve_transportation(sup, cap, costs)
        assignment, overflow = round_almost_integral(res, sup, cap, costs)
        assert set(assignment) <= {0, 1}
        loads = np.zeros(2)
        for i, j in enumerate(assignment):
            loads[j] += sup[i]
        assert loads.sum() == pytest.approx(sup.sum())

    def test_rounding_overflow_bounded_by_max_cell(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, k = 25, 3
            sup = rng.uniform(0.5, 2.0, n)
            cap = np.full(k, sup.sum() / k * 1.02)
            costs = rng.uniform(0, 5, (n, k))
            res = solve_transportation(sup, cap, costs)
            if not res.feasible:
                continue
            _a, overflow = round_almost_integral(res, sup, cap, costs)
            assert overflow <= sup.max() + 1e-9

    def test_rounding_never_uses_forbidden(self):
        sup = np.array([1.0, 1.0])
        cap = np.array([2.0, 2.0])
        costs = np.array([[INF, 1.0], [1.0, INF]])
        res = solve_transportation(sup, cap, costs)
        assignment, _ = round_almost_integral(res, sup, cap, costs)
        assert assignment[0] == 1 and assignment[1] == 0



#: total capacity over total supply of the seeded instances
CAPACITY_CASES = {"balanced": 1.0, "unbalanced": 1.5, "tight": 1.02}


class TestSinkDuals:
    """``sink_duals`` certify the flow optimal: with each source's dual
    its cheapest arc net of the sink duals, every admissible arc prices
    >= 0, flow uses only arcs pricing 0, a sink with slack has dual 0,
    and the dual objective equals the cost."""

    @staticmethod
    def assert_certified(res, supplies, capacities, costs):
        v = res.sink_duals
        scale = float(np.max(np.abs(costs[np.isfinite(costs)])))
        tol = 1e-7 * max(scale, 1.0)
        assert v.shape == capacities.shape and np.all(v <= tol)
        net = costs - v
        u = net.min(axis=1)
        reduced = net - u[:, None]
        assert np.all(reduced[np.isfinite(costs)] >= -tol)
        assert np.all(reduced[res.flow > 1e-9] <= tol)
        slack = capacities - res.flow.sum(axis=0)
        assert np.all(np.abs(v[slack > 1e-7]) <= tol)
        assert supplies @ u + capacities @ v == pytest.approx(
            res.cost, rel=1e-9, abs=tol
        )

    @pytest.mark.parametrize("case", sorted(CAPACITY_CASES))
    def test_duals_certify_optimality(self, case):
        rng = np.random.default_rng(sorted(CAPACITY_CASES).index(case))
        methods = set()
        for _ in range(40):
            supplies, capacities, costs = random_transport(rng)
            capacities *= (
                CAPACITY_CASES[case] * supplies.sum() / capacities.sum()
            )
            res = solve_transportation(supplies, capacities, costs)
            methods.add(res.stats.method)
            if not res.feasible:
                assert res.sink_duals is None
                continue
            self.assert_certified(res, supplies, capacities, costs)
        assert "lp" in methods

    def test_closed_form_carries_zeros(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            supplies, capacities, costs = random_transport(rng)
            capacities *= 100.0
            res = solve_transportation(supplies, capacities, costs)
            assert res.stats.method == "closed_form"
            assert np.array_equal(res.sink_duals, np.zeros(len(capacities)))
            self.assert_certified(res, supplies, capacities, costs)

    def test_infeasible_carries_none(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            supplies, capacities, costs = random_transport(rng)
            capacities *= 0.8 * supplies.sum() / capacities.sum()
            res = solve_transportation(supplies, capacities, costs)
            assert not res.feasible and res.sink_duals is None
        isolated = solve_transportation(
            np.array([1.0]), np.array([5.0]), np.array([[INF]])
        )
        assert isolated.sink_duals is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_property_optimality_vs_greedy(seed):
    """The LP optimum is never worse than a greedy assignment."""
    rng = np.random.default_rng(seed)
    n, k = 8, 3
    sup = rng.uniform(0.2, 1.5, n)
    cap = np.full(k, sup.sum())  # plenty of room
    costs = rng.uniform(0, 10, (n, k))
    res = solve_transportation(sup, cap, costs)
    assert res.feasible
    greedy = float(np.dot(sup, costs.min(axis=1)))
    assert res.cost <= greedy + 1e-6
    # with ample capacity, the optimum IS the row-minimum assignment
    assert res.cost == pytest.approx(greedy, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_property_capacities_respected(seed):
    rng = np.random.default_rng(seed)
    n, k = 10, 4
    sup = rng.uniform(0.2, 1.5, n)
    cap = rng.uniform(0.5, 2.0, k)
    while cap.sum() < sup.sum() * 1.05:
        cap *= 1.25
    costs = rng.uniform(0, 10, (n, k))
    res = solve_transportation(sup, cap, costs)
    assert res.feasible
    loads = res.flow.sum(axis=0)
    assert np.all(loads <= cap + 1e-6)
    assert res.flow.sum(axis=1) == pytest.approx(sup, abs=1e-6)
