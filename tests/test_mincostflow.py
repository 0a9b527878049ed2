"""Tests for the min-cost flow solvers (SSP, network simplex, HiGHS LP)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import Arc, MinCostFlowProblem, solve_min_cost_flow
from tests.flow_oracle import assert_matches, problem_cost


def _simple_problem():
    p = MinCostFlowProblem()
    p.add_node("s1", 4.0)
    p.add_node("s2", 2.0)
    p.add_node("d1", -3.0)
    p.add_node("d2", -5.0)
    p.add_arc("s1", "d1", 1.0)
    p.add_arc("s1", "d2", 3.0)
    p.add_arc("s2", "d1", 2.0)
    p.add_arc("s2", "d2", 1.0)
    return p


def _demand_as_capacity():
    p = MinCostFlowProblem()
    p.add_node("s", 1.0)
    p.add_node("d", -10.0)
    p.add_arc("s", "d", 1.0)
    return p


def _too_little_demand():
    p = MinCostFlowProblem()
    p.add_node("s", 5.0)
    p.add_node("d", -1.0)
    p.add_arc("s", "d", 1.0)
    return p


def _capacity_split():
    p = MinCostFlowProblem()
    p.add_node("s", 4.0)
    p.add_node("d", -4.0)
    p.add_arc("s", "d", 1.0, capacity=1.0)  # cheap
    p.add_arc("s", "d", 5.0)  # dear
    return p


def _transit():
    p = MinCostFlowProblem()
    p.add_node("s", 2.0)
    p.add_node("m")  # transit
    p.add_node("d", -2.0)
    p.add_arc("s", "m", 1.0)
    p.add_arc("m", "d", 1.0)
    return p


class TestBasics:
    @pytest.mark.parametrize("method", ["lp"])
    def test_optimal_cost(self, method):
        res = _simple_problem().solve(method)
        assert res.feasible
        # s1 -> d1 (3 @1), s1 -> d2 (1 @3), s2 -> d2 (2 @1) = 8
        assert res.cost == pytest.approx(8.0)

    @pytest.mark.parametrize("method", ["lp"])
    def test_flow_conservation(self, method):
        p = _simple_problem()
        res = p.solve(method)
        outflow = {"s1": 0.0, "s2": 0.0}
        for _aid, arc, f in res.nonzero_arcs():
            outflow[arc.tail] += f
        assert outflow["s1"] == pytest.approx(4.0)
        assert outflow["s2"] == pytest.approx(2.0)

    @pytest.mark.parametrize("method", ["lp"])
    def test_demand_as_capacity(self, method):
        """Total demand exceeds supply: the slack stays unused."""
        res = _demand_as_capacity().solve(method)
        assert res.feasible
        assert res.routed == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["lp"])
    def test_infeasible_detected(self, method):
        res = _too_little_demand().solve(method)
        assert not res.feasible

    @pytest.mark.parametrize("method", ["lp"])
    def test_capacity_respected(self, method):
        res = _capacity_split().solve(method)
        assert res.feasible
        assert res.flow_on(0) == pytest.approx(1.0)  # the cheap arc
        assert res.flow_on(1) == pytest.approx(3.0)

    def test_negative_cost_rejected(self):
        p = MinCostFlowProblem()
        with pytest.raises(ValueError):
            p.add_arc("a", "b", -1.0)

    def test_transit_nodes(self):
        res = _transit().solve()
        assert res.feasible and res.cost == pytest.approx(4.0)

    def test_convenience_wrapper(self):
        res = solve_min_cost_flow(
            {"a": 1.0, "b": -1.0}, [Arc("a", "b", 2.0)]
        )
        assert res.feasible and res.cost == pytest.approx(2.0)

    def test_auto_picks_method(self):
        """Without a method, solve() runs the LP."""
        res = _simple_problem().solve()
        assert res.feasible and res.stats.method == "lp"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            _simple_problem().solve("quantum")


def _random_instance(seed, n=8, arcs=24):
    """Connected random instance with integral data."""
    rng = np.random.default_rng(seed)
    b = rng.integers(-6, 7, n)
    b[-1] -= b.sum()
    p = MinCostFlowProblem()
    for i, bi in enumerate(b):
        p.add_node(i, float(bi))
    edges = set()
    for i in range(n):  # ring for connectivity
        edges.add((i, (i + 1) % n))
        edges.add(((i + 1) % n, i))
    for _ in range(arcs):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((int(u), int(v)))
    for (u, v) in edges:
        c = int(rng.integers(0, 9))
        cap = int(rng.integers(4, 18))
        p.add_arc(u, v, float(c), float(cap))
    return p


class TestAgainstNetworkSimplex:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_balanced(self, seed):
        p = _random_instance(seed)
        res = p.solve()
        assert_matches(res.feasible, res.cost, problem_cost(p))

    def test_lp_matches_oracle_on_unbalanced(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            p = MinCostFlowProblem()
            n_s, n_d = 4, 3
            for i in range(n_s):
                p.add_node(("s", i), float(rng.integers(1, 6)))
            for j in range(n_d):
                p.add_node(("d", j), -float(rng.integers(4, 12)))
            for i in range(n_s):
                for j in range(n_d):
                    p.add_arc(("s", i), ("d", j), float(rng.integers(0, 8)))
            want = problem_cost(p)
            assert want is not None
            res = p.solve()
            assert_matches(res.feasible, res.cost, want)


@pytest.mark.parametrize("method", ["lp"])
def test_basics_match_the_networkx_oracle(method):
    for build in (
        _simple_problem,
        _demand_as_capacity,
        _too_little_demand,
        _capacity_split,
        _transit,
    ):
        p = build()
        res = p.solve(method)
        assert_matches(res.feasible, res.cost, problem_cost(p))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_cost_nonnegative_and_conserving(seed):
    p = _random_instance(seed, n=6, arcs=14)
    res = p.solve()
    if not res.feasible:
        return
    assert res.cost >= -1e-9
    # conservation at transit nodes
    balance = {}
    for _aid, arc, f in res.nonzero_arcs(tol=0.0):
        balance[arc.tail] = balance.get(arc.tail, 0.0) + f
        balance[arc.head] = balance.get(arc.head, 0.0) - f
    for node in p.nodes:
        b = p.supply_of(node)
        net = balance.get(node, 0.0)
        if b > 0:
            assert net == pytest.approx(b, abs=1e-6)
        elif b < 0:
            assert -net <= -b + 1e-6  # demand is an upper bound
        else:
            assert net == pytest.approx(0.0, abs=1e-6)
