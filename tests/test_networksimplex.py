"""The §IV.A MinCostFlow solve (the paper's NetworkSimplex step, here
the HiGHS LP of ``MinCostFlowProblem.solve``) against the networkx
oracle of :mod:`tests.flow_oracle`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import MinCostFlowProblem
from tests.flow_oracle import (
    assert_matches,
    on_grid_problem,
    problem_cost,
    random_mcf,
)


def _random_instance(seed, n=8, extra_arcs=18):
    rng = np.random.default_rng(seed)
    b = rng.integers(-6, 7, n)
    b[-1] -= b.sum()
    p = MinCostFlowProblem()
    for i, bi in enumerate(b):
        p.add_node(i, float(bi))
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        edges.add(((i + 1) % n, i))
    for _ in range(extra_arcs):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((int(u), int(v)))
    for (u, v) in edges:
        c = int(rng.integers(0, 9))
        cap = int(rng.integers(4, 18))
        p.add_arc(u, v, float(c), float(cap))
    return p


def _chain():
    p = MinCostFlowProblem()
    p.add_node(0, 2.0)
    p.add_node(1)
    p.add_node(2, -2.0)
    p.add_arc(0, 1, 1.0, 5.0)
    p.add_arc(1, 2, 1.0, 5.0)
    return p


def _capacity_split():
    p = MinCostFlowProblem()
    p.add_node("s", 4.0)
    p.add_node("d", -4.0)
    p.add_arc("s", "d", 1.0, capacity=1.0)  # cheap
    p.add_arc("s", "d", 5.0)  # dear
    return p


def _too_little_demand():
    p = MinCostFlowProblem()
    p.add_node("s", 5.0)
    p.add_node("d", -1.0)
    p.add_arc("s", "d", 1.0)
    return p


def _unbalanced_demand_capacity():
    p = MinCostFlowProblem()
    p.add_node("s", 1.0)
    p.add_node("d1", -10.0)
    p.add_node("d2", -10.0)
    p.add_arc("s", "d1", 3.0)
    p.add_arc("s", "d2", 1.0)
    return p


def _zero_supply():
    p = MinCostFlowProblem()
    p.add_node("a")
    p.add_node("b")
    p.add_arc("a", "b", 1.0)
    return p


class TestBasics:
    def test_chain(self):
        r = _chain().solve()
        assert r.feasible and r.cost == pytest.approx(4.0)
        assert np.allclose(r.flows, [2.0, 2.0])

    def test_capacity_split(self):
        r = _capacity_split().solve()
        assert r.flow_on(0) == pytest.approx(1.0)  # the cheap arc
        assert r.flow_on(1) == pytest.approx(3.0)

    def test_infeasible(self):
        assert not _too_little_demand().solve().feasible

    def test_unbalanced_demand_capacity(self):
        r = _unbalanced_demand_capacity().solve()
        assert r.feasible
        assert r.flows[1] == pytest.approx(1.0)
        assert r.flows[0] == pytest.approx(0.0)

    def test_zero_supply(self):
        r = _zero_supply().solve()
        assert r.feasible and r.cost == 0.0


class TestAgainstReferences:
    @pytest.mark.parametrize("seed", range(20))
    def test_vs_networkx(self, seed):
        p = _random_instance(seed)
        r = p.solve()
        assert_matches(r.feasible, r.cost, problem_cost(p))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_mcf_vs_networkx(self, seed):
        p = on_grid_problem(random_mcf(np.random.default_rng(3000 + seed)))
        r = p.solve()
        assert_matches(r.feasible, r.cost, problem_cost(p))

    @pytest.mark.parametrize("seed", range(8))
    def test_vs_ssp_unbalanced(self, seed):
        """Total demand far above supply (the unbalanced FBP shape)."""
        rng = np.random.default_rng(seed)
        p = MinCostFlowProblem()
        for i in range(5):
            p.add_node(("s", i), float(rng.integers(1, 6)))
        for j in range(4):
            p.add_node(("d", j), -float(rng.integers(3, 10)))
        for i in range(5):
            for j in range(4):
                p.add_arc(("s", i), ("d", j), float(rng.integers(0, 8)))
        r = p.solve()
        assert_matches(r.feasible, r.cost, problem_cost(p))

    def test_flows_conserve(self):
        p = _random_instance(3)
        r = p.solve()
        if not r.feasible:
            return
        balance = {}
        for _aid, arc, f in r.nonzero_arcs(tol=0.0):
            balance[arc.tail] = balance.get(arc.tail, 0.0) + f
            balance[arc.head] = balance.get(arc.head, 0.0) - f
        for node in p.nodes:
            b = p.supply_of(node)
            net = balance.get(node, 0.0)
            if b > 0:
                assert net == pytest.approx(b, abs=1e-6)
            elif b < 0:
                assert -net <= -b + 1e-6
            else:
                assert net == pytest.approx(0.0, abs=1e-6)

    def test_capacities_respected(self):
        p = _random_instance(4)
        r = p.solve()
        for flow, arc in zip(r.flows, p.arcs):
            assert -1e-9 <= flow <= arc.capacity + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_property_matches_the_networkx_oracle(seed):
    for p in (
        _random_instance(seed, n=6, extra_arcs=12),
        on_grid_problem(random_mcf(np.random.default_rng(seed))),
    ):
        r = p.solve()
        assert_matches(r.feasible, r.cost, problem_cost(p))


@pytest.mark.parametrize("method", ["lp"])
def test_basics_match_the_networkx_oracle(method):
    for build in (
        _chain,
        _capacity_split,
        _too_little_demand,
        _unbalanced_demand_capacity,
        _zero_supply,
    ):
        p = build()
        r = p.solve(method)
        assert_matches(r.feasible, r.cost, problem_cost(p))
