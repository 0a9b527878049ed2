"""The flow kernels against the networkx oracle and against each other.

Property-style sweeps over the seeded generators of
:mod:`tests.flow_oracle`, on the oracle's 1/64 grid: the network
simplex through its array entry point and through
``MinCostFlowProblem.solve("ns")`` (the same arrays, so the same bits),
the kernel's starting-basis injection (``NetworkSimplex.solve(
warm_basis=export_basis())``), successive shortest paths (and
``solve("auto")`` picking it), and the transportation entry points with
their relaxation chains.  Every verdict and cost must be the oracle's.
"""

import numpy as np
import pytest

from repro.flows import (
    RELAX_CHAIN_WINDOW,
    MinCostFlowProblem,
    solve_transportation,
    solve_transportation_with_relaxation,
)
from repro.flows.networksimplex import (
    NetworkSimplex,
    solve_network_simplex_arrays,
)
from tests.flow_oracle import (
    assert_matches,
    on_grid,
    on_grid_problem,
    on_relax_grid,
    oracle_cost,
    problem_cost,
    random_mcf,
    random_ns_instance,
    random_transport,
    relaxation_oracle,
    transport_cost,
)


def grid_ns_instance(seed):
    """A seeded :func:`random_ns_instance`, on the grid."""
    supply, tails, heads, costs, caps = random_ns_instance(
        np.random.default_rng(seed)
    )
    return on_grid(supply), tails, heads, on_grid(costs), on_grid(caps)


def keyed(supply, tails, heads, costs, caps):
    """The array instance as a :class:`MinCostFlowProblem` whose
    ``as_arrays()`` gives back the very same arrays."""
    problem = MinCostFlowProblem()
    for i, b in enumerate(supply.tolist()):
        problem.add_node(i, b)
    for t, h, c, u in zip(tails.tolist(), heads.tolist(), costs, caps):
        problem.add_arc(t, h, float(c), float(u))
    return problem


def kernel_solve(supply, tails, heads, costs, caps, warm_basis=None):
    """Solve the array instance on a bare :class:`NetworkSimplex`:
    every supply node is fed by a super source, every demand node
    drains into a super sink over an arc of capacity ``|b|``.  Returns
    the kernel, its verdict and the cost of the input arcs' flows."""
    n = len(supply)
    s, t = n, n + 1
    src = [i for i in range(n) if supply[i] > 0]
    snk = [i for i in range(n) if supply[i] < 0]
    kernel = NetworkSimplex(
        n + 2,
        np.concatenate([tails, [s] * len(src), snk]),
        np.concatenate([heads, src, [t] * len(snk)]),
        np.concatenate([costs, np.zeros(len(src) + len(snk))]),
        np.concatenate([caps, supply[src], -supply[snk]]),
    )
    total = float(supply[src].sum())
    balance = np.zeros(n + 2)
    balance[s], balance[t] = total, -total
    feasible = kernel.solve(balance, warm_basis=warm_basis)
    cost = float(np.dot(kernel.flow[: len(tails)], costs))
    return kernel, feasible, cost


class TestNetworkSimplexIdentity:
    """The array entry point and the keyed path onto it: exact
    equality, and the oracle's verdict and cost."""

    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identity(self, seed):
        inst = grid_ns_instance(1000 + seed)
        supply, tails, heads, costs, caps = inst
        feasible, cost, flows, pivots = solve_network_simplex_arrays(*inst)
        want = oracle_cost(
            dict(enumerate(supply.tolist())),
            zip(tails.tolist(), heads.tolist(), costs, caps),
        )
        assert_matches(feasible, cost, want)
        r = keyed(*inst).solve("ns")
        assert r.feasible == feasible
        if feasible:
            assert r.flows.tobytes() == flows.tobytes()  # same flow bits
            assert r.cost == cost  # same cost bits
            assert r.stats.pivots == pivots  # same pivot sequence length

    def test_warm_basis_round_trip(self):
        """The basis a solve exports starts a re-solve of the identical
        instance, which is already optimal there: no pivots, the same
        verdict, flow bits and cost bits."""
        inst = grid_ns_instance(7)
        cold, feasible, cost = kernel_solve(*inst)
        assert feasible
        warm, warm_feasible, warm_cost = kernel_solve(
            *inst, warm_basis=cold.export_basis()
        )
        assert warm.warm_used
        assert warm.pivots == 0
        assert warm_feasible == feasible
        assert warm.flow == cold.flow
        assert warm_cost == cost


class TestStartingBasis:
    """``NetworkSimplex.solve(warm_basis=)`` — the kernel's one
    basis-injection point — against the oracle: a basis exported by
    a solve of the instance, re-used on the instance itself and on a
    copy with doubled capacities, gives the oracle's verdict and
    cost."""

    @pytest.mark.parametrize("seed", range(12))
    def test_warm_basis_matches_oracle(self, seed):
        supply, tails, heads, costs, caps = random_ns_instance(
            np.random.default_rng(3000 + seed)
        )
        supply, costs = on_grid(supply), on_grid(costs)
        caps = on_relax_grid(caps)
        basis = kernel_solve(supply, tails, heads, costs, caps)[0].export_basis()
        for factor in (1.0, 2.0):
            want = oracle_cost(
                dict(enumerate(supply.tolist())),
                zip(tails.tolist(), heads.tolist(), costs, caps * factor),
            )
            kernel, feasible, cost = kernel_solve(
                supply, tails, heads, costs, caps * factor, warm_basis=basis
            )
            if factor == 1.0:
                assert kernel.warm_used
            assert_matches(feasible, cost, want)


class TestSSPIdentity:
    """Successive shortest paths: the oracle's verdict and cost, and
    ``solve("auto")`` on a small instance is the SSP solve exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identity(self, seed):
        problem = on_grid_problem(random_mcf(np.random.default_rng(2000 + seed)))
        assert problem.auto_method() == "ssp"
        r = problem.solve(method="ssp")
        assert_matches(r.feasible, r.cost, problem_cost(problem))
        auto = problem.solve(method="auto")
        assert auto.stats.method == "ssp"
        assert auto.feasible == r.feasible
        assert auto.flows.tobytes() == r.flows.tobytes()
        assert auto.cost == r.cost
        assert auto.stats.augmenting_paths == r.stats.augmenting_paths


class TestTransportationPlacementIdentity:
    """The partitioning-facing entry points return the oracle's
    verdict, relaxation stage and cost."""

    @pytest.mark.parametrize("seed", range(10))
    def test_solve_transportation_identical(self, seed):
        supplies, capacities, costs = random_transport(
            np.random.default_rng(4000 + seed)
        )
        supplies, capacities, costs = (
            on_grid(supplies), on_grid(capacities), on_grid(costs)
        )
        res = solve_transportation(supplies, capacities, costs)
        assert_matches(
            res.feasible, res.cost, transport_cost(supplies, capacities, costs)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_relaxation_chain_identical(self, seed):
        supplies, capacities, costs = random_transport(
            np.random.default_rng(5000 + seed)
        )
        # 0.9x pushes some seeds into relaxation
        supplies, capacities, costs = (
            on_grid(supplies), on_relax_grid(capacities * 0.9), on_grid(costs)
        )
        want_stage, want = relaxation_oracle(
            supplies, capacities, costs, RELAX_CHAIN_WINDOW
        )
        res, stage = solve_transportation_with_relaxation(
            supplies, capacities, costs
        )
        assert stage == want_stage
        assert_matches(res.feasible, res.cost, want)
