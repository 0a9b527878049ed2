"""The flow solvers against the networkx oracle.

Property-style sweeps over the seeded generators of
:mod:`tests.flow_oracle`, on the oracle's 1/64 grid: the MinCostFlow
LP through the one-shot :func:`solve_min_cost_flow` and through a
:class:`MinCostFlowProblem` (the same model, so the same bits), on
capacities a relaxation chain scales, and the transportation entry
points with their relaxation chains.  Every verdict and cost must be
the oracle's.
"""

import numpy as np
import pytest

from repro.flows import (
    RELAX_CHAIN_WINDOW,
    Arc,
    MinCostFlowProblem,
    solve_min_cost_flow,
    solve_transportation,
    solve_transportation_with_relaxation,
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
    columns are the very same arrays."""
    problem = MinCostFlowProblem()
    for i, b in enumerate(supply.tolist()):
        problem.add_node(i, b)
    for t, h, c, u in zip(tails.tolist(), heads.tolist(), costs, caps):
        problem.add_arc(t, h, float(c), float(u))
    return problem


def array_oracle(supply, tails, heads, costs, caps):
    return oracle_cost(
        dict(enumerate(supply.tolist())),
        zip(tails.tolist(), heads.tolist(), costs, caps),
    )


class TestNetworkSimplexIdentity:
    """The paper's NetworkSimplex step, the MinCostFlow LP, through
    the one-shot wrapper and through the keyed builder: exact
    equality, and the oracle's verdict and cost."""

    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identity(self, seed):
        inst = grid_ns_instance(1000 + seed)
        supply, tails, heads, costs, caps = inst
        r = keyed(*inst).solve()
        assert_matches(r.feasible, r.cost, array_oracle(*inst))
        once = solve_min_cost_flow(
            dict(enumerate(supply.tolist())),
            [
                Arc(t, h, float(c), float(u))
                for t, h, c, u in zip(tails.tolist(), heads.tolist(), costs, caps)
            ],
        )
        assert once.feasible == r.feasible
        assert once.flows.tobytes() == r.flows.tobytes()  # same flow bits
        assert once.cost == r.cost  # same cost bits
        assert once.stats.pivots == r.stats.pivots  # same HiGHS run


class TestScaledCapacities:
    """Capacities on the oracle's 10/64 grid, as a relaxation chain
    scales them: the instance and its copy with doubled capacities
    give the oracle's verdict and cost."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle(self, seed):
        supply, tails, heads, costs, caps = random_ns_instance(
            np.random.default_rng(3000 + seed)
        )
        supply, costs = on_grid(supply), on_grid(costs)
        caps = on_relax_grid(caps)
        for factor in (1.0, 2.0):
            inst = (supply, tails, heads, costs, caps * factor)
            r = keyed(*inst).solve()
            assert_matches(r.feasible, r.cost, array_oracle(*inst))


class TestRandomMCF:
    """Seeded supply/demand instances: the oracle's verdict and cost."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        problem = on_grid_problem(random_mcf(np.random.default_rng(2000 + seed)))
        r = problem.solve()
        assert_matches(r.feasible, r.cost, problem_cost(problem))


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
