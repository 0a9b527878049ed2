"""Cross-backend consistency on real FBP instances.

On the actual model the placer builds — not just on random graphs —
the LP must agree with the Dinic-based heuristic on feasibility (a
max-flow decides it without costs) and never cost more than the
heuristic's feasible flow, and must match the networkx oracle's
optimal cost.
"""

import pytest

from repro.fbp import build_fbp_model
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)
from tests.flow_oracle import assert_matches, on_grid_problem, problem_cost


def _model(seed=0, num_cells=180, with_bounds=True, n=4):
    spec = NetlistSpec("cons", num_cells, utilization=0.55, num_pads=8)
    nl, logical = generate_netlist(spec, seed=seed)
    if with_bounds:
        bounds = attach_movebounds(
            nl, logical,
            [MoveBoundSpec("a", 0.15, density=0.7),
             MoveBoundSpec("b", 0.10, density=0.7)],
            seed=seed,
        )
    else:
        bounds = MoveBoundSet(nl.die)
    dec = decompose_regions(nl.die, bounds, nl.blockages)
    grid = Grid(nl.die, n, n)
    grid.build_regions(dec)
    return build_fbp_model(nl, bounds, grid, density_target=0.9)


def _assert_lp_agrees_with_heur(model):
    lp, heur = model.solve("lp"), model.solve("heur")
    assert lp.feasible == heur.feasible
    if lp.feasible:
        assert lp.cost <= heur.cost + 1e-9 * max(heur.cost, 1.0)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_cost_agreement_with_bounds(self, seed):
        _assert_lp_agrees_with_heur(_model(seed=seed))

    def test_cost_agreement_unconstrained(self):
        model = _model(seed=7, with_bounds=False, n=6)
        assert model.solve().feasible
        _assert_lp_agrees_with_heur(model)

    def test_external_flow_totals_agree(self):
        """Different flows may route differently; what must agree is
        the invariant that holds for ANY feasible flow: total
        prescribed content equals supply for each bound."""
        model = _model(seed=3)
        for method in ("lp", "heur"):
            result = model.solve(method)
            content = model.prescribed_content(result)
            per_bound = {}
            for (bound, _w), area in content.items():
                per_bound[bound] = per_bound.get(bound, 0.0) + area
            supply_per_bound = {}
            for (bound, _w), s in model.group_supply.items():
                supply_per_bound[bound] = (
                    supply_per_bound.get(bound, 0.0) + s
                )
            for bound, total in supply_per_bound.items():
                assert per_bound[bound] == pytest.approx(total, abs=1e-6)

    def test_auto_backend_valid(self):
        """The default ``FBPModel.solve()`` (through the resilient
        chain) is the plain LP solve, bit for bit."""
        model = _model(seed=5)
        chained = model.solve()
        plain = model.problem.solve()
        assert [a.method for a in chained.attempts] == ["lp"]
        assert chained.feasible == plain.feasible
        assert chained.flows.tobytes() == plain.flows.tobytes()
        assert chained.cost == plain.cost


@pytest.mark.parametrize(
    "seed, with_bounds, n",
    [(0, True, 4), (1, True, 4), (2, True, 4), (3, True, 4), (7, False, 6)],
)
def test_costs_match_the_networkx_oracle(seed, with_bounds, n):
    """On an on-grid copy of the FBP model's min-cost-flow problem."""
    problem = on_grid_problem(
        _model(seed=seed, with_bounds=with_bounds, n=n).problem
    )
    result = problem.solve()
    assert_matches(result.feasible, result.cost, problem_cost(problem))
