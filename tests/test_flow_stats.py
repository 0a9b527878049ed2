"""Golden tests for the solver stat hooks.

Exact node/arc counts on small fixed instances (they are structural,
hence fully deterministic), nonzero effort counts (pivots /
augmenting paths) per backend, and the counter side-channel on the
default tracer.
"""

import numpy as np
import pytest

from repro.fbp import build_fbp_model
from repro.flows import Dinic, MinCostFlowProblem, solve_transportation
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from repro.obs import Tracer, set_tracer

DIE = Rect(0, 0, 100, 100)


@pytest.fixture
def tracer():
    """Fresh default tracer per test so counter deltas are exact."""
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def small_mcf():
    p = MinCostFlowProblem()
    p.add_node("s", 5.0)
    p.add_node("a")
    p.add_node("b")
    p.add_node("t", -10.0)
    p.add_arc("s", "a", 1.0, capacity=3.0)
    p.add_arc("s", "b", 3.0)
    p.add_arc("a", "t", 0.0)
    p.add_arc("b", "t", 0.0)
    return p


class TestMinCostFlowStats:
    def test_ssp_counts(self, tracer):
        result = small_mcf().solve("ssp")
        s = result.stats
        assert s.method == "ssp"
        assert s.nodes == 4
        assert s.arcs == 4
        # two shortest-path augmentations: 3 units via a, 2 via b
        assert s.augmenting_paths == 2
        assert s.pivots == 0
        assert s.objective == pytest.approx(9.0)
        assert s.routed == pytest.approx(5.0)

    def test_ns_counts(self, tracer):
        result = small_mcf().solve("ns")
        s = result.stats
        assert s.method == "ns"
        assert s.nodes == 4
        assert s.arcs == 4
        assert s.pivots > 0
        assert s.objective == pytest.approx(9.0)

    def test_lp_counts(self, tracer):
        result = small_mcf().solve("lp")
        s = result.stats
        assert s.method == "lp"
        assert s.nodes == 4
        assert s.arcs == 4
        assert s.pivots >= 0  # HiGHS may presolve the LP away
        assert s.objective == pytest.approx(9.0)

    def test_counters_emitted(self, tracer):
        small_mcf().solve("ssp")
        assert tracer.counter("mcf.solves") == 1
        assert tracer.counter("mcf.solves.ssp") == 1
        assert tracer.counter("mcf.nodes") == 4
        assert tracer.counter("mcf.arcs") == 4
        assert tracer.counter("mcf.augmenting_paths") == 2

    def test_infeasible_counter(self, tracer):
        p = MinCostFlowProblem()
        p.add_node("s", 5.0)
        p.add_node("t", -1.0)  # demand < supply: infeasible
        p.add_arc("s", "t", 1.0)
        result = p.solve("ssp")
        assert not result.feasible
        assert tracer.counter("mcf.infeasible") == 1

    def test_stats_to_dict_round_trip(self, tracer):
        s = small_mcf().solve("ssp").stats
        d = s.to_dict()
        assert d["method"] == "ssp"
        assert d["nodes"] == 4 and d["arcs"] == 4
        assert d["augmenting_paths"] == 2


class TestMaxFlowStats:
    def test_dinic_counts(self, tracer):
        d = Dinic()
        d.add_edge("s", "a", 2.0)
        d.add_edge("s", "b", 2.0)
        d.add_edge("a", "t", 1.0)
        d.add_edge("b", "t", 3.0)
        value = d.max_flow("s", "t")
        s = d.stats
        assert value == pytest.approx(3.0)
        assert s.value == pytest.approx(3.0)
        assert s.nodes == 4
        assert s.arcs == 4
        assert s.bfs_phases >= 1
        assert s.augmenting_paths >= 2  # two disjoint paths carry flow
        assert tracer.counter("maxflow.solves") == 1
        assert tracer.counter("maxflow.augmenting_paths") == s.augmenting_paths


class TestTransportStats:
    def test_lp_counts(self, tracer):
        supplies = np.array([2.0, 3.0])
        # source 1 does not fit its cheapest sink: a split optimum,
        # which the closed-form front end leaves to the LP
        capacities = np.array([4.0, 2.0, 1.0])
        costs = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, np.inf]])
        result = solve_transportation(supplies, capacities, costs, "lp")
        assert result.feasible
        s = result.stats
        assert s.method == "lp"
        assert s.nodes == 5  # 2 sources + 3 sinks
        assert s.arcs == 5  # finite-cost pairs only
        assert tracer.counter("transport.solves") == 1
        assert tracer.counter("transport.solves.lp") == 1
        assert tracer.counter("transport.nodes") == 5
        assert tracer.counter("transport.arcs") == 5

    def test_mcf_backend_augmentations(self, tracer):
        supplies = np.array([2.0, 3.0])
        capacities = np.array([4.0, 4.0])
        costs = np.array([[1.0, 2.0], [2.0, 1.0]])
        result = solve_transportation(supplies, capacities, costs, "mcf")
        assert result.feasible
        assert result.stats.method == "mcf"
        assert result.stats.augmenting_paths > 0


class TestFBPInstanceGolden:
    """One fixed 6-cell / 2x2-grid FBP instance with hand-checkable
    structure; the model size is exact, solver effort is nonzero."""

    def _model(self):
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("left", [Rect(0, 0, 50, 100)])
        nl = Netlist(DIE, row_height=1.0, site_width=0.5, name="golden")
        nl.add_cell("m0", 2.0, 1.0, x=10.0, y=10.0, movebound="left")
        nl.add_cell("m1", 2.0, 1.0, x=30.0, y=80.0, movebound="left")
        for i in range(4):
            nl.add_cell(
                f"f{i}", 2.0, 1.0, x=60.0 + 5 * i, y=40.0 + 10 * i
            )
        nl.finalize()
        dec = decompose_regions(DIE, bounds, nl.blockages)
        grid = Grid(DIE, 2, 2)
        grid.build_regions(dec)
        return build_fbp_model(nl, bounds, grid)

    def test_model_size_exact(self, tracer):
        model = self._model()
        assert model.stats.num_windows == 4
        assert model.stats.num_nodes == 18
        assert model.stats.num_arcs == 38
        assert model.stats.num_external_arcs == 10

    def test_solve_stats_match_model(self, tracer):
        model = self._model()
        result = model.solve("ssp")
        assert result.feasible
        s = result.stats
        assert s.nodes == model.stats.num_nodes == 18
        assert s.arcs == model.stats.num_arcs == 38
        assert s.augmenting_paths == 4  # one per supply group routed
        assert np.isfinite(s.objective)

    def test_ns_backend_pivots_nonzero(self, tracer):
        result = self._model().solve("ns")
        assert result.feasible
        assert result.stats.pivots > 0
        assert tracer.counter("mcf.pivots") == result.stats.pivots

    def test_backends_agree_on_objective(self, tracer):
        costs = [self._model().solve(m).cost for m in ("ssp", "ns", "lp")]
        assert costs[0] == pytest.approx(costs[1], rel=1e-6)
        assert costs[0] == pytest.approx(costs[2], rel=1e-6)
