"""The solver-free front end of ``solve_transportation``.

``_solve_forced`` may answer an instance only when HiGHS could not
answer it differently.  The sweep below holds it to that: on seeded
instances of every kind the call sites produce (loose, tight and
deficient capacities, admissibility masks, zero supplies, ties,
near-ties, borderline deficits) the relaxation stage, the verdict and
the rounded assignment must equal those of the LP alone, and whatever
sits inside the margins must reach the LP.  The cost oracle at the end
shares no code with ``repro.flows``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows import (
    RELAX_CHAIN_PARTITION,
    round_almost_integral,
    solve_transportation,
    solve_transportation_with_relaxation,
)
from repro.flows import transportation
from repro.obs import Tracer, set_tracer
from tests.flow_oracle import assert_matches, on_grid, transport_cost

INF = np.inf


@pytest.fixture
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def lp_only(monkeypatch):
    monkeypatch.setattr(transportation, "_solve_forced", lambda *a: None)


# ----------------------------------------------------------------------
# seeded sweep: front end == LP alone
# ----------------------------------------------------------------------
KINDS = ("loose", "tight", "deficient", "tie", "near_tie", "edge_deficit")


def make_instance(rng: np.random.Generator, kind: str):
    n = int(rng.integers(1, 41))
    k = int(rng.integers(1, 7))
    supplies = rng.choice([1.0, 1.5, 2.0, 3.0], size=n)
    supplies[rng.random(n) < 0.1] = 0.0
    # L1-distance-like costs on a coarse lattice
    costs = np.abs(rng.integers(0, 60, (n, 1)) - rng.integers(0, 60, (1, k)))
    costs = costs + rng.integers(0, 40, (n, k)) + rng.random((n, k))
    # 1-4 admissibility patterns, each keeping at least one sink
    patterns = rng.random((int(rng.integers(1, 5)), k)) < 0.6
    patterns[np.arange(len(patterns)), rng.integers(0, k, len(patterns))] = True
    admissible = patterns[rng.integers(0, len(patterns), n)]
    costs[~admissible] = INF
    total = supplies.sum()
    share = rng.dirichlet(np.ones(k)) * total
    if kind == "tight":
        capacities = share * 1.02 + 0.5
    elif kind == "deficient":
        capacities = share * rng.uniform(0.5, 0.98)
    elif kind == "edge_deficit":
        # the admissible sinks of all sources hold the supply to within
        # +-1e-9 * total: inside the margin on either side
        used = admissible[supplies > 0].any(axis=0)
        capacities = np.where(used, share, 1.0)
        gap = total - capacities[used].sum()
        capacities[np.argmax(used)] += gap + rng.choice([-1e-9, 1e-9]) * total
        capacities = np.maximum(capacities, 0.0)
    else:
        capacities = np.full(k, total + 1.0)
    if kind in ("tie", "near_tie") and k > 1:
        rows = np.nonzero(admissible.sum(axis=1) > 1)[0]
        for i in rows[: max(1, len(rows) // 3)]:
            cols = np.nonzero(admissible[i])[0]
            a, b = cols[np.argsort(costs[i, cols])[:2]]
            bump = 0.0 if kind == "tie" else 1e-7 * costs[i, a]
            costs[i, b] = costs[i, a] + bump
    return supplies, capacities, costs


def solve_chain(supplies, capacities, costs):
    result, stage = solve_transportation_with_relaxation(
        supplies, capacities, costs, chain=RELAX_CHAIN_PARTITION
    )
    assignment = None
    if result.feasible:
        assignment, _ = round_almost_integral(
            result, supplies, capacities, costs
        )
    return result.feasible, stage, assignment


@pytest.mark.parametrize("kind", KINDS)
def test_front_end_equals_lp_alone(kind, monkeypatch, tracer):
    rng = np.random.default_rng(KINDS.index(kind))
    instances = [make_instance(rng, kind) for _ in range(60)]
    with_front_end = [solve_chain(*inst) for inst in instances]
    answered = tracer.counter("transport.solves.closed_form") + tracer.counter(
        "transport.solves.precheck"
    )
    lp_only(monkeypatch)
    for inst, got in zip(instances, with_front_end):
        feasible, stage, assignment = solve_chain(*inst)
        assert got[0] == feasible
        assert got[1] == stage
        if feasible:
            assert np.array_equal(got[2], assignment)
    # the sweep must exercise the front end, not only the LP behind it
    if kind in ("loose", "tight", "deficient"):
        assert answered >= 30


def test_sweep_reaches_every_exit(tracer):
    for kind in KINDS:
        rng = np.random.default_rng(100 + KINDS.index(kind))
        for _ in range(40):
            solve_chain(*make_instance(rng, kind))
    for exit_ in ("closed_form", "precheck", "lp"):
        assert tracer.counter(f"transport.solves.{exit_}") > 0
    assert tracer.counter("transport.solves") == sum(
        tracer.counter(f"transport.solves.{e}")
        for e in ("closed_form", "precheck", "lp")
    )


# ----------------------------------------------------------------------
# what the front end must leave to the LP
# ----------------------------------------------------------------------
def exits(tracer):
    return {
        e: tracer.counter(f"transport.solves.{e}")
        for e in ("closed_form", "precheck", "lp")
    }


class TestDeferral:
    supplies = np.array([2.0, 3.0])
    roomy = np.array([10.0, 10.0])

    def test_strict_minimum_is_answered(self, tracer):
        res = solve_transportation(
            self.supplies, self.roomy, np.array([[1.0, 2.0], [5.0, 1.0]])
        )
        assert exits(tracer) == {"closed_form": 1, "precheck": 0, "lp": 0}
        assert res.stats.method == "closed_form" and res.stats.pivots == 0
        assert res.flow.tolist() == [[2.0, 0.0], [0.0, 3.0]]
        assert res.cost == 5.0

    def test_exact_tie_is_deferred(self, tracer):
        res = solve_transportation(
            self.supplies, self.roomy, np.array([[1.0, 1.0], [5.0, 1.0]])
        )
        assert exits(tracer) == {"closed_form": 0, "precheck": 0, "lp": 1}
        assert res.stats.method == "lp"

    @pytest.mark.parametrize("scale", [1.0, 250.0, 4e4])
    def test_near_tie_inside_the_margin_is_deferred(self, tracer, scale):
        near = scale * (1.0 + 5e-7)
        costs = np.array([[scale, near], [5.0 * scale, scale]])
        solve_transportation(self.supplies, self.roomy, costs)
        assert exits(tracer)["lp"] == 1
        # two orders of magnitude further out the answer is forced
        costs[0, 1] = scale * (1.0 + 5e-4) + 1e-3
        solve_transportation(self.supplies, self.roomy, costs)
        assert exits(tracer)["closed_form"] == 1

    def test_cheapest_sink_overfull_is_deferred(self, tracer):
        res = solve_transportation(
            self.supplies,
            np.array([4.0, 10.0]),
            np.array([[1.0, 2.0], [1.0, 5.0]]),
        )
        assert exits(tracer) == {"closed_form": 0, "precheck": 0, "lp": 1}
        assert len(res.split_sources()) == 1

    def test_clear_deficit_is_answered(self, tracer):
        costs = np.array([[1.0, INF, 2.0], [1.0, INF, 2.0], [3.0, 1.0, INF]])
        # sources 0 and 1 (supply 4) are confined to sinks {0, 2}
        res = solve_transportation(
            np.array([2.0, 2.0, 1.0]), np.array([1.5, 50.0, 2.0]), costs
        )
        assert not res.feasible and res.cost == INF
        assert exits(tracer) == {"closed_form": 0, "precheck": 1, "lp": 0}
        assert tracer.counter("transport.infeasible") == 1

    @pytest.mark.parametrize("scale", [1.0, 300.0, 1e6])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_borderline_deficit_is_deferred(self, tracer, scale, sign):
        supplies = np.array([2.0, 2.0, 1.0]) * scale
        capacities = np.array([1.5, 2.0, 2.5]) * scale
        capacities[2] -= sign * 1e-9 * scale
        costs = np.array([[1.0, INF, 2.0], [1.0, INF, 2.0], [3.0, 1.0, INF]])
        solve_transportation(supplies, capacities, costs)
        assert exits(tracer) == {"closed_form": 0, "precheck": 0, "lp": 1}

    def test_more_sinks_than_the_subset_table_holds(self, tracer):
        k = transportation._PRECHECK_MAX_SINKS + 1
        res = solve_transportation(
            np.array([5.0]), np.full(k, 0.1), np.arange(1.0, k + 1)[None, :]
        )
        assert not res.feasible
        assert exits(tracer) == {"closed_form": 0, "precheck": 0, "lp": 1}


def test_precheck_agrees_with_brute_force_condition_1():
    """The doubling pass computes, for every sink set, exactly the
    confined supply and the capacity a plain loop computes."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        supplies, capacities, costs = make_instance(rng, "deficient")
        n, k = costs.shape
        finite = np.isfinite(costs)
        worst = -INF
        for subset in range(1 << k):
            inside = np.array([(subset >> j) & 1 for j in range(k)], bool)
            confined = ~(finite & ~inside).any(axis=1)
            worst = max(
                worst, supplies[confined].sum() - capacities[inside].sum()
            )
        res = transportation._solve_forced(supplies, capacities, costs, finite)
        tolerance = transportation._FORCED_FACTOR * transportation._HIGHS_TOL
        slack = tolerance * supplies.max() * (n + k + finite.sum())
        if worst > slack:
            assert res is not None and not res.feasible
        elif worst < 0:
            assert res is None or res.feasible


# ----------------------------------------------------------------------
# accounting: one exit
# ----------------------------------------------------------------------
class TestAccounting:
    def test_zero_supply_without_admissible_sink_costs_nothing(self, tracer):
        supplies = np.array([0.0, 2.0])
        costs = np.array([[INF, INF], [1.0, 2.0]])
        res = solve_transportation(supplies, np.array([5.0, 5.0]), costs)
        assert res.feasible and res.cost == 2.0
        assert res.stats.method == "closed_form"
        assert not np.isnan(res.flow).any()
        assignment, _ = round_almost_integral(
            res, supplies, np.array([5.0, 5.0]), costs
        )
        assert assignment[1] == 0

    def test_all_supplies_zero(self, tracer):
        res = solve_transportation(
            np.zeros(3), np.array([1.0]), np.full((3, 1), INF)
        )
        assert res.feasible and res.cost == 0.0 and not res.flow.any()
        assert res.stats.method == "closed_form"

    def test_empty_instance_is_counted_apart(self, tracer):
        res = solve_transportation(
            np.zeros(0), np.array([3.0, 1.0]), np.zeros((0, 2))
        )
        assert res.feasible and res.flow.shape == (0, 2)
        s = res.stats
        assert (s.method, s.nodes, s.arcs) == ("empty", 2, 0)
        assert tracer.counter("transport.empty") == 1
        assert tracer.counter("transport.solves") == 0

    def test_no_admissible_sink_is_counted_apart(self, tracer):
        res = solve_transportation(
            np.array([1.0, 1.0]),
            np.array([5.0, 5.0]),
            np.array([[INF, INF], [1.0, INF]]),
        )
        assert not res.feasible and res.cost == INF
        s = res.stats
        assert (s.method, s.nodes, s.arcs) == ("no_admissible_sink", 4, 1)
        assert tracer.counter("transport.no_admissible_sink") == 1
        assert tracer.counter("transport.solves") == 0
        assert tracer.counter("transport.infeasible") == 0

    def test_unknown_method_is_rejected_before_any_exit(self):
        # there is one solver: no backend may be named, not even on an
        # instance the "empty" exit would answer
        with pytest.raises(TypeError, match="method"):
            solve_transportation(
                np.zeros(0), np.array([1.0]), np.zeros((0, 1)), method="ns"
            )


# ----------------------------------------------------------------------
# independent cost oracle (tests/flow_oracle.py)
# ----------------------------------------------------------------------
def transportation_fixtures():
    """The instances of ``tests/test_transportation.py``, on the grid."""
    yield [2.0, 3.0], [3.0, 4.0], [[1.0, 2.0], [5.0, 1.0]]
    yield [2.0, 1.0], [3.0, 3.0], [[INF, 2.0], [1.0, INF]]
    yield [10.0], [3.0], [[1.0]]
    yield [1.0], [100.0, 100.0], [[1.0, 2.0]]
    yield [2.0, 3.0, 1.0], [3.5, 3.5], [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]
    yield [1.0, 1.0], [2.0, 2.0], [[INF, 1.0], [1.0, INF]]
    rng = np.random.default_rng(3)
    for _ in range(5):  # test_mcf_backend_matches_lp
        sup = rng.uniform(0.5, 3.0, 6)
        cap = rng.uniform(2.0, 6.0, 3)
        while cap.sum() < sup.sum():
            cap *= 1.3
        yield sup, cap, rng.uniform(0.0, 9.0, (6, 3))
    rng = np.random.default_rng(0)
    for _ in range(5):  # test_split_source_bound
        sup = rng.uniform(0.5, 2.0, 30)
        yield sup, np.full(4, sup.sum() / 4 * 1.15), rng.uniform(0, 10, (30, 4))
    rng = np.random.default_rng(7)
    for _ in range(5):  # test_rounding_overflow_bounded_by_max_cell
        sup = rng.uniform(0.5, 2.0, 25)
        yield sup, np.full(3, sup.sum() / 3 * 1.02), rng.uniform(0, 5, (25, 3))


def test_costs_match_the_networkx_oracle():
    seen = set()
    for sup, cap, costs in transportation_fixtures():
        sup, cap, costs = on_grid(sup), on_grid(cap), on_grid(costs)
        res = solve_transportation(sup, cap, costs)
        assert_matches(res.feasible, res.cost, transport_cost(sup, cap, costs))
        seen.add(res.stats.method)
    assert seen == {"closed_form", "precheck", "lp"}


def test_oracle_on_the_sweep():
    rng = np.random.default_rng(11)
    for kind in ("loose", "tight", "deficient"):
        for _ in range(15):
            sup, cap, costs = (on_grid(a) for a in make_instance(rng, kind))
            res = solve_transportation(sup, cap, costs)
            assert_matches(res.feasible, res.cost, transport_cost(sup, cap, costs))
