"""Min-cut witness exactness against the brute-force condition-(1)
oracle, infeasibility diagnosis, and graceful degradation via capacity
relaxation."""

import pytest

from repro.feasibility import check_feasibility, condition_one_all_subsets
from repro.geometry import Rect, RectSet
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.place import (
    BonnPlaceFBP,
    BonnPlaceOptions,
    InfeasiblePlacementError,
)
from repro.resilience import (
    InfeasibleInputError,
    diagnose_infeasibility,
    relax_to_feasible,
    reset_faults,
    set_default_budget,
)

DIE = Rect(0, 0, 100, 100)


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    yield
    reset_faults()
    set_default_budget(None)


def _netlist_with(counts):
    """counts: {movebound_name_or_None: (num_cells, size)}"""
    nl = Netlist(DIE)
    i = 0
    for mb, (num, size) in counts.items():
        for _ in range(num):
            nl.add_cell(f"c{i}", size, 1.0, movebound=mb)
            i += 1
    return nl


def _witness_demand_capacity(nl, mbs, witness, density=1.0):
    """Recompute both sides of condition (1) for a subset, from scratch."""
    sizes = {}
    for c in nl.cells:
        if c.fixed or c.movebound is None:
            continue
        sizes[c.movebound] = sizes.get(c.movebound, 0.0) + c.size
    union = RectSet()
    for b in mbs.all_bounds():
        if b.name in witness:
            union = union.union(b.area)
    demand = sum(sizes.get(name, 0.0) for name in witness)
    capacity = union.subtract(nl.blockages).area * density
    return demand, capacity


class TestWitnessExactness:
    def test_single_violator(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"a": (80, 2.0)})  # 160 into 100
        report = check_feasibility(nl, mbs)
        assert not report.feasible
        assert report.witness == frozenset({"a"})
        # the witness really violates condition (1)
        demand, capacity = _witness_demand_capacity(nl, mbs, report.witness)
        assert demand > capacity

    def test_joint_violation_needs_both(self):
        """Each bound fits alone (80 into 100) but jointly they violate
        (160 into the same 100) — the witness must be exactly {a, b}."""
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 10, 10)])
        mbs.add_rects("b", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"a": (40, 2.0), "b": (40, 2.0)})
        report = check_feasibility(nl, mbs)
        assert not report.feasible
        assert report.witness == frozenset({"a", "b"})
        # neither singleton violates — only the pair does
        for single in ({"a"}, {"b"}):
            d, c = _witness_demand_capacity(nl, mbs, single)
            assert d <= c
        d, c = _witness_demand_capacity(nl, mbs, report.witness)
        assert d > c

    def test_witness_matches_oracle(self):
        """The min-cut witness must itself be a violating subset the
        exponential oracle would accept."""
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 10, 10)])
        mbs.add_rects("b", [Rect(5, 5, 15, 15)])
        mbs.add_rects("ok", [Rect(50, 50, 90, 90)])
        nl = _netlist_with(
            {"a": (50, 2.0), "b": (50, 2.0), "ok": (10, 2.0)}
        )
        report = check_feasibility(nl, mbs)
        assert not report.feasible
        oracle = condition_one_all_subsets(nl, mbs)
        assert oracle is not None
        # the uninvolved bound stays out of the witness
        assert "ok" not in report.witness
        d, c = _witness_demand_capacity(nl, mbs, report.witness)
        assert d > c

    def test_feasible_has_no_witness(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 30, 30)])
        nl = _netlist_with({"a": (40, 2.0)})
        report = check_feasibility(nl, mbs)
        assert report.feasible and report.witness is None
        assert condition_one_all_subsets(nl, mbs) is None


class TestDiagnosis:
    def test_summary_names_both_sides(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"m": (80, 2.0)})
        diagnosis = diagnose_infeasibility(nl, mbs)
        assert diagnosis is not None
        assert diagnosis.witness == frozenset({"m"})
        assert diagnosis.demand == pytest.approx(160.0)
        assert diagnosis.capacity == pytest.approx(100.0)
        assert diagnosis.deficit == pytest.approx(60.0)
        assert diagnosis.relaxation_needed == pytest.approx(1.6)
        s = diagnosis.summary()
        assert "['m']" in s and "condition (1)" in s
        assert "160.0" in s and "100.0" in s

    def test_feasible_returns_none(self):
        nl = _netlist_with({None: (10, 2.0)})
        assert diagnose_infeasibility(nl, MoveBoundSet(DIE)) is None

    def test_reuses_caller_report(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"m": (80, 2.0)})
        report = check_feasibility(nl, mbs)
        diagnosis = diagnose_infeasibility(nl, mbs, report=report)
        assert diagnosis.witness == report.witness


class TestRelaxation:
    def test_finds_minimal_factor(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"m": (80, 2.0)})  # needs exactly 1.6x
        factor, report = relax_to_feasible(nl, mbs)
        assert report.feasible
        assert 1.6 <= factor <= 1.7  # minimal up to bisection tolerance

    def test_already_feasible_returns_one(self):
        nl = _netlist_with({None: (10, 2.0)})
        factor, report = relax_to_feasible(nl, MoveBoundSet(DIE))
        assert factor == 1.0 and report.feasible

    def test_hopeless_instance_raises(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 2, 5)])  # capacity 10
        nl = _netlist_with({"m": (500, 2.0)})  # needs 100x > max_relax
        with pytest.raises(InfeasibleInputError, match="stays infeasible"):
            relax_to_feasible(nl, mbs)


class TestPlacerIntegration:
    def _infeasible_instance(self):
        from repro.workloads import NetlistSpec, generate_netlist

        spec = NetlistSpec("witness", 120, utilization=0.4, num_pads=8)
        nl, _logical = generate_netlist(spec, seed=0)
        bounds = MoveBoundSet(nl.die)
        # sized so the deficit is real but within the 8x relaxation cap
        side = nl.die.width * 0.35
        bounds.add_rects("tiny", [Rect(0, 0, side, side)])
        nl.set_cells(range(100), movebound="tiny")
        return nl, bounds

    def test_error_carries_witness(self):
        nl, bounds = self._infeasible_instance()
        with pytest.raises(InfeasiblePlacementError) as ei:
            BonnPlaceFBP().place(nl, bounds)
        exc = ei.value
        assert exc.exit_code == 2
        assert exc.witness is not None and "tiny" in exc.witness
        assert exc.deficit > 0
        d, c = _witness_demand_capacity(
            nl, bounds, exc.witness, density=0.97
        )
        assert d > c

    def test_relax_infeasible_places_anyway(self):
        nl, bounds = self._infeasible_instance()
        placer = BonnPlaceFBP(
            BonnPlaceOptions(
                relax_infeasible=True, legalize=False, max_levels=2
            )
        )
        result = placer.place(nl, bounds)
        assert placer.relax_factor > 1.0
        assert result.hpwl > 0
