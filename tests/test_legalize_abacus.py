"""Tests for Abacus row legalization."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import abacus_legalize, build_segments, check_legality
from repro.netlist import Netlist

DIE = Rect(0, 0, 40, 10)


def _netlist(positions, widths=None):
    nl = Netlist(DIE, row_height=1.0, site_width=0.5)
    widths = widths or [2.0] * len(positions)
    for i, ((x, y), w) in enumerate(zip(positions, widths)):
        nl.add_cell(f"c{i}", w, 1.0, x=x, y=y)
    return nl


class TestPlaceRow:
    def test_non_overlapping_stay_put(self):
        nl = _netlist([(5, 3.5), (15, 3.5)])
        segs = build_segments(nl)
        move = abacus_legalize(nl, [0, 1], segs)
        assert move < 1.0  # only row snapping
        assert check_legality(nl).is_legal

    def test_overlapping_separated(self):
        nl = _netlist([(10, 3.5), (10.5, 3.5), (11, 3.5)])
        segs = build_segments(nl)
        abacus_legalize(nl, [0, 1, 2], segs)
        rep = check_legality(nl)
        assert rep.overlaps == 0
        # x order preserved
        assert nl.x[0] < nl.x[1] < nl.x[2]

    def test_cluster_centering(self):
        """Two equal cells colliding should split symmetrically."""
        nl = _netlist([(10, 0.5), (10, 0.5)])
        segs = [s for s in build_segments(nl) if s.y_lo == 0.0]
        abacus_legalize(nl, [0, 1], segs)
        assert nl.x[0] + nl.x[1] == pytest.approx(20, abs=0.6)
        assert abs(nl.x[1] - nl.x[0]) == pytest.approx(2.0)

    def test_segment_boundary_clamp(self):
        nl = _netlist([(0.2, 0.5)])  # wants to stick out left
        segs = build_segments(nl)
        abacus_legalize(nl, [0], segs)
        assert nl.cell_rect(0).x_lo >= 0

    def test_site_alignment(self):
        nl = _netlist([(10.13, 0.5), (20.77, 2.5)])
        segs = build_segments(nl)
        abacus_legalize(nl, [0, 1], segs)
        for i in (0, 1):
            left = nl.cell_rect(i).x_lo
            assert (left / 0.5) % 1 == pytest.approx(0, abs=1e-6)


class TestCapacityAndErrors:
    def test_over_capacity_raises(self):
        nl = _netlist([(5, 5)] * 30, widths=[20.0] * 30)
        segs = build_segments(nl)
        with pytest.raises(ValueError):
            abacus_legalize(nl, list(range(30)), segs)

    def test_macro_rejected(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("macro", 5, 3, x=10, y=5)
        segs = build_segments(nl)
        with pytest.raises(ValueError):
            abacus_legalize(nl, [0], segs)

    def test_empty_cells_ok(self):
        nl = _netlist([(5, 5)])
        assert abacus_legalize(nl, [], build_segments(nl)) == 0.0


class TestDense:
    def test_dense_instance_legal(self):
        rng = np.random.default_rng(0)
        n = 120
        positions = [
            (float(rng.uniform(1, 39)), float(rng.uniform(0.5, 9.5)))
            for _ in range(n)
        ]
        widths = [float(rng.choice([1.0, 1.5, 2.0])) for _ in range(n)]
        nl = _netlist(positions, widths)
        segs = build_segments(nl)
        abacus_legalize(nl, list(range(n)), segs)
        rep = check_legality(nl)
        assert rep.overlaps == 0
        assert rep.out_of_die == 0
        assert rep.off_row == 0

    def test_movement_reasonable(self):
        """Legalizing an already near-legal placement moves little."""
        nl = _netlist([(2 + 3 * i, 2.5) for i in range(10)])
        segs = build_segments(nl)
        sq = abacus_legalize(nl, list(range(10)), segs)
        assert sq < 10.0


# ----------------------------------------------------------------------
# row assignment by pricing == the one-shot LP over every candidate arc
# ----------------------------------------------------------------------
def _grid_netlist(seed, n, die, blockages=0, pile=0.0, widths=(1.0, 1.5, 2.0)):
    """Seeded cells on the 1/64 grid (widths on the 1/32 grid, so every
    displacement bound is on the grid and the integer oracle is exact);
    a ``pile`` share of them crowds the lower left corner.  Each of the
    ``blockages`` cuts every row once."""
    rng = np.random.default_rng(seed)
    nl = Netlist(die, row_height=1.0, site_width=0.25)
    x = rng.uniform(die.x_lo + 1, die.x_hi - 1, n)
    y = rng.uniform(die.y_lo + 0.5, die.y_hi - 0.5, n)
    m = int(pile * n)
    x[:m] = rng.uniform(die.x_lo + 1, die.x_lo + die.width / 6, m)
    y[:m] = rng.uniform(die.y_lo + 0.5, die.y_lo + die.height / 3, m)
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice(widths, size=n),
        1.0,
        x=np.round(x * 64) / 64,
        y=np.round(y * 64) / 64,
    )
    pitch = die.width / (blockages + 1)
    for k in range(1, blockages + 1):
        x0 = die.x_lo + round(pitch * k * 4) / 4
        nl.add_blockage(Rect(x0, die.y_lo, x0 + 0.5, die.y_hi))
    return nl


WIDE = Rect(0, 0, 40, 10)
FRAGMENTED = Rect(0, 0, 60, 12)

#: path through the pricing loop -> (netlist builder, row_search_radius)
#: of a fixture that takes it
PRICING_CASES = {
    "no_overfull_segment": (lambda: _grid_netlist(0, 60, WIDE, 3), 24),
    "first_round_optimal": (lambda: _grid_netlist(10, 240, WIDE, 0, 0.1), 24),
    "pricing_adds_arcs": (lambda: _grid_netlist(4, 240, WIDE, 0, 0.1), 24),
    "restricted_lp_infeasible": (
        lambda: _grid_netlist(0, 150, WIDE, 3, 0.2),
        24,
    ),
    "limit_widens": (
        lambda: _grid_netlist(
            9, 150, FRAGMENTED, 9, 1.0, widths=(1.0, 1.5, 2.0, 3.0)
        ),
        4,
    ),
}


def _priced_runs(monkeypatch, name):
    """``abacus_legalize`` on a case, recording every priced
    transportation: ``(supplies, caps, cand_seg, cand_cost, answer,
    verdicts of the restricted LPs it solved)``."""
    import repro.flows
    from repro.legalize import abacus

    builder, radius = PRICING_CASES[name]
    nl = builder()
    solve = repro.flows.solve_transportation
    verdicts, runs = [], []

    def solving(*args, **kwargs):
        result = solve(*args, **kwargs)
        verdicts.append(result.feasible)
        return result

    priced = abacus._priced_transport

    def pricing(supplies, caps, cand_seg, cand_cost):
        del verdicts[:]
        answer = priced(supplies, caps, cand_seg, cand_cost)
        runs.append(
            (supplies, caps, cand_seg, cand_cost, answer, list(verdicts))
        )
        return answer

    monkeypatch.setattr(repro.flows, "solve_transportation", solving)
    monkeypatch.setattr(abacus, "_priced_transport", pricing)
    abacus_legalize(
        nl, list(range(nl.num_cells)), build_segments(nl),
        row_search_radius=radius,
    )
    assert check_legality(nl).is_legal
    return runs, solve


@pytest.mark.parametrize("name", sorted(PRICING_CASES))
def test_priced_assignment_equals_the_one_shot_lp(monkeypatch, name):
    """The priced row assignment reaches the optimum of the whole
    candidate model: the same objective as one LP over every candidate
    arc, and as the integer oracle, on a fixture that takes ``name``'s
    path through the pricing loop."""
    from tests.flow_oracle import transport_cost

    runs, solve = _priced_runs(monkeypatch, name)
    for supplies, caps, cand_seg, cand_cost, answer, _ in runs:
        n, k = len(supplies), len(caps)
        costs = np.full((n, k), np.inf)
        np.put_along_axis(costs, cand_seg.astype(np.int64), cand_cost, axis=1)
        one_shot = solve(supplies, caps, costs)
        want = transport_cost(supplies, caps, costs)
        assert (answer is not None) == one_shot.feasible == (want is not None)
        if answer is not None:
            assert answer[1] == pytest.approx(one_shot.cost, rel=1e-9)
            assert answer[1] == pytest.approx(want, rel=1e-9)

    assert _path(runs) == name


def _path(runs):
    """Which path through the pricing loop the recorded runs took."""
    if len(runs) > 1:
        assert runs[0][4] is None
        assert [run[2].shape[1] for run in runs] == [4, 16, 64]
        return "limit_widens"
    verdicts = runs[0][5]
    if not verdicts:
        return "no_overfull_segment"
    if not verdicts[0]:
        return "restricted_lp_infeasible"
    assert all(verdicts)
    return "first_round_optimal" if len(verdicts) == 1 else "pricing_adds_arcs"
