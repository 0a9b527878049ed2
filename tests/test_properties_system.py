"""System-level property-based tests (hypothesis).

These drive randomized instances through whole subsystem pipelines and
check the paper's invariants end to end.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fbp import build_fbp_model, realize_flow
from repro.fbp.realization import cancel_external_cycles
from repro.feasibility import check_feasibility
from repro.geometry import Rect
from repro.grid import Grid
from repro.legalize import check_legality, legalize_with_movebounds
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin

DIE = Rect(0, 0, 60, 60)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw):
    """A random netlist + movebound set, biased toward feasibility."""
    seed = draw(st.integers(0, 10_000))
    num_cells = draw(st.integers(20, 120))
    num_bounds = draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    nl = Netlist(DIE, row_height=1.0, site_width=0.5, name=f"prop{seed}")
    bounds = MoveBoundSet(DIE)
    bound_names = []
    for b in range(num_bounds):
        # row-aligned areas in separate corners so they never overlap
        x0 = 2.0 if b == 0 else 34.0
        side = float(rng.integers(16, 24))
        bounds.add_rects(
            f"m{b}", [Rect(x0, 2.0, x0 + side, 2.0 + side)]
        )
        bound_names.append(f"m{b}")
    for i in range(num_cells):
        mb = None
        if bound_names and i % 5 == 0:
            mb = bound_names[i % len(bound_names)]
        nl.add_cell(
            f"c{i}",
            float(rng.choice([1.0, 1.5, 2.0])),
            1.0,
            x=float(rng.uniform(1, 59)),
            y=float(rng.uniform(1, 59)),
            movebound=mb,
        )
    for j in range(num_cells // 2):
        k = int(rng.integers(2, 4))
        members = rng.choice(num_cells, size=k, replace=False)
        nl.add_net(f"n{j}", [Pin(int(c)) for c in members])
    return nl, bounds


@SETTINGS
@given(instances())
def test_fbp_pipeline_invariants(instance):
    """Feasible instance => FBP flow feasible; after realization every
    (window, region) load fits its capacity up to one cell; movebound
    admissibility holds for every assignment."""
    nl, bounds = instance
    decomposition = decompose_regions(DIE, bounds, nl.blockages)
    feasible = check_feasibility(nl, bounds, decomposition, 0.9).feasible
    grid = Grid(DIE, 3, 3)
    grid.build_regions(decomposition)
    model = build_fbp_model(nl, bounds, grid, density_target=0.9)
    result = model.solve()
    assert result.feasible == feasible  # Theorem 3 == Theorem 2
    if not feasible:
        return
    out = realize_flow(model, result, run_local_qp=False)
    max_cell = max((c.size for c in nl.cells), default=0.0)
    load = {}
    for cell, key in out.assignment.items():
        load[key] = load.get(key, 0.0) + nl.cells[cell].size
        bound = nl.cells[cell].movebound or DEFAULT_BOUND
        widx, ridx = key
        wr = next(
            wr for wr in grid.windows[widx].regions
            if wr.region.index == ridx
        )
        assert wr.admits(bound)
    for key, used in load.items():
        cap = model.region_capacity.get(key, 0.0)
        assert used <= cap * 1.1 + max_cell + 1e-6


def _boundary_instance(side, delta):
    """Movebound ``m`` (a ``side`` x ``side`` square at the die corner,
    one window of the 3x3 grid at side 20, parts of four at side 30)
    holds cells of area 2 whose total is its capacity at density 1.0
    plus ``delta`` cells; 40 unbounded cells share the rest of the
    die.  Every cell starts spread over the die, so the flow must move
    bound area into ``m``'s windows."""
    rng = np.random.default_rng(int(side) * 10 + delta + 1)
    nl = Netlist(DIE, row_height=1.0, site_width=0.5, name="boundary")
    bounds = MoveBoundSet(DIE)
    bounds.add_rects("m", [Rect(0.0, 0.0, side, side)])
    for i in range(int(side * side) // 2 + delta):
        nl.add_cell(
            f"m{i}", 2.0, 1.0,
            x=float(rng.uniform(1, 59)), y=float(rng.uniform(1, 59)),
            movebound="m",
        )
    for i in range(40):
        nl.add_cell(
            f"f{i}", 2.0, 1.0,
            x=float(rng.uniform(1, 59)), y=float(rng.uniform(1, 59)),
        )
    return nl, bounds


@pytest.mark.parametrize("side", [20.0, 30.0])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_theorem3_at_the_exact_capacity_boundary(side, delta):
    """Supply = capacity - one cell, = capacity, = capacity + one
    cell: the MinCostFlow's verdict (Theorem 3) is Theorem 2's, and
    it flips exactly past the boundary."""
    nl, bounds = _boundary_instance(side, delta)
    decomposition = decompose_regions(DIE, bounds, nl.blockages)
    grid = Grid(DIE, 3, 3)
    grid.build_regions(decomposition)
    model = build_fbp_model(nl, bounds, grid, density_target=1.0)
    thm3 = model.solve().feasible
    thm2 = check_feasibility(nl, bounds, decomposition, 1.0).feasible
    assert thm3 == thm2 == (delta <= 0)


def _fbp_fixtures():
    """Every deterministic FBP model fixture of the suite."""
    from tests.test_solver_consistency import _model

    for seed, with_bounds, n in (
        (0, True, 4), (1, True, 4), (2, True, 4), (3, True, 4),
        (5, True, 4), (7, False, 6),
    ):
        yield _model(seed=seed, with_bounds=with_bounds, n=n)
    for side in (20.0, 30.0):
        for delta in (-1, 0):
            nl, bounds = _boundary_instance(side, delta)
            grid = Grid(DIE, 3, 3)
            grid.build_regions(decompose_regions(DIE, bounds, nl.blockages))
            yield build_fbp_model(nl, bounds, grid, density_target=1.0)


def _assert_no_external_cycle(model):
    """§IV.B walks the flow-carrying external arcs in topological
    order.  A basic LP optimum carries flow on independent columns
    only, so they hold no cycle: cancellation has nothing to do."""
    result = model.solve()
    if not result.feasible:
        return
    flows = model.external_flows(result)
    kept = cancel_external_cycles(list(flows))
    assert sorted((a.arc_id, f) for a, f in kept) == sorted(
        (a.arc_id, f) for a, f in flows
    )


def test_fbp_fixture_flows_are_acyclic():
    for model in _fbp_fixtures():
        _assert_no_external_cycle(model)


@SETTINGS
@given(instances())
def test_fbp_property_flows_are_acyclic(instance):
    nl, bounds = instance
    grid = Grid(DIE, 3, 3)
    grid.build_regions(decompose_regions(DIE, bounds, nl.blockages))
    _assert_no_external_cycle(
        build_fbp_model(nl, bounds, grid, density_target=0.9)
    )


@SETTINGS
@given(instances())
def test_legalization_invariants(instance):
    """If the region partition succeeds, the output is fully legal and
    inside all movebounds."""
    nl, bounds = instance
    decomposition = decompose_regions(DIE, bounds, nl.blockages)
    if not check_feasibility(nl, bounds, decomposition, 0.85).feasible:
        return
    # start from an admissible rough placement: clamp bound cells in
    for c in nl.cells:
        if c.movebound:
            area = bounds.get(c.movebound).area
            nl.x[c.index], nl.y[c.index] = area.clamp_point(
                nl.x[c.index], nl.y[c.index]
            )
    try:
        legalize_with_movebounds(nl, bounds, decomposition)
    except ValueError:
        # allowed only for genuinely packed instances; rare by design
        return
    report = check_legality(nl, bounds)
    assert report.overlaps == 0
    assert report.out_of_die == 0
    assert report.off_row == 0
    assert report.movebound_violations == 0


@SETTINGS
@given(instances(), st.integers(2, 5))
def test_grid_region_capacity_consistency(instance, n):
    """Window-region capacities tile the global region capacities."""
    nl, bounds = instance
    decomposition = decompose_regions(DIE, bounds, nl.blockages)
    grid = Grid(DIE, n, n)
    grid.build_regions(decomposition)
    per_region = {}
    for w in grid:
        for wr in w.regions:
            per_region[wr.region.index] = (
                per_region.get(wr.region.index, 0.0) + wr.capacity(1.0)
            )
    for region in decomposition:
        assert per_region.get(region.index, 0.0) == pytest.approx(
            region.capacity(1.0), rel=1e-6, abs=1e-6
        )


@SETTINGS
@given(instances())
def test_bookshelf_roundtrip_property(instance):
    import tempfile

    nl, bounds = instance
    from repro.bookshelf import load_instance, save_instance

    with tempfile.TemporaryDirectory() as path:
        save_instance(path, nl, bounds)
        nl2, bounds2 = load_instance(path, nl.name)
    assert nl2.hpwl() == pytest.approx(nl.hpwl())
    assert nl2.total_cell_area() == pytest.approx(nl.total_cell_area())
    assert len(bounds2) == len(bounds)
