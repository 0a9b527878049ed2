"""ECO-scoped legalization: a delta is legalized inside its frontier
plus a one-window halo, with the rest of the die frozen.

Three seeded ~1k-cell instances take several movebound deltas each.
Every delta must commit in mode ``eco`` with a legal full-die audit and
movebound containment, and the scoped legalization must leave every
movable cell centred outside its scope at its pre-delta position, bit
for bit.  Forced failures (a cell moved outside the scope, a scoped
pass that raises) take the whole-die pass, counted once in
``legalize.scope_fallbacks``.  The whole-die pass itself
(``scope=None``) is pinned by ``tests/test_legalize_identity.py``, and
the positions after every delta by the ``eco`` entries of
``tests/data/legalize_golden.json``.

Regenerate those entries (only when a decision is changed *on
purpose*)::

    PYTHONPATH=src python -m tests.test_eco_scoped_legalize --record
"""

import copy
import sys

import numpy as np
import pytest

import repro.place.bonnplace as bonnplace
from repro.eco import EcoEngine, MoveboundDelta, PlacementDelta
from repro.legalize import check_legality
from repro.movebounds import MoveBoundSet
from repro.obs import get_tracer
from repro.obs.invariants import check_movebound_containment
from repro.place import BonnPlaceFBP
from repro.resilience import PipelineStageError
from repro.workloads import NetlistSpec, generate_netlist
from tests.test_legalize_identity import (
    _golden,
    assert_golden,
    placement_sha,
    write_golden,
)

SEEDS = (0, 1, 2)
DELTAS = 3
CLAIM = 8


def _base(seed):
    """The placed ~1k-cell instance of ``seed`` and its bounds."""
    spec = NetlistSpec(f"scoped{seed}", 1000, utilization=0.6, num_pads=16)
    nl, _logical = generate_netlist(spec, seed=seed)
    bounds = MoveBoundSet(nl.die)
    BonnPlaceFBP().place(nl, bounds)
    return nl, bounds


@pytest.fixture(scope="module")
def bases():
    """One placed instance per seed, shared read-only."""
    return {seed: _base(seed) for seed in SEEDS}


def _deltas(nl, seed):
    """Movebound deltas on distinct cells of a 3x3 lattice: a
    row/site-aligned square of a tenth of the die's side, claiming the
    nearest unclaimed movable standard cells."""
    rng = np.random.default_rng(seed)
    die, row, site = nl.die, nl.row_height, nl.site_width
    side = 0.1 * min(die.width, die.height)
    pitch_x, pitch_y = die.width / 3, die.height / 3
    movable = np.array(
        [c.index for c in nl.cells if not c.fixed and c.height <= row]
    )
    free = np.ones(len(movable), dtype=bool)
    deltas = []
    for j, pick in enumerate(rng.choice(9, size=DELTAS, replace=False)):
        x0 = die.x_lo + (pick % 3) * pitch_x + rng.uniform(row, pitch_x - side - row)
        y0 = die.y_lo + (pick // 3) * pitch_y + rng.uniform(row, pitch_y - side - row)
        rect = (
            die.x_lo + np.floor((x0 - die.x_lo) / site) * site,
            die.y_lo + np.floor((y0 - die.y_lo) / row) * row,
            die.x_lo + np.ceil((x0 + side - die.x_lo) / site) * site,
            die.y_lo + np.ceil((y0 + side - die.y_lo) / row) * row,
        )
        cx, cy = (rect[0] + rect[2]) / 2, (rect[1] + rect[3]) / 2
        dist = np.abs(nl.x[movable] - cx) + np.abs(nl.y[movable] - cy)
        dist[~free] = np.inf
        nearest = np.argsort(dist, kind="stable")[:CLAIM]
        free[nearest] = False
        names = [nl.cells[int(movable[k])].name for k in nearest]
        deltas.append(
            PlacementDelta(
                movebounds=[MoveboundDelta(f"eco{j}", [rect], cells=names)]
            )
        )
    return deltas


def _count(name):
    return get_tracer().counters.get(name, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_delta_scoped_legal_and_frozen_outside(bases, seed, monkeypatch):
    nl, bounds = copy.deepcopy(bases[seed])
    calls = []
    real = bonnplace.legalize_with_movebounds

    def spy(netlist, bounds, decomposition, scope=None):
        x, y = netlist.x.copy(), netlist.y.copy()
        report = real(netlist, bounds, decomposition, scope)
        calls.append((scope, x, y, netlist.x.copy(), netlist.y.copy()))
        return report

    monkeypatch.setattr(bonnplace, "legalize_with_movebounds", spy)
    engine = EcoEngine(nl, bounds)
    movable = np.array([not c.fixed for c in nl.cells])
    for delta in _deltas(nl, seed):
        pre_x, pre_y = nl.x.copy(), nl.y.copy()
        fallbacks = _count("legalize.scope_fallbacks")
        scoped = _count("legalize.scoped")
        calls.clear()
        res = engine.apply(delta)

        assert res.mode == "eco"
        assert check_legality(nl, engine.bounds).is_legal
        check_movebound_containment(nl, engine.bounds)
        assert _count("legalize.scope_fallbacks") == fallbacks
        assert _count("legalize.scoped") == scoped + 1

        (scope, _x0, _y0, x1, y1), = calls
        assert scope is not None and not scope.is_empty
        frozen = movable & (scope.distances_to_points(pre_x, pre_y) > 0)
        assert frozen.any()
        # bit for bit: the scoped legalization never touched them
        assert x1[frozen].tobytes() == pre_x[frozen].tobytes()
        assert y1[frozen].tobytes() == pre_y[frozen].tobytes()


def _move_far_cell(monkeypatch, delta_rect):
    """After the frontier transportation, nudge the movable standard
    cell farthest from the delta by one site: it is outside the scope
    and off its legal spot."""
    real = bonnplace.enforce_blocks

    def nudged(netlist, *args, **kwargs):
        ok = real(netlist, *args, **kwargs)
        cx = (delta_rect[0] + delta_rect[2]) / 2
        cy = (delta_rect[1] + delta_rect[3]) / 2
        dist = np.abs(netlist.x - cx) + np.abs(netlist.y - cy)
        for c in netlist.cells:
            if c.fixed or c.height > netlist.row_height:
                dist[c.index] = -1.0
        far = int(np.argmax(dist))
        netlist.x[far] += netlist.site_width
        return ok

    monkeypatch.setattr(bonnplace, "enforce_blocks", nudged)


def _raise_when_scoped(monkeypatch):
    real = bonnplace.legalize_with_movebounds

    def failing(netlist, bounds, decomposition, scope=None):
        if scope is not None:
            raise PipelineStageError("forced", stage="legalize")
        return real(netlist, bounds, decomposition, scope)

    monkeypatch.setattr(bonnplace, "legalize_with_movebounds", failing)


@pytest.mark.parametrize("case", ["moved_outside_scope", "scoped_pass_raises"])
def test_forced_failures_take_the_whole_die_pass(bases, case, monkeypatch):
    nl, bounds = copy.deepcopy(bases[SEEDS[0]])
    delta = _deltas(nl, SEEDS[0])[0]
    if case == "moved_outside_scope":
        _move_far_cell(monkeypatch, delta.movebounds[0].rects[0])
    else:
        _raise_when_scoped(monkeypatch)
    fallbacks = _count("legalize.scope_fallbacks")
    engine_fallbacks = _count("eco.fallbacks")

    engine = EcoEngine(nl, bounds)
    res = engine.apply(delta)

    assert res.mode == "eco"
    assert _count("legalize.scope_fallbacks") == fallbacks + 1
    assert _count("eco.fallbacks") == engine_fallbacks
    assert res.placement.legality.is_legal
    assert check_legality(nl, engine.bounds).is_legal


def delta_shas(nl, bounds, seed):
    """sha256 of the positions after each of the seed's deltas, applied
    in order on one resident engine."""
    engine = EcoEngine(nl, bounds)
    out = []
    for delta in _deltas(nl, seed):
        engine.apply(delta)
        out.append(placement_sha(nl))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_positions_reproduce_golden(bases, seed):
    """Every delta's positions, byte for byte: the scoped refine (its
    frontier-only region clipping included) and the scoped detailed
    pass may get cheaper, never different."""
    nl, bounds = copy.deepcopy(bases[seed])
    assert_golden(delta_shas(nl, bounds, seed), "eco", f"seed{seed}")


def record() -> None:
    golden = _golden()
    golden["eco"] = {f"seed{s}": delta_shas(*_base(s), s) for s in SEEDS}
    write_golden(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
