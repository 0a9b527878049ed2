"""Transactional ECO engine: validation, commit, replay, rollback,
verification, and graceful degradation (fast lane).

The crash/SIGKILL half of the contract lives in the slow-lane
``tests/test_eco_chaos.py``; here every fault is raised in-process.
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

from repro.eco import (
    DeltaJournal,
    EcoEngine,
    EcoOptions,
    MoveboundDelta,
    PlacementDelta,
    placement_sha,
)
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Cell
from repro.obs import get_tracer
from repro.place import BonnPlaceFBP
from repro.place.bonnplace import _project_into_bounds
from repro.resilience import PipelineStageError, ReproError
from repro.resilience.errors import DeltaValidationError, EXIT_INFEASIBLE
from repro.resilience.faultinject import install_fault_plan, reset_faults
from repro.workloads import NetlistSpec, generate_netlist


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


@pytest.fixture(scope="module")
def placed_base():
    """One placed 150-cell instance, shared read-only; tests deepcopy."""
    spec = NetlistSpec("ecot", 150, utilization=0.5, num_pads=12)
    nl, _logical = generate_netlist(spec, seed=7)
    bounds = MoveBoundSet(nl.die)
    BonnPlaceFBP().place(nl, bounds)
    return nl, bounds


@pytest.fixture
def placed(placed_base):
    nl, bounds = placed_base
    return copy.deepcopy(nl), copy.deepcopy(bounds)


def _movable(nl, k):
    return [c.name for c in nl.cells if not c.fixed][:k]


def _good_delta(nl, k=8, name="eco_mb"):
    """A generous movebound (30% of the die) absorbing k cells."""
    die = nl.die
    w, h = die.x_hi - die.x_lo, die.y_hi - die.y_lo
    rect = (die.x_lo, die.y_lo, die.x_lo + 0.55 * w, die.y_lo + 0.55 * h)
    return PlacementDelta(
        movebounds=[MoveboundDelta(name, [rect], cells=_movable(nl, k))]
    )


def _state_fingerprint(nl, bounds):
    return (
        placement_sha(nl),
        tuple(c.movebound for c in nl.cells),
        tuple(n.weight for n in nl.nets),
        tuple(sorted(b.name for b in bounds)),
    )


# ----------------------------------------------------------------------
# validation refusals (nothing may mutate)
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "delta_dict",
        [
            # unknown cell
            {"movebounds": [{"name": "m", "rects": [[1, 1, 20, 20]],
                             "cells": ["nosuch"]}]},
            # empty rect list
            {"movebounds": [{"name": "m", "rects": [], "cells": []}]},
            # rect outside the die
            {"movebounds": [{"name": "m", "rects": [[-5, 0, 10, 10]]}]},
            # non-positive extent
            {"movebounds": [{"name": "m", "rects": [[10, 10, 10, 20]]}]},
            # reserved/empty name
            {"movebounds": [{"name": "", "rects": [[1, 1, 20, 20]]}]},
            # duplicate definition inside one delta
            {"movebounds": [
                {"name": "m", "rects": [[1, 1, 10, 10]]},
                {"name": "m", "rects": [[12, 12, 20, 20]]},
            ]},
            # assignment to a bound that does not exist
            {"assign": {"c0": "nope"}},
            # unknown net
            {"net_weights": {"nosuchnet": 2.0}},
            # non-positive net weight
            {"net_weights": {"n0": 0.0}},
            # absurd density
            {"density_target": 7.5},
        ],
    )
    def test_refusals_leave_instance_untouched(self, placed, delta_dict):
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        engine = EcoEngine(nl, bounds)
        with pytest.raises(DeltaValidationError) as ei:
            engine.apply(delta_dict)
        assert ei.value.exit_code == EXIT_INFEASIBLE
        assert _state_fingerprint(nl, engine.bounds) == before

    def test_cell_reassigned_twice_refused(self, placed):
        nl, bounds = placed
        victim = _movable(nl, 1)[0]
        delta = {
            "movebounds": [
                {"name": "a", "rects": [[1, 1, 10, 10]], "cells": [victim]},
                {"name": "b", "rects": [[12, 12, 20, 20]],
                 "cells": [victim]},
            ]
        }
        with pytest.raises(DeltaValidationError, match="twice"):
            EcoEngine(nl, bounds).apply(delta)

    def test_existing_bound_name_refused(self, placed):
        nl, bounds = placed
        first = _good_delta(nl, 4, name="dup")
        engine = EcoEngine(nl, bounds)
        engine.apply(first)
        with pytest.raises(DeltaValidationError, match="already exists"):
            engine.apply(_good_delta(nl, 2, name="dup"))

    def test_infeasible_delta_carries_witness_and_rolls_back(self, placed):
        nl, bounds = placed
        die = nl.die
        tiny = (die.x_lo, die.y_lo, die.x_lo + 2.0, die.y_lo + 1.0)
        delta = PlacementDelta(
            movebounds=[
                MoveboundDelta("tiny", [tiny], cells=_movable(nl, 30))
            ]
        )
        engine = EcoEngine(nl, bounds)
        before = _state_fingerprint(nl, bounds)
        with pytest.raises(DeltaValidationError) as ei:
            engine.apply(delta)
        assert ei.value.witness and "tiny" in ei.value.witness
        assert ei.value.deficit > 0
        assert "delta=" in ei.value.diagnosis()
        assert _state_fingerprint(nl, engine.bounds) == before


# ----------------------------------------------------------------------
# commit / no-op / replay / recover
# ----------------------------------------------------------------------
class TestCommit:
    def test_noop_is_byte_identical_and_committed(self, placed, tmp_path):
        nl, bounds = placed
        engine = EcoEngine(nl, bounds, run_dir=str(tmp_path))
        base = placement_sha(nl)
        res = engine.apply([])
        assert res.mode == "noop"
        assert res.base_sha == base and res.post_sha == base
        entries = DeltaJournal(str(tmp_path)).entries()
        assert [e.mode for e in entries] == ["noop"]

    def test_eco_commit_honors_movebound_and_journals(self, placed, tmp_path):
        nl, bounds = placed
        engine = EcoEngine(nl, bounds, run_dir=str(tmp_path))
        delta = _good_delta(nl)
        res = engine.apply(delta)
        assert res.mode == "eco"
        assert res.post_sha == placement_sha(nl)
        assert res.frontier_windows > 0
        assert "eco_mb" in engine.bounds
        area = engine.bounds.get("eco_mb").area
        for name in _movable(nl, 8):
            i = nl.cell_index(name)
            assert nl.cells[i].movebound == "eco_mb"
            assert area.contains_point(float(nl.x[i]), float(nl.y[i]))
        (entry,) = DeltaJournal(str(tmp_path)).entries()
        assert entry.delta_digest == delta.digest()
        assert entry.base_sha == res.base_sha
        assert entry.post_sha == res.post_sha

    def test_replay_is_bit_identical_without_resolving(self, placed, tmp_path):
        nl, bounds = placed
        pristine = copy.deepcopy(nl), copy.deepcopy(bounds)
        delta = _good_delta(nl)
        first = EcoEngine(nl, bounds, run_dir=str(tmp_path)).apply(delta)

        nl2, bounds2 = pristine
        before = get_tracer().counters.get("place.incremental_refines", 0)
        res = EcoEngine(nl2, bounds2, run_dir=str(tmp_path)).apply(delta)
        assert res.mode == "replayed"
        assert res.post_sha == first.post_sha
        assert placement_sha(nl2) == first.post_sha
        # replay restores the snapshot; it must not re-solve
        assert get_tracer().counters.get(
            "place.incremental_refines", 0
        ) == before
        assert np.array_equal(nl2.x, nl.x) and np.array_equal(nl2.y, nl.y)

    def test_recover_restores_structure_and_positions(self, placed, tmp_path):
        nl, bounds = placed
        pristine = copy.deepcopy(nl), copy.deepcopy(bounds)
        engine = EcoEngine(nl, bounds, run_dir=str(tmp_path))
        engine.apply(_good_delta(nl))
        engine.apply({"net_weights": {nl.nets[0].name: 3.0}})

        nl2, bounds2 = pristine
        engine2 = EcoEngine(nl2, bounds2, run_dir=str(tmp_path))
        entry = engine2.recover()
        assert entry is not None and entry.seq == 2
        assert np.array_equal(nl2.x, nl.x) and np.array_equal(nl2.y, nl.y)
        assert "eco_mb" in engine2.bounds
        assert nl2.nets[0].weight == 3.0
        assert placement_sha(nl2) == entry.post_sha

    def test_corrupt_commit_quarantined_recovery_predelta(
        self, placed, tmp_path
    ):
        nl, bounds = placed
        pristine = copy.deepcopy(nl), copy.deepcopy(bounds)
        base = placement_sha(nl)
        install_fault_plan("eco.commit=corrupt")
        EcoEngine(nl, bounds, run_dir=str(tmp_path)).apply(_good_delta(nl))
        reset_faults()

        nl2, bounds2 = pristine
        engine2 = EcoEngine(nl2, bounds2, run_dir=str(tmp_path))
        assert engine2.recover() is None
        assert placement_sha(nl2) == base
        qdir = os.path.join(str(tmp_path), "eco", "quarantine")
        assert os.path.isdir(qdir) and os.listdir(qdir)

    def test_replay_lookup_opens_at_most_two_entries(
        self, placed, tmp_path, monkeypatch
    ):
        """The replay index: after N commits an apply opens at most two
        journal entry files, however long the session — none on a miss,
        only its own on a replay."""
        import repro.eco.journal as journal_mod

        nl, bounds = placed
        engine = EcoEngine(nl, bounds, run_dir=str(tmp_path))
        for j in range(6):
            engine.apply({"net_weights": {nl.nets[j].name: 2.0}})
        opened = []

        def spy(path, *args, **kwargs):
            if str(path).endswith(".json"):
                opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(journal_mod, "open", spy, raising=False)
        delta = {"net_weights": {nl.nets[6].name: 2.0}}
        pre = nl.snapshot()
        first = engine.apply(delta)
        assert first.mode == "eco" and len(opened) <= 2
        assert len(DeltaJournal(str(tmp_path)).entries()) == 7

        opened.clear()
        nl.restore(pre)
        res = engine.apply(delta)
        assert res.mode == "replayed" and res.txn_seq == first.txn_seq
        assert placement_sha(nl) == first.post_sha
        assert 1 <= len(opened) <= 2

    def test_dirty_seq_slot_never_reused(self, placed, tmp_path):
        nl, bounds = placed
        journal = DeltaJournal(str(tmp_path))
        # a torn commit: snapshot written, entry missing
        with open(os.path.join(journal.dir, "txn_000001.ckpt"), "wb") as f:
            f.write(b"torn")
        assert journal.next_seq() == 2
        res = EcoEngine(nl, bounds, run_dir=str(tmp_path)).apply([])
        assert res.txn_seq == 2


# ----------------------------------------------------------------------
# verification + graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_injected_solver_fault_degrades_to_full_solve(
        self, placed, tmp_path
    ):
        nl, bounds = placed
        install_fault_plan("eco.apply=stage")
        before = get_tracer().counters.get("eco.fallbacks", 0)
        engine = EcoEngine(nl, bounds, run_dir=str(tmp_path))
        res = engine.apply(_good_delta(nl))
        assert res.mode == "fallback"
        assert "PipelineStageError" in res.fallback_reason
        assert get_tracer().counters.get("eco.fallbacks", 0) == before + 1
        assert res.placement is not None and res.placement.legality.is_legal
        (entry,) = DeltaJournal(str(tmp_path)).entries()
        assert entry.mode == "fallback"

    def test_budget_exhaustion_degrades(self, placed):
        nl, bounds = placed
        install_fault_plan("eco.apply=budget")
        res = EcoEngine(nl, bounds).apply(_good_delta(nl))
        assert res.mode == "fallback"
        assert "SolverBudgetExceeded" in res.fallback_reason

    def test_hpwl_drift_gate_triggers_fallback(self, placed):
        nl, bounds = placed
        engine = EcoEngine(
            nl, bounds, options=EcoOptions(max_hpwl_drift=1e-6)
        )
        res = engine.apply(_good_delta(nl))
        assert res.mode == "fallback"
        assert "drift" in res.fallback_reason

    def test_no_fallback_rolls_back_and_raises(self, placed):
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        install_fault_plan("eco.apply=stage")
        engine = EcoEngine(
            nl, bounds, options=EcoOptions(allow_fallback=False)
        )
        with pytest.raises(PipelineStageError, match="fallback"):
            engine.apply(_good_delta(nl))
        assert _state_fingerprint(nl, engine.bounds) == before

    def test_movebound_rollback_builds_no_cell_record(
        self, placed, monkeypatch
    ):
        """A rejected movebound delta reads and restores the raw
        movebounds through the netlist's code column: its rollback
        builds no Cell record, and every position and movebound comes
        back bit for bit."""
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        x, y = nl.x.copy(), nl.y.copy()
        delta = _good_delta(nl)
        install_fault_plan("eco.apply=stage")
        engine = EcoEngine(
            nl, bounds, options=EcoOptions(allow_fallback=False)
        )
        made = []
        real = Cell.__init__

        def counted(self, *args, **kw):
            made.append(1)
            real(self, *args, **kw)

        monkeypatch.setattr(Cell, "__init__", counted)
        with pytest.raises(PipelineStageError):
            engine.apply(delta)
        monkeypatch.setattr(Cell, "__init__", real)
        assert made == []
        assert nl.x.tobytes() == x.tobytes() and nl.y.tobytes() == y.tobytes()
        assert _state_fingerprint(nl, engine.bounds) == before

    def test_net_weight_rollback_restores_weights_and_positions(
        self, placed
    ):
        """A weight delta whose solve fails leaves the weights and every
        position bit for bit as they were, through the table's weight
        column and the name lookup alike."""
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        x, y = nl.x.copy(), nl.y.copy()
        names = [nl.nets[3].name, nl.nets[9].name]
        install_fault_plan("eco.apply=stage")
        engine = EcoEngine(
            nl, bounds, options=EcoOptions(allow_fallback=False)
        )
        with pytest.raises(PipelineStageError):
            engine.apply({"net_weights": {names[0]: 4.0, names[1]: 0.5}})
        assert _state_fingerprint(nl, engine.bounds) == before
        assert nl.x.tobytes() == x.tobytes() and nl.y.tobytes() == y.tobytes()
        assert [nl.net_index(n) for n in names] == [3, 9]

    def test_fault_inside_rollback_still_restores(self, placed):
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        install_fault_plan("eco.apply=stage;eco.rollback=stage")
        engine = EcoEngine(
            nl, bounds, options=EcoOptions(allow_fallback=False)
        )
        with pytest.raises(ReproError):
            engine.apply(_good_delta(nl))
        assert _state_fingerprint(nl, engine.bounds) == before
        assert get_tracer().counters.get("eco.rollback_faults", 0) >= 1

    def test_net_reweight_takes_full_refine(
        self, placed, placed_base, monkeypatch
    ):
        """A net re-weighting has global effect: the engine runs the
        full finest-level refine, while a movebound delta on the same
        instance is solved scoped to its frontier."""
        placer = BonnPlaceFBP()
        calls = []
        for name in ("_refine_scoped", "_refine_body"):
            real = getattr(placer, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(placer, name, spy)

        nl, bounds = placed
        res = EcoEngine(nl, bounds, placer=placer).apply(
            {"net_weights": {nl.nets[0].name: 2.5}}
        )
        assert res.mode == "eco"
        assert res.frontier_windows == 0
        assert calls == ["_refine_body"]
        assert nl.nets[0].weight == 2.5

        calls.clear()
        nl, bounds = copy.deepcopy(placed_base)
        EcoEngine(nl, bounds, placer=placer).apply(_good_delta(nl))
        assert calls[0] == "_refine_scoped"

    def test_one_decomposition_per_delta(
        self, placed, placed_base, monkeypatch
    ):
        """The Theorem-2 check's region decomposition is the one the
        incremental solve and its legalization use: a delta decomposes
        the patched bounds once, scoped or not."""
        import repro.movebounds.regions as regions_module

        real = regions_module.decompose_regions
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # every module holding the name, wherever it imported it from
        for module in list(sys.modules.values()):
            if getattr(module, "decompose_regions", None) is real:
                monkeypatch.setattr(module, "decompose_regions", spy)

        nl, bounds = placed
        res = EcoEngine(nl, bounds).apply(
            {"net_weights": {nl.nets[0].name: 2.5}}
        )
        assert res.mode == "eco" and res.frontier_windows == 0
        assert len(calls) == 1

        calls.clear()
        nl, bounds = copy.deepcopy(placed_base)
        res = EcoEngine(nl, bounds).apply(_good_delta(nl))
        assert res.mode == "eco" and res.frontier_windows > 0
        assert len(calls) == 1

    def test_frontier_holds_the_window_a_cell_is_projected_into(self):
        """A re-assigned cell right of a pre-existing bound whose right
        edge lies on window boundary 4 is projected to ``x_hi - w/2``,
        inside window 3; the frontier must hold that window, not the
        one the bare edge ``x_hi`` falls in."""
        spec = NetlistSpec("ecofr", 1000, utilization=0.5, num_pads=12)
        nl, _logical = generate_netlist(spec, seed=3)
        die = nl.die
        placer = BonnPlaceFBP()
        n = 2 ** placer.num_levels(nl)
        assert n == 16
        wx, wy = die.width / n, die.height / n
        x_hi = die.x_lo + 4 * wx
        assert int((x_hi - die.x_lo) / wx) == 4  # the edge is window 4's
        bounds = MoveBoundSet(die)
        bounds.add_rects(
            "pre",
            [Rect(die.x_lo + wx, die.y_lo + 2 * wy, x_hi, die.y_lo + 5 * wy)],
        )
        engine = EcoEngine(nl, bounds, placer=placer)
        idx = next(c.index for c in nl.cells if not c.fixed)
        nl.x[idx] = die.x_lo + 6.5 * wx
        nl.y[idx] = die.y_lo + 3.5 * wy
        delta = PlacementDelta(assign={nl.cells[idx].name: "pre"})
        engine._apply_structural(delta)
        frontier = engine._frontier(delta)

        _project_into_bounds(nl, engine.bounds, [idx])
        landed = (
            int((nl.x[idx] - die.x_lo) / wx),
            int((nl.y[idx] - die.y_lo) / wy),
        )
        assert landed == (3, 3)
        assert frontier == {(6, 3), (3, 3)}

    def test_validate_site_faults_abort_before_mutation(self, placed):
        nl, bounds = placed
        before = _state_fingerprint(nl, bounds)
        install_fault_plan("eco.validate=infeasible")
        engine = EcoEngine(nl, bounds)
        with pytest.raises(ReproError):
            engine.apply(_good_delta(nl))
        assert _state_fingerprint(nl, engine.bounds) == before


# ----------------------------------------------------------------------
# delta model
# ----------------------------------------------------------------------
class TestDeltaModel:
    def test_digest_canonical_and_json_stable(self):
        d1 = PlacementDelta(net_weights={"a": 1.0, "b": 2.0})
        d2 = PlacementDelta.from_dict(
            json.loads(json.dumps(d1.to_dict()))
        )
        assert d1.digest() == d2.digest()

    def test_bare_list_is_movebound_patch(self):
        patch = [{"name": "m", "rects": [[1, 1, 5, 5]], "cells": ["c0"]}]
        delta = PlacementDelta.from_dict(patch)
        assert delta.movebounds[0].name == "m"
        assert delta.movebounds[0].cells == ["c0"]
        assert not delta.is_noop
        assert PlacementDelta.from_dict([]).is_noop

    def test_rejects_scalar_delta(self):
        with pytest.raises(DeltaValidationError):
            PlacementDelta.from_dict("nope")
