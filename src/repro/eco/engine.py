"""The transactional ECO re-place engine.

:class:`EcoEngine` applies a :class:`~repro.eco.delta.PlacementDelta`
to a placed instance with ACID discipline:

* **Atomic** — the only durable commit point is the checksummed journal
  entry (:mod:`repro.eco.journal`); a SIGKILL at any instant recovers
  to the pre- or post-delta placement bit-identically, never a torn
  hybrid.
* **Consistent** — the delta is validated *before* anything mutates
  (structural checks, then the Theorem-2 condition (1) feasibility
  witness on the patched bounds), and the incremental result is
  re-verified after the solve (movebound containment via the obs
  invariant registry, legality audit, bounded HPWL drift).  A result
  that fails verification is rolled back and re-solved from scratch.
* **Isolated** — mutations are staged against shadow state (a fresh
  patched :class:`MoveBoundSet`, recorded previous cell/net
  attributes); a refusal or crash before commit leaves the caller's
  instance untouched.
* **Durable** — both journal writes go through the runstate
  ``atomic_write`` (write → flush → fsync → rename → fsync(dir)).

Degradation ladder (``eco.fallbacks`` counts every rung taken):

1. incremental refine — one finest-level FBP pass from the current
   placement (:meth:`BonnPlaceFBP.incremental_refine`);
2. on solver failure, budget exhaustion, or verification failure:
   restore pre-delta positions and run the **full** solve on the
   patched instance (the resilient lp → heur solver chain of the
   full pipeline stays intact underneath);
3. on full-solve failure: roll the delta back entirely and re-raise —
   the caller still holds the consistent pre-delta placement.

Fault sites (:mod:`repro.resilience.faultinject`): ``eco.validate``,
``eco.apply``, ``eco.commit``, ``eco.rollback``; ``corrupt`` rules at
``eco.commit`` flip journal-entry bytes after checksumming so the next
reader must quarantine.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.eco.delta import (
    PlacementDelta,
    StagedChanges,
    build_patched_bounds,
    validate_structure,
)
from repro.eco.journal import DeltaJournal, JournalEntry, placement_sha
from repro.feasibility import check_feasibility
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet, decompose_regions
from repro.netlist import Netlist, PlacementSnapshot
from repro.obs import incr, span
from repro.obs.invariants import InvariantViolation, checking, run_check
from repro.place.base import PlacerResult
from repro.place.bonnplace import BonnPlaceFBP, projected_position
from repro.resilience.errors import (
    DeltaValidationError,
    InfeasibleInputError,
    PipelineStageError,
    ReproError,
)
from repro.resilience.faultinject import corruption, inject

__all__ = ["EcoOptions", "EcoResult", "EcoEngine"]


@dataclass
class EcoOptions:
    """Knobs of the transactional apply."""

    #: verification gate: hpwl_post must stay within this factor of
    #: hpwl_pre (a delta can legitimately raise HPWL — it adds
    #: constraints — but an unbounded jump means the incremental solve
    #: went off the rails and the full solve should decide instead)
    max_hpwl_drift: float = 4.0
    #: drift denominators below this use the floor (degenerate
    #: zero-wirelength instances)
    hpwl_floor: float = 1e-9
    #: force-enable the obs invariant registry (flow conservation,
    #: region capacity, containment) *during* the incremental solve —
    #: the ``--eco-verify`` CLI flag; the post-solve verification runs
    #: regardless
    verify_solve: bool = False
    #: degrade to the full multilevel solve instead of failing
    allow_fallback: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_hpwl_drift": self.max_hpwl_drift,
            "verify_solve": self.verify_solve,
            "allow_fallback": self.allow_fallback,
        }


@dataclass
class EcoResult:
    """Outcome of one committed delta transaction."""

    #: "eco" (incremental solve), "fallback" (full re-solve),
    #: "noop" (empty delta, placement byte-identical), or
    #: "replayed" (crashed-and-retried transaction restored from its
    #: own committed journal entry)
    mode: str
    delta_digest: str
    txn_seq: int
    hpwl_pre: float
    hpwl_post: float
    base_sha: str
    post_sha: str
    frontier_windows: int = 0
    fallback_reason: str = ""
    eco_seconds: float = 0.0
    placement: Optional[PlacerResult] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "delta_digest": self.delta_digest,
            "txn_seq": self.txn_seq,
            "hpwl_pre": self.hpwl_pre,
            "hpwl_post": self.hpwl_post,
            "base_sha": self.base_sha,
            "post_sha": self.post_sha,
            "frontier_windows": self.frontier_windows,
            "fallback_reason": self.fallback_reason,
            "eco_seconds": self.eco_seconds,
        }


class EcoEngine:
    """Transactional incremental re-place on one in-memory instance.

    The engine owns the instance's movebound set for the duration of
    its lifetime — read ``engine.bounds`` after :meth:`apply`, since a
    committed delta swaps in the patched set.  ``run_dir=None`` runs
    fully in memory (no journal: still validated, verified and rolled
    back, but not crash-durable and not replayable).
    """

    def __init__(
        self,
        netlist: Netlist,
        bounds: Optional[MoveBoundSet] = None,
        placer: Optional[BonnPlaceFBP] = None,
        run_dir: Optional[str] = None,
        options: Optional[EcoOptions] = None,
    ) -> None:
        self.netlist = netlist
        self.bounds = (
            bounds if bounds is not None else MoveBoundSet(netlist.die)
        )
        self.bounds.normalize()
        self.placer = placer or BonnPlaceFBP()
        self.options = options or EcoOptions()
        self.journal = DeltaJournal(run_dir) if run_dir else None
        self._mem_seq = 0

    # -- recovery -------------------------------------------------------
    def recover(self) -> Optional[JournalEntry]:
        """Restore the newest committed transaction after a restart.

        Replays the *structural* mutations (bounds, assignments, net
        weights, density) of every committed delta in journal order —
        they are not part of the placement snapshot — then restores the
        final snapshot's positions bit-exactly.  Corrupt entries are
        quarantined by the journal as they are met; with none surviving
        the instance stays at its pre-delta state and None is returned.
        """
        if self.journal is None:
            return None
        newest = self.journal.latest()
        if newest is None:
            return None
        entry, snap = newest
        if len(snap.x) != self.netlist.num_cells:
            raise PipelineStageError(
                "ECO journal snapshot does not match the instance "
                f"({len(snap.x)} cells vs {self.netlist.num_cells})",
                stage="eco.recover",
            )
        for past in self.journal.entries():
            if past.seq > entry.seq:
                break
            delta = PlacementDelta.from_dict(past.delta)
            self._apply_structural(delta)
        self.netlist.restore(snap)
        incr("eco.recovered")
        return entry

    # -- the transaction ------------------------------------------------
    def apply(
        self, delta: Union[PlacementDelta, Dict, List]
    ) -> EcoResult:
        """Validate, stage, solve, verify, and commit one delta."""
        if not isinstance(delta, PlacementDelta):
            delta = PlacementDelta.from_dict(delta)
        incr("eco.transactions")
        with span("eco.apply") as sp:
            result = self._apply_impl(delta)
        result.eco_seconds = sp.wall_s
        return result

    def _apply_impl(self, delta: PlacementDelta) -> EcoResult:
        netlist, opts = self.netlist, self.options

        # ---- validate (nothing has mutated yet) -----------------------
        inject("eco.validate")
        validate_structure(netlist, self.bounds, delta)
        digest = delta.digest()
        base_sha = placement_sha(netlist)
        hpwl_pre = netlist.hpwl()
        pre = netlist.snapshot()

        # ---- idempotent replay of a crashed-and-retried commit --------
        if self.journal is not None:
            hit = self.journal.find_replay(digest, base_sha)
            if hit is not None:
                entry, snap = hit
                self._apply_structural(delta)
                netlist.restore(snap)
                incr("eco.replays")
                return EcoResult(
                    mode="replayed",
                    delta_digest=digest,
                    txn_seq=entry.seq,
                    hpwl_pre=entry.hpwl_pre,
                    hpwl_post=entry.hpwl_post,
                    base_sha=base_sha,
                    post_sha=entry.post_sha,
                    frontier_windows=entry.frontier_windows,
                )

        # ---- stage against shadow state -------------------------------
        staged, old_bounds = self._apply_structural(delta)

        # ---- condition (1) feasibility witness on the patched state ---
        try:
            decomposition = decompose_regions(
                netlist.die, self.bounds, netlist.blockages
            )
            with span("eco.feasibility"):
                report = check_feasibility(
                    netlist,
                    self.bounds,
                    decomposition,
                    self.placer.options.density_target,
                )
        except ReproError:
            self._rollback(staged, old_bounds, pre)
            raise
        if not report.feasible:
            self._rollback(staged, old_bounds, pre)
            incr("eco.validation_failures")
            raise DeltaValidationError(
                "delta makes the instance infeasible: movebounds "
                f"{sorted(report.witness or ())} overflow by "
                f"{report.deficit:.1f} area units (condition (1))",
                witness=report.witness,
                deficit=report.deficit,
                delta_digest=digest,
                stage="eco.validate",
            )

        # ---- no-op: commit a byte-identical transaction ---------------
        if delta.is_noop:
            return self._commit(
                delta, digest, base_sha, pre, hpwl_pre, hpwl_pre,
                mode="noop", frontier=set(),
                staged=staged, old_bounds=old_bounds,
            )

        # ---- frontier -------------------------------------------------
        frontier = self._frontier(delta)
        incr("eco.frontier_windows", len(frontier))

        # ---- incremental solve + verification -------------------------
        mode, reason, placement = "eco", "", None
        try:
            inject("eco.apply")
            # geometry deltas solve scoped to the frontier; net
            # re-weighting and density changes have global effect, so
            # they take the full finest-level refine instead
            scoped = (
                frontier
                if not delta.net_weights and delta.density_target is None
                else None
            )
            with ExitStack() as stack:
                if opts.verify_solve:
                    stack.enter_context(checking(True))
                placement = self.placer.incremental_refine(
                    netlist,
                    self.bounds,
                    decomposition,
                    frontier=scoped,
                    touched_cells=delta.touched_cells(netlist),
                )
            reason = self._verify(placement, hpwl_pre)
        except (DeltaValidationError, InfeasibleInputError):
            # the Theorem-2 check passed, so this is an engine-level
            # refusal (e.g. an injected infeasible fault): abort
            self._rollback(staged, old_bounds, pre)
            raise
        except InvariantViolation as exc:
            reason = f"invariant violated during incremental solve: {exc}"
        except ReproError as exc:
            reason = (
                f"incremental solve failed: {type(exc).__name__}: {exc}"
            )

        # ---- graceful degradation to the full solve -------------------
        if reason:
            incr("eco.fallbacks")
            if not opts.allow_fallback:
                self._rollback(staged, old_bounds, pre)
                raise PipelineStageError(
                    f"incremental re-place rejected and fallback "
                    f"disabled: {reason}",
                    stage="eco.apply",
                    context={"delta_digest": digest},
                )
            mode = "fallback"
            netlist.restore(pre)
            try:
                with span("eco.fallback"):
                    placement = self.placer.place(netlist, self.bounds)
            except ReproError:
                # rung 3: even the full solve refused — undo the delta
                # entirely; the caller keeps the pre-delta placement
                self._rollback(staged, old_bounds, pre)
                raise

        return self._commit(
            delta, digest, base_sha, pre, hpwl_pre, netlist.hpwl(),
            mode=mode, frontier=frontier, staged=staged,
            old_bounds=old_bounds, placement=placement,
            fallback_reason=reason,
        )

    # -- internals ------------------------------------------------------
    def _apply_structural(
        self, delta: PlacementDelta
    ) -> Tuple[StagedChanges, MoveBoundSet]:
        """Swap in the patched bounds and mutate cell/net/density
        attributes, recording everything needed to roll back."""
        netlist = self.netlist
        old_bounds = self.bounds
        staged = StagedChanges()
        patched = build_patched_bounds(old_bounds, delta, netlist.die)

        def _move(name: str, target: Optional[str]) -> None:
            idx = netlist.cell_index(name)
            prev = netlist.movebound_of(idx)
            staged.prev_movebounds.setdefault(idx, prev)
            netlist.set_cells([idx], movebound=target)

        for m in delta.movebounds:
            for c in m.cells:
                _move(c, m.name)
        for c, target in delta.assign.items():
            _move(c, None if target == DEFAULT_BOUND else target)
        for c in delta.unassign:
            _move(c, None)
        if delta.net_weights:
            weights = {
                netlist.net_index(n): w for n, w in delta.net_weights.items()
            }
            held = netlist.pin_table()[4]
            for i in weights:
                staged.prev_weights.setdefault(i, float(held[i]))
            netlist.set_net_weights(weights)
        if delta.density_target is not None:
            staged.prev_density = self.placer.options.density_target
            self.placer.options.density_target = delta.density_target
        self.bounds = patched
        return staged, old_bounds

    def _rollback(
        self,
        staged: StagedChanges,
        old_bounds: MoveBoundSet,
        pre: PlacementSnapshot,
    ) -> None:
        """Undo every staged mutation; the instance is exactly as it
        was before :meth:`apply`.  The journal is never touched here —
        a crash mid-rollback still recovers to the pre-delta state."""
        try:
            inject("eco.rollback")
        except ReproError:
            # a fault *inside* rollback must not leave the instance
            # torn — note it and keep restoring
            incr("eco.rollback_faults")
        netlist = self.netlist
        self.bounds = old_bounds
        for idx, prev in staged.prev_movebounds.items():
            netlist.set_cells([idx], movebound=prev)
        netlist.set_net_weights(staged.prev_weights)
        if staged.prev_density is not None:
            self.placer.options.density_target = staged.prev_density
        netlist.restore(pre)
        incr("eco.rollbacks")

    def _frontier(self, delta: PlacementDelta) -> Set[Tuple[int, int]]:
        """Finest-grid windows the delta touches: windows intersecting
        any new movebound rectangle, the windows currently holding
        re-assigned cells, and the windows those cells are projected
        into."""
        netlist = self.netlist
        die = netlist.die
        n = 2 ** self.placer.num_levels(netlist)
        wx = (die.x_hi - die.x_lo) / n
        wy = (die.y_hi - die.y_lo) / n

        def _ix(v: float, lo: float, w: float) -> int:
            return min(n - 1, max(0, int((v - lo) / w)))

        fr: Set[Tuple[int, int]] = set()
        for m in delta.movebounds:
            for (x_lo, y_lo, x_hi, y_hi) in m.rects:
                for ix in range(
                    _ix(x_lo, die.x_lo, wx), _ix(x_hi, die.x_lo, wx) + 1
                ):
                    for iy in range(
                        _ix(y_lo, die.y_lo, wy),
                        _ix(y_hi, die.y_lo, wy) + 1,
                    ):
                        fr.add((ix, iy))
        for idx in delta.touched_cells(netlist):
            x, y = float(netlist.x[idx]), float(netlist.y[idx])
            fr.add((_ix(x, die.x_lo, wx), _ix(y, die.y_lo, wy)))
            # a re-assigned cell is projected into its (possibly
            # pre-existing) target bound before the scoped solve; its
            # destination window is part of the frontier too
            best = projected_position(netlist, self.bounds, idx)
            if best is not None:
                fr.add((_ix(best[1], die.x_lo, wx), _ix(best[2], die.y_lo, wy)))
        return fr

    def _verify(
        self, placement: Optional[PlacerResult], hpwl_pre: float
    ) -> str:
        """Post-solve verification; a non-empty string is the refusal
        reason (the caller degrades to the full solve)."""
        opts = self.options
        netlist = self.netlist
        try:
            run_check("movebound.containment", netlist, self.bounds)
        except InvariantViolation as exc:
            incr("eco.verify_failures")
            return f"containment check failed: {exc}"
        if (
            placement is not None
            and placement.legality is not None
            and not placement.legality.is_legal
        ):
            incr("eco.verify_failures")
            return "legality audit failed after incremental refine"
        floor = max(abs(hpwl_pre), opts.hpwl_floor)
        hpwl_post = netlist.hpwl()
        if hpwl_post > floor * opts.max_hpwl_drift:
            incr("eco.verify_failures")
            return (
                f"HPWL drift {hpwl_post / floor:.2f}x exceeds the "
                f"{opts.max_hpwl_drift:.2f}x gate"
            )
        return ""

    def _commit(
        self,
        delta: PlacementDelta,
        digest: str,
        base_sha: str,
        pre: PlacementSnapshot,
        hpwl_pre: float,
        hpwl_post: float,
        mode: str,
        frontier: Set[Tuple[int, int]],
        staged: StagedChanges,
        old_bounds: MoveBoundSet,
        placement: Optional[PlacerResult] = None,
        fallback_reason: str = "",
    ) -> EcoResult:
        netlist = self.netlist
        if mode == "noop":
            # byte-identical by construction: restore the snapshot so
            # even float round-trips cannot perturb the payload
            netlist.restore(pre)
        post_sha = placement_sha(netlist)
        if self.journal is not None:
            seq = self.journal.next_seq()
        else:
            self._mem_seq += 1
            seq = self._mem_seq
        entry = JournalEntry(
            seq=seq,
            delta_digest=digest,
            delta=delta.to_dict(),
            base_sha=base_sha,
            post_sha=post_sha,
            snapshot_file="",
            snapshot_sha="",
            mode=mode,
            hpwl_pre=hpwl_pre,
            hpwl_post=hpwl_post,
            frontier_windows=len(frontier),
            context={"fallback_reason": fallback_reason}
            if fallback_reason
            else {},
        )
        if self.journal is not None:
            try:
                inject("eco.commit")
                self.journal.commit(
                    entry,
                    netlist.snapshot(),
                    corrupt=corruption("eco.commit"),
                )
            except ReproError:
                # commit refused: the transaction aborts as a unit
                self._rollback(staged, old_bounds, pre)
                incr("eco.commit_failures")
                raise
        incr("eco.commits")
        incr(f"eco.commits.{mode}")
        return EcoResult(
            mode=mode,
            delta_digest=digest,
            txn_seq=seq,
            hpwl_pre=hpwl_pre,
            hpwl_post=hpwl_post,
            base_sha=base_sha,
            post_sha=post_sha,
            frontier_windows=len(frontier),
            fallback_reason=fallback_reason,
            placement=placement,
        )
