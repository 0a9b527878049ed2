"""Job execution for the placement service.

:func:`execute_job` is the *same pure function* whether it runs in a
supervised child process (:func:`run_job_child`, the normal path) or
in the daemon itself (the terminal fallback after ``max_attempts``
child crashes) — so a crash-looping child degrades to
correct-but-slow, never to a divergent result.

Crash tolerance of one attempt:

* ``place``/``replace`` jobs own a durable ``runstate`` run directory
  (``<job_dir>/run``) opened with ``resume=True``: the first attempt
  starts fresh, every retry resumes from the last durable level, and
  the final placement is bit-identical to an uninterrupted run by the
  PR-3 contract;
* the outcome — success payload *or* classified error — is committed
  by atomically writing a checksummed ``<job_dir>/result.json``; the
  daemon (restarted or not) trusts only a file that verifies, so a
  torn or corrupted result re-runs the attempt instead of corrupting
  the job table.

Fault-injection sites (fire inside the child, per attempt; the
in-daemon fallback bypasses them by design, mirroring the worker
pool's serial fallback):

* ``svc.child.kill``     — ``kill`` rules hard-exit the attempt,
* ``svc.child.stall``    — ``stall:SECONDS`` rules wedge it (deadline
  supervision must reap and retry),
* ``svc.result.corrupt`` — ``corrupt`` rules flip result bytes after
  checksumming, so the daemon must detect and retry.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Any, Dict, Optional, Tuple

from repro.obs import span
from repro.resilience.budget import SolverBudget, set_default_budget
from repro.resilience.errors import PipelineStageError, ReproError
from repro.resilience.faultinject import corruption, inject
from repro.runstate.store import (
    CorruptRunStateError,
    atomic_write,
    flip_bytes,
    seal,
    unseal,
)
from repro.service.protocol import JobSpec, error_payload

__all__ = [
    "RESULT_FILE",
    "validate_options",
    "execute_job",
    "write_result",
    "read_result",
    "run_job_child",
    "run_job_to_file",
]

RESULT_FILE = "result.json"

#: placer options a job spec may set; anything else is refused at
#: admission so a typo'd option fails loudly instead of silently
#: placing with defaults
ALLOWED_OPTIONS = {
    "placer": str,
    "density": float,
    "relax_infeasible": bool,
    "legalize": bool,
    # replace jobs: route through the transactional ECO engine
    # (repro.eco) instead of a full re-place; see docs/incremental.md
    "eco": bool,
    "eco_verify": bool,
    "max_hpwl_drift": float,
}


def validate_options(options: Dict[str, Any]) -> None:
    """Refuse unknown options, wrong types and out-of-range values at
    admission, so a bad spec never reaches a child attempt."""
    from repro.place import PLACERS

    for key, value in options.items():
        want = ALLOWED_OPTIONS.get(key)
        if want is None:
            raise PipelineStageError(
                f"unknown job option {key!r} "
                f"(choose from {sorted(ALLOWED_OPTIONS)})",
                stage="svc.accept",
            )
        # an int may stand in for a float, a JSON boolean may not
        if not isinstance(value, want) and not (
            want is float
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            raise PipelineStageError(
                f"job option {key!r} must be {want.__name__}, "
                f"got {type(value).__name__}",
                stage="svc.accept",
            )
    checks = (
        ("placer", lambda v: v in PLACERS, f"one of {tuple(PLACERS)}"),
        ("density", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        (
            "max_hpwl_drift",
            lambda v: math.isfinite(v) and v > 0.0,
            "finite and > 0",
        ),
        (  # only the fbp placer reads it: refused, not silently dropped
            "relax_infeasible",
            lambda v: not v or options.get("placer", "fbp") == "fbp",
            "false unless the placer is 'fbp'",
        ),
    )
    for key, ok, want in checks:
        if key in options and not ok(options[key]):
            raise PipelineStageError(
                f"job option {key!r} must be {want}, got {options[key]!r}",
                stage="svc.accept",
            )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _apply_movebound_patch(netlist, bounds, patch) -> None:
    """Apply an incremental-replace floorplan change: new movebound
    rectangles plus cell reassignments, on top of the loaded
    instance."""
    from repro.geometry import Rect
    from repro.movebounds import EXCLUSIVE, INCLUSIVE

    for entry in patch:
        name = str(entry["name"])
        rects = [Rect(*map(float, r)) for r in entry["rects"]]
        kind = EXCLUSIVE if entry.get("exclusive") else INCLUSIVE
        bounds.add_rects(name, rects, kind=kind)
        netlist.set_cells(
            [netlist.cell_index(str(c)) for c in entry.get("cells", [])],
            movebound=name,
        )


def _configured(placer, opts: Dict[str, Any]):
    """``placer`` with a job's placer options applied: ``density``,
    ``relax_infeasible`` and ``legalize``, on every path that places."""
    po = getattr(placer, "options", None)
    if po is None:
        return placer
    if "density" in opts:
        po.density_target = float(opts["density"])
    if opts.get("relax_infeasible"):
        po.relax_infeasible = True
    if "legalize" in opts:
        po.legalize = bool(opts["legalize"])
    return placer


def execute_job(spec: JobSpec, job_dir: str) -> Dict[str, Any]:
    """Run one job to completion and return its result payload.

    Deterministic: the payload's ``pl_sha256`` (place/replace) and the
    feasibility fields (check) are pure functions of the spec and the
    instance files — wall-clock fields are reported but excluded from
    any identity contract.
    """
    from repro.bookshelf import load_instance, save_instance

    netlist, bounds = load_instance(spec.dir, spec.instance)
    if spec.kind == "check":
        from repro.feasibility import check_feasibility

        density = float(spec.options.get("density", 0.97))
        report = check_feasibility(netlist, bounds, density_target=density)
        return {
            "kind": "check",
            "feasible": bool(report.feasible),
            "total_cell_area": float(report.total_cell_area),
            "routed_area": float(report.routed_area),
            "witness": sorted(report.witness) if report.witness else None,
        }

    if spec.kind == "replace" and spec.options.get("eco", True) and (
        spec.options.get("placer", "fbp") == "fbp"
    ):
        return _execute_replace_eco(spec, job_dir, netlist, bounds)

    if spec.kind == "replace" and spec.movebound_patch:
        # legacy path (non-FBP placers or eco=False): patch the
        # instance in place, then run the full pipeline below
        _apply_movebound_patch(netlist, bounds, spec.movebound_patch)

    from repro.place import PLACERS
    from repro.runstate import DurableRunState

    placer = _configured(
        PLACERS[spec.options.get("placer", "fbp")](), spec.options
    )
    if hasattr(placer, "run_state"):
        # resume=True: fresh when the run dir is empty, bit-identical
        # continuation from the manifest after any crashed attempt
        placer.run_state = DurableRunState(
            os.path.join(job_dir, "run"), resume=True
        )
    result = placer.place(netlist, bounds)

    out_dir = os.path.join(job_dir, "out")
    save_instance(out_dir, netlist, bounds)
    pl_path = os.path.join(out_dir, f"{spec.instance}.pl")
    with open(pl_path, "rb") as f:
        pl_sha = hashlib.sha256(f.read()).hexdigest()
    return {
        "kind": spec.kind,
        "hpwl": float(result.hpwl),
        "legal": bool(result.legality.is_legal) if result.legality else None,
        "relax_factor": float(getattr(placer, "relax_factor", 1.0)),
        "pl_file": pl_path,
        "pl_sha256": pl_sha,
        "global_seconds": float(result.global_seconds),
        "legal_seconds": float(result.legal_seconds),
    }


def _execute_replace_eco(
    spec: JobSpec, job_dir: str, netlist, bounds
) -> Dict[str, Any]:
    """The ``replace`` path through the transactional ECO engine.

    The delta journal lives in ``<job_dir>/run/eco``: an attempt that
    crashed *after* its commit point is replayed bit-identically by
    ``(delta digest, base placement hash)``; one that crashed before
    re-solves from the pristine loaded placement — both deterministic,
    so retries cannot diverge.  Solver failure or verification failure
    degrades to the full multilevel solve inside the engine
    (``eco.fallbacks``); an empty patch is a committed no-op and the
    saved ``.pl`` is byte-identical to the input placement.
    """
    from repro.bookshelf import save_instance
    from repro.eco import EcoEngine, EcoOptions, PlacementDelta
    from repro.place import BonnPlaceFBP

    opts = spec.options
    placer = _configured(BonnPlaceFBP(), opts)

    engine = EcoEngine(
        netlist,
        bounds,
        placer=placer,
        run_dir=os.path.join(job_dir, "run"),
        options=EcoOptions(
            verify_solve=bool(opts.get("eco_verify", False)),
            max_hpwl_drift=float(opts.get("max_hpwl_drift", 4.0)),
        ),
    )
    delta = PlacementDelta.from_movebound_patch(spec.movebound_patch or [])
    eco = engine.apply(delta)

    out_dir = os.path.join(job_dir, "out")
    save_instance(out_dir, netlist, engine.bounds)
    pl_path = os.path.join(out_dir, f"{spec.instance}.pl")
    with open(pl_path, "rb") as f:
        pl_sha = hashlib.sha256(f.read()).hexdigest()
    placement = eco.placement
    legality = placement.legality if placement is not None else None
    return {
        "kind": spec.kind,
        "hpwl": float(netlist.hpwl()),
        "legal": bool(legality.is_legal) if legality is not None else None,
        "relax_factor": float(getattr(placer, "relax_factor", 1.0)),
        "pl_file": pl_path,
        "pl_sha256": pl_sha,
        "global_seconds": float(
            placement.global_seconds if placement else 0.0
        ),
        "legal_seconds": float(
            placement.legal_seconds if placement else 0.0
        ),
        "eco": eco.to_dict(),
    }


# ----------------------------------------------------------------------
# the checksummed result file — the attempt's commit point
# ----------------------------------------------------------------------
def write_result(
    job_dir: str,
    payload: Optional[Dict[str, Any]] = None,
    error: Optional[Dict[str, Any]] = None,
    allow_faults: bool = True,
) -> None:
    """Atomically commit the attempt outcome to ``result.json``.

    ``allow_faults=False`` is the in-daemon fallback path: injected
    ``svc.result.corrupt`` rules must not be able to wedge the
    terminal safety net."""
    data = seal("result", {"payload": payload, "error": error})
    if allow_faults and corruption("svc.result.corrupt"):
        # flip bytes after checksumming: the daemon's read must detect
        # the mismatch and treat the attempt as failed
        data = flip_bytes(data)
    atomic_write(os.path.join(job_dir, RESULT_FILE), data)


def read_result(
    job_dir: str,
) -> Optional[Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]]:
    """Load + verify ``result.json``; ``(payload, error)`` on a valid
    commit, None when absent or failing verification (the attempt did
    not complete — retry)."""
    try:
        with open(os.path.join(job_dir, RESULT_FILE), "rb") as f:
            raw = f.read()
        return unseal(
            "result", raw, lambda r: (r.get("payload"), r.get("error"))
        )
    except (OSError, CorruptRunStateError):
        return None


def clear_result(job_dir: str) -> None:
    """Drop a stale result file before re-dispatching an attempt."""
    try:
        os.unlink(os.path.join(job_dir, RESULT_FILE))
    except OSError:
        pass


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_job_to_file(
    spec: JobSpec,
    job_dir: str,
    budget_seconds: Optional[float] = None,
    allow_faults: bool = True,
) -> None:
    """Execute the job and commit its outcome — success payload or
    classified error — to the result file.  Exceptions never escape:
    every outcome is a durable, structured commit."""
    os.makedirs(job_dir, exist_ok=True)
    if budget_seconds is not None:
        set_default_budget(SolverBudget(max_seconds=budget_seconds))
    try:
        # the span root of this job: every placer/solver span nests
        # under it in the attempt's trace
        with span(f"svc.job.{spec.kind}"):
            payload = execute_job(spec, job_dir)
        write_result(job_dir, payload=payload, allow_faults=allow_faults)
    except ReproError as exc:
        write_result(
            job_dir, error=error_payload(exc), allow_faults=allow_faults
        )
    except Exception as exc:  # noqa: BLE001 — classify, don't crash
        wrapped = PipelineStageError(
            f"job execution failed: {exc!r}", stage="svc.job"
        )
        write_result(
            job_dir, error=error_payload(wrapped), allow_faults=allow_faults
        )


def run_job_child(
    spec_dict: Dict[str, Any],
    job_dir: str,
    budget_seconds: Optional[float] = None,
) -> None:
    """Child-process entry: arm the per-attempt fault sites, then run.

    ``kill`` rules at ``svc.child.kill`` hard-exit before any work
    (SIGKILL semantics); ``stall`` rules at ``svc.child.stall`` wedge
    the attempt so the daemon's deadline supervision must reap it.
    """
    inject("svc.child.kill")
    inject("svc.child.stall")
    run_job_to_file(
        JobSpec.from_dict(spec_dict),
        job_dir,
        budget_seconds=budget_seconds,
        allow_faults=True,
    )
