"""The ECO delta model: what an incremental re-place may change.

A :class:`PlacementDelta` is the unit of change the transactional
engine (:mod:`repro.eco.engine`) accepts: new movebound rectangles
with cell assignments (the service's ``movebound_patch`` format maps
onto this 1:1), explicit cell re-assignments to existing bounds,
un-assignments back to the default bound, net re-weighting (the
timing-driven ECO case: the netlist objective changes, the geometry
does not), and a density-target change.

Deltas are *canonically encoded*: :meth:`PlacementDelta.digest` is the
config hash of the sorted JSON form, and identifies the delta in the
journal — a crashed-and-retried transaction recognizes its own
committed entry by ``(digest, base placement hash)`` and replays it
instead of re-solving.

Validation is two-staged and side-effect free (shadow state only):

1. :func:`validate_structure` — every name/rect/cell/weight checked
   against the *current* instance; refusal raises
   :class:`~repro.resilience.errors.DeltaValidationError` (exit 2).
2. the engine's condition (1) feasibility witness on the patched
   bounds (Theorem 2), also surfaced as ``DeltaValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.geometry import Rect
from repro.movebounds import (
    DEFAULT_BOUND,
    EXCLUSIVE,
    INCLUSIVE,
    MoveBound,
    MoveBoundSet,
)
from repro.netlist import Netlist
from repro.resilience.errors import DeltaValidationError
from repro.runstate import config_hash

__all__ = [
    "MoveboundDelta",
    "PlacementDelta",
    "StagedChanges",
    "validate_structure",
    "build_patched_bounds",
]


@dataclass
class MoveboundDelta:
    """One new movebound: rectangles, kind, and the cells moved in."""

    name: str
    rects: List[Tuple[float, float, float, float]]
    exclusive: bool = False
    cells: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rects": [list(map(float, r)) for r in self.rects],
            "exclusive": bool(self.exclusive),
            "cells": list(self.cells),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MoveboundDelta":
        return cls(
            name=str(d["name"]),
            rects=[tuple(map(float, r)) for r in d.get("rects", [])],
            exclusive=bool(d.get("exclusive", False)),
            cells=[str(c) for c in d.get("cells", [])],
        )


@dataclass
class PlacementDelta:
    """A netlist/movebound/density delta, canonically encodable."""

    movebounds: List[MoveboundDelta] = field(default_factory=list)
    #: cell name -> existing movebound name
    assign: Dict[str, str] = field(default_factory=dict)
    #: cell names released back to the default bound
    unassign: List[str] = field(default_factory=list)
    #: net name -> new positive weight (timing-driven re-weighting)
    net_weights: Dict[str, float] = field(default_factory=dict)
    density_target: Optional[float] = None

    # -- encoding -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "movebounds": [m.to_dict() for m in self.movebounds],
            "assign": dict(self.assign),
            "unassign": list(self.unassign),
            "net_weights": {k: float(v) for k, v in self.net_weights.items()},
            "density_target": self.density_target,
        }

    @classmethod
    def from_dict(cls, d: Any) -> "PlacementDelta":
        """Decode a delta; a bare list is the service's
        ``movebound_patch`` format (each entry one new bound)."""
        if isinstance(d, list):
            return cls.from_movebound_patch(d)
        if not isinstance(d, dict):
            raise DeltaValidationError(
                f"delta must be a JSON object or a movebound-patch "
                f"list, got {type(d).__name__}",
                stage="eco.validate",
            )
        dens = d.get("density_target")
        return cls(
            movebounds=[
                MoveboundDelta.from_dict(m) for m in d.get("movebounds", [])
            ],
            assign={
                str(k): str(v) for k, v in (d.get("assign") or {}).items()
            },
            unassign=[str(c) for c in d.get("unassign", [])],
            net_weights={
                str(k): float(v)
                for k, v in (d.get("net_weights") or {}).items()
            },
            density_target=None if dens is None else float(dens),
        )

    @classmethod
    def from_movebound_patch(cls, patch: List[Dict]) -> "PlacementDelta":
        """The service ``replace`` wire format, unchanged from PR 7."""
        return cls(
            movebounds=[
                MoveboundDelta(
                    name=str(e["name"]),
                    rects=[tuple(map(float, r)) for r in e.get("rects", [])],
                    exclusive=bool(e.get("exclusive", False)),
                    cells=[str(c) for c in e.get("cells", [])],
                )
                for e in patch
            ]
        )

    def digest(self) -> str:
        """Canonical identity of the delta (config-hash form)."""
        return config_hash(self.to_dict())

    @property
    def is_noop(self) -> bool:
        return (
            not self.movebounds
            and not self.assign
            and not self.unassign
            and not self.net_weights
            and self.density_target is None
        )

    def touched_cells(self, netlist: Netlist) -> List[int]:
        """Indices of every cell the delta re-assigns (validated
        names only — call after :func:`validate_structure`)."""
        names: List[str] = []
        for m in self.movebounds:
            names.extend(m.cells)
        names.extend(self.assign)
        names.extend(self.unassign)
        return [netlist.cell_index(n) for n in names]


@dataclass
class StagedChanges:
    """Everything needed to roll the in-memory instance back."""

    #: cell index -> previous ``movebound`` attribute
    prev_movebounds: Dict[int, Optional[str]] = field(default_factory=dict)
    #: net index -> previous weight
    prev_weights: Dict[int, float] = field(default_factory=dict)
    prev_density: Optional[float] = None


def _fail(message: str, delta: PlacementDelta, **context: Any) -> None:
    raise DeltaValidationError(
        message,
        delta_digest=delta.digest(),
        stage="eco.validate",
        context=context or None,
    )


def validate_structure(
    netlist: Netlist, bounds: MoveBoundSet, delta: PlacementDelta
) -> None:
    """Structural validation against the current instance; raises
    :class:`DeltaValidationError` on the first refusal.  Reads only —
    the caller's netlist and bounds are never touched."""
    die = netlist.die
    seen_new: set = set()
    for m in delta.movebounds:
        if not m.name or m.name == DEFAULT_BOUND:
            _fail(f"invalid movebound name {m.name!r}", delta)
        if m.name in seen_new:
            _fail(f"movebound {m.name!r} appears twice in the delta", delta)
        if m.name in bounds:
            _fail(
                f"movebound {m.name!r} already exists; re-defining an "
                f"existing bound is not an incremental operation",
                delta,
            )
        seen_new.add(m.name)
        if not m.rects:
            _fail(f"movebound {m.name!r} has no rectangles", delta)
        for r in m.rects:
            if len(r) != 4 or not all(math.isfinite(v) for v in r):
                _fail(
                    f"movebound {m.name!r} rectangle {r!r} is not 4 "
                    f"finite coordinates",
                    delta,
                )
            x_lo, y_lo, x_hi, y_hi = r
            if x_lo >= x_hi or y_lo >= y_hi:
                _fail(
                    f"movebound {m.name!r} rectangle {r!r} has "
                    f"non-positive extent",
                    delta,
                )
            if not die.contains_rect(Rect(*r)):
                _fail(
                    f"movebound {m.name!r} rectangle {r!r} leaves the "
                    f"die {die}",
                    delta,
                )

    assigned: Dict[str, str] = {}

    def _check_cell(name: str, target: str) -> None:
        try:
            idx = netlist.cell_index(name)
        except KeyError:
            _fail(f"unknown cell {name!r}", delta)
        if netlist.fixed_mask[idx]:
            _fail(f"cell {name!r} is fixed; a delta cannot move it", delta)
        if name in assigned:
            _fail(
                f"cell {name!r} is re-assigned twice "
                f"({assigned[name]!r} and {target!r})",
                delta,
            )
        assigned[name] = target

    for m in delta.movebounds:
        for c in m.cells:
            _check_cell(c, m.name)
    for c, target in delta.assign.items():
        if target not in bounds and target not in seen_new:
            _fail(
                f"cell {c!r} assigned to unknown movebound {target!r}",
                delta,
            )
        _check_cell(c, target)
    for c in delta.unassign:
        _check_cell(c, DEFAULT_BOUND)

    if delta.net_weights:
        for net_name, w in delta.net_weights.items():
            try:
                netlist.net_index(net_name)
            except KeyError:
                _fail(f"unknown net {net_name!r}", delta)
            if not math.isfinite(w) or w <= 0:
                _fail(
                    f"net {net_name!r} weight {w!r} must be a finite "
                    f"positive number",
                    delta,
                )

    if delta.density_target is not None:
        d = delta.density_target
        if not math.isfinite(d) or not (0.0 < d <= 1.5):
            _fail(
                f"density target {d!r} outside (0, 1.5]",
                delta,
            )


def build_patched_bounds(
    bounds: MoveBoundSet, delta: PlacementDelta, die
) -> MoveBoundSet:
    """A *fresh* MoveBoundSet with the delta's bounds added — shadow
    state; the caller's set is untouched.  Normalization failures
    (exclusive overlap, swallowed inclusive bound) are refusals.

    The patched bounds share their areas with ``bounds``: a ``RectSet``
    is immutable and normalization only rebinds ``MoveBound.area``."""
    patched = MoveBoundSet(
        die, [MoveBound(b.name, b.area, b.kind) for b in bounds]
    )
    try:
        for m in delta.movebounds:
            patched.add_rects(
                m.name,
                [Rect(*r) for r in m.rects],
                kind=EXCLUSIVE if m.exclusive else INCLUSIVE,
            )
        patched.normalize()
    except (ValueError, DeltaValidationError) as exc:
        raise DeltaValidationError(
            f"patched movebounds do not normalize: {exc}",
            delta_digest=delta.digest(),
            stage="eco.validate",
        ) from exc
    return patched
