"""Up-front input validation for placement instances.

The placers and the CLI call :func:`validate_instance` before doing any
real work, so malformed inputs fail immediately with an
:class:`InfeasibleInputError` carrying an actionable message — instead
of surfacing later as a confusing solver failure deep inside the
pipeline (a NaN QP, a zero-capacity transportation instance, a
movebound nobody can reach).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.movebounds import DEFAULT_BOUND, MoveBoundSet
from repro.netlist import Netlist
from repro.resilience.errors import InfeasibleInputError

__all__ = ["validate_instance", "instance_problems"]


def instance_problems(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    density_target: float = 1.0,
) -> List[str]:
    """All input problems found, each as one actionable message."""
    problems: List[str] = []

    if density_target <= 0:
        problems.append(
            f"density target {density_target} must be positive — region "
            f"capacities scale with it, so 0 or negative leaves no capacity"
        )

    die = netlist.die
    if die.area <= 0:
        problems.append(
            f"die {die} has non-positive area; check the Bookshelf .scl/die line"
        )

    # --- cells -------------------------------------------------------
    names = netlist.cell_names
    bad_size = np.flatnonzero(
        (netlist.width < 0)
        | (netlist.height < 0)
        | ~np.isfinite(netlist.cell_sizes())
    )
    if len(bad_size):
        problems.append(
            f"{len(bad_size)} cell(s) with negative or non-finite "
            f"dimensions (e.g. {names[bad_size[0]]!r}); fix the .nodes entries"
        )
    nan_pos = np.flatnonzero(~(np.isfinite(netlist.x) & np.isfinite(netlist.y)))
    if len(nan_pos):
        problems.append(
            f"{len(nan_pos)} cell(s) with NaN/inf positions "
            f"(e.g. {names[nan_pos[0]]!r}); re-run global placement or fix the .pl"
        )

    if bounds is None:
        return problems

    # --- movebounds --------------------------------------------------
    known = set(bounds.names()) | {DEFAULT_BOUND}
    codes, bound_names = netlist.movebound_groups()
    counts = np.bincount(codes[netlist.movable_indices],
                         minlength=len(bound_names)).tolist()
    cells_per_bound = {b: k for b, k in zip(bound_names, counts) if k}
    unknown = sorted(set(cells_per_bound) - known)
    if unknown:
        problems.append(
            f"cells reference undeclared movebound(s) {unknown}; declare "
            f"them or drop the assignment"
        )

    # zero-area and out-of-die rectangles are rejected at movebound
    # construction (InfeasibleInputError from MoveBound/MoveBoundSet);
    # here we only need the checks that depend on the whole instance.
    for bound in bounds:
        usable = bound.area.subtract(netlist.blockages)
        if usable.area <= 0 and cells_per_bound.get(bound.name, 0) > 0:
            problems.append(
                f"movebound {bound.name!r} has {cells_per_bound[bound.name]} "
                f"cell(s) but its rectangle union (minus blockages) is "
                f"empty — no placement can satisfy it; widen A({bound.name}) "
                f"or unassign the cells"
            )

    return problems


def validate_instance(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    density_target: float = 1.0,
) -> None:
    """Raise :class:`InfeasibleInputError` listing every input problem."""
    problems = instance_problems(netlist, bounds, density_target)
    if problems:
        raise InfeasibleInputError(
            "invalid instance: " + "; ".join(problems),
            stage="validate",
            context={"problems": len(problems)},
        )
