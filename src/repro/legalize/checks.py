"""Legality checking.

A placement is legal when every movable cell is inside the die, off all
blockages and fixed cells, on a row (standard cells), on a site, does
not overlap any other cell — and, with movebounds, is contained in its
movebound area and outside foreign exclusive areas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist
from repro.obs import span

TOL = 1e-6

#: candidate pairs of the overlap sweep alive at once
_SWEEP_BLOCK = 1 << 17


@dataclass
class LegalityReport:
    """Violation counts of a placement (all zero = legal)."""

    overlaps: int = 0
    out_of_die: int = 0
    off_row: int = 0
    off_site: int = 0
    on_blockage: int = 0
    movebound_violations: int = 0
    overlap_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_legal(self) -> bool:
        return (
            self.overlaps == 0
            and self.out_of_die == 0
            and self.off_row == 0
            and self.on_blockage == 0
            and self.movebound_violations == 0
        )

    def summary(self) -> str:
        if self.is_legal:
            return "legal"
        return (
            f"overlaps={self.overlaps} out_of_die={self.out_of_die} "
            f"off_row={self.off_row} off_site={self.off_site} "
            f"on_blockage={self.on_blockage} "
            f"movebounds={self.movebound_violations}"
        )


def check_legality(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    check_sites: bool = False,
    max_overlap_pairs: int = 50,
) -> LegalityReport:
    """Full legality audit of the current placement."""
    with span("legalize.check"):
        report = LegalityReport()
        report.out_of_die = len(netlist.check_in_die(TOL))

        movable, hw, hh = netlist._dim_arrays()
        die = netlist.die
        h = netlist.row_height
        site = netlist.site_width

        xl = netlist.x - hw
        xh = netlist.x + hw
        yl = netlist.y - hh
        yh = netlist.y + hh

        std = movable & (2.0 * hh <= h + TOL)
        k = (yl[std] - die.y_lo) / h
        report.off_row = int(np.count_nonzero(np.abs(k - np.round(k)) > 1e-4))
        if check_sites and site > 0:
            s = (xl[movable] - die.x_lo) / site
            report.off_site = int(
                np.count_nonzero(np.abs(s - np.round(s)) > 1e-4)
            )
        if len(netlist.blockages):
            # accumulate blockage coverage per cell, one vector op per rect
            cov = np.zeros(netlist.num_cells)
            for r in netlist.blockages:
                w = np.minimum(xh, r.x_hi) - np.maximum(xl, r.x_lo)
                d = np.minimum(yh, r.y_hi) - np.maximum(yl, r.y_lo)
                cov += np.where((w > 0) & (d > 0), w * d, 0.0)
            areas = (xh - xl) * (yh - yl)
            report.on_blockage = int(
                np.count_nonzero(
                    movable & (cov > TOL * np.maximum(areas, 1.0))
                )
            )

        # overlap sweep: sort by x_lo; a cell's partners are the contiguous
        # run of later cells whose x_lo is left of its x_hi - TOL.  The
        # candidate pairs (first cell ascending, then partner) are
        # numbered and tested a block at a time — an unlegalized
        # placement has millions of them
        order = np.argsort(xl, kind="stable")
        sxl, sxh = xl[order], xh[order]
        syl, syh = yl[order], yh[order]
        sfix = ~movable[order]
        n = len(order)
        starts = np.arange(n) + 1
        ends = np.maximum(
            np.searchsorted(sxl, sxh - TOL, side="left"), starts
        )
        upto = np.cumsum(ends - starts)
        total = int(upto[-1]) if n else 0
        for lo in range(0, total, _SWEEP_BLOCK):
            pair = np.arange(lo, min(lo + _SWEEP_BLOCK, total))
            a_idx = np.searchsorted(upto, pair, side="right")
            b_idx = ends[a_idx] - (upto[a_idx] - pair)
            # most x-neighbours sit in other rows: drop them before
            # touching x
            oh = np.minimum(syh[a_idx], syh[b_idx]) - np.maximum(
                syl[a_idx], syl[b_idx]
            )
            stacked = np.nonzero(oh > 0)[0]
            a_idx, b_idx, oh = a_idx[stacked], b_idx[stacked], oh[stacked]
            ow = np.minimum(sxh[a_idx], sxh[b_idx]) - np.maximum(
                sxl[a_idx], sxl[b_idx]
            )
            hit = np.nonzero(
                ~(sfix[a_idx] & sfix[b_idx]) & (ow > 0) & (ow * oh > TOL)
            )[0]
            report.overlaps += len(hit)
            room = max_overlap_pairs - len(report.overlap_pairs)
            report.overlap_pairs.extend(
                (int(order[a_idx[i]]), int(order[b_idx[i]]))
                for i in hit[: max(room, 0)]
            )

        if bounds is not None:
            report.movebound_violations = len(bounds.violations(netlist))
        return report
