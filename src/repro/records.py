"""Read-only record views over column storage.

The netlist (cells, nets) and the min-cost-flow problem (nodes, arcs)
keep their state as arrays; a reader that wants one record per row gets
a :class:`Records` view, which builds each record when it is asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable


class Records(Sequence):
    """A read-only sequence of records, each built from columns when it
    is asked for (``rows(a, b)`` yields those of rows ``a:b``): no
    record is kept, so changing one changes nothing."""

    __slots__ = ("_size", "_rows")

    def __init__(self, size: Callable[[], int], rows: Callable) -> None:
        self._size, self._rows = size, rows

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        k = range(len(self))[i]
        return next(self._rows(k, k + 1))

    def __iter__(self):
        return self._rows(0, len(self))
