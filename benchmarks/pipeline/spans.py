"""In-memory spans with parent links, and the self-time arithmetic.

The recorder lives in the measured child: every wrapped entry point
opens a span (layer name, start, end, the span that caused it), spans
stay in memory for the whole op and are written out once at exit.  The
parent turns them into per-layer numbers with :func:`self_times`:

    self time of a span = its duration minus the part of that interval
    its child spans cover

so a layer that calls into itself (``solve_transportation_with_relaxation``
-> ``solve_transportation``) or is re-entered from a different parent
is counted once, and the self times of all spans add up to the time
covered by root spans.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Append-only span store; single-threaded like the placer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layer: List[str] = []
        self.start: List[float] = []
        self.end: List[Optional[float]] = []
        self.parent: List[int] = []
        self._open: List[int] = []

    def enter(self, layer: str) -> int:
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(None)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        now = self.clock()
        # an exception may unwind several spans at once
        while self._open:
            top = self._open.pop()
            self.end[top] = now
            if top == index:
                break

    def add(self, layer: str, start: float, end: float) -> None:
        """A closed root span measured by other means (``startup``)."""
        self.layer.append(layer)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return traced

    def close_all(self) -> None:
        if self._open:
            self.exit(self._open[0])

    def to_dict(self) -> Dict[str, list]:
        self.close_all()
        names = sorted(set(self.layer))
        code = {name: i for i, name in enumerate(names)}
        return {
            "layers": names,
            "layer": [code[name] for name in self.layer],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


def dump(path: str, recorder: SpanRecorder, **extra) -> None:
    payload = recorder.to_dict()
    payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, separators=(",", ":"))


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(
    payload: dict, windows: Optional[Sequence[Tuple[float, float]]] = None
) -> Dict[str, Tuple[float, int]]:
    """``layer -> (summed self time, number of spans)`` of one dump.

    With ``windows`` only spans lying inside one of those intervals
    count — the ops of a child that also does untimed work."""
    names = payload["layers"]
    layer = payload["layer"]
    start, end, parent = payload["start"], payload["end"], payload["parent"]
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out: Dict[str, Tuple[float, int]] = {}
    for i, code in enumerate(layer):
        if windows is not None and not any(
            lo <= start[i] and end[i] <= hi for lo, hi in windows
        ):
            continue
        own = end[i] - start[i]
        if i in children:
            own -= _covered(children[i], start[i], end[i])
        total, calls = out.get(names[code], (0.0, 0))
        out[names[code]] = (total + own, calls + 1)
    return out
