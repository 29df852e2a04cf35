"""In-memory spans around the benchmark's calls into each layer.

A span has a name, start, end, parent span and run id. Spans stay in memory
and are written out once, when the measured process ends. ``NULL_TRACER``
records nothing and is what untraced passes use, so the end-to-end numbers
are measured without tracing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = Span(sid, name, time.perf_counter(), float("nan"), parent, self.run)
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            rec.end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


class _NullTracer:
    @contextmanager
    def span(self, name: str):
        yield


NULL_TRACER = _NullTracer()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - _covered(children.get(s.id, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def coverage(spans: list[Span], root: Span) -> float:
    """Share of ``root``'s duration covered by its direct children."""
    kids = [(s.start, s.end) for s in spans if s.parent == root.id]
    return _covered(kids) / (root.end - root.start)
