"""In-memory spans for the traced run, and self time per layer.

A span is (name, start, end, parent, command).  ``parent`` is the index of
the enclosing span or -1; ``command`` names the command the span belongs to.
Spans are kept in a list while the run lasts and written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    command: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.command = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.command))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> {"calls", "total_s", "self_s"} summed over all spans of that name."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return table
