"""Spans around the benchmark's calls into the program's modules.

A span records a name, a start and end on the monotonic clock, the span
open around it, and the run id of the operation it belongs to. Spans stay
in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    run_id: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0,
                               self._open[-1] if self._open else -1, self.run_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, run_prefix: str = "") -> list[float]:
        return [s.seconds for s in self.spans
                if s.name == name and s.run_id.startswith(run_prefix)]

    def median(self, name: str, run_prefix: str = "") -> float:
        return statistics.median(self.durations(name, run_prefix))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: Path) -> dict[str, float]:
        """Write every span as one JSON line; return total self time per name."""
        own = self.self_times()
        totals: dict[str, float] = {}
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start_ns,
                                    "end_ns": s.end_ns, "parent": s.parent,
                                    "run_id": s.run_id, "self_s": own[i]}) + "\n")
                totals[s.name] = totals.get(s.name, 0.0) + own[i]
        return totals
