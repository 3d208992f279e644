"""In-memory span recorder for the traced benchmark run.

A span is one call into a public layer function, recorded by the benchmark
around that call: name, start, end, the enclosing span, and attributes such
as the number of rows the call handled.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self):
        self._spans: list[Span | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self._spans)
        parent = self._open[-1] if self._open else None
        self._spans.append(None)
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self._spans[sid] = Span(sid, parent, name, start, end, attrs)

    def call(self, name: str, fn, *args, **attrs):
        """Run ``fn(*args)`` inside a span called ``name``."""
        with self.span(name, **attrs):
            return fn(*args)

    def spans(self, name: str) -> list[Span]:
        return [s for s in self._spans if s is not None and s.name == name]

    def durations_ms(self, name: str) -> list[float]:
        return [s.ms for s in self.spans(name)]

    def ms_per_krow(self, *names: str) -> float:
        """Total time of the named spans per 1000 rows they handled; 0 if none ran."""
        spans = [s for name in names for s in self.spans(name)]
        rows = sum(s.attrs.get("rows", 0) for s in spans)
        return 1000.0 * sum(s.ms for s in spans) / rows if rows else 0.0

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self._spans:
                if s is not None:
                    row = {"id": s.id, "parent": s.parent, "name": s.name,
                           "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs}
                    fh.write(json.dumps(row) + "\n")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile by the inclusive method; 0 when there are no samples."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
