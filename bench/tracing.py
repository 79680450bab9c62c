"""In-memory spans for the traced benchmark run.

A span records a name, start, end, its parent span and the operation it
belongs to.  Spans stay in memory while the workload runs and are written
out with the run's result at the end.  The benchmark opens spans around
its own calls into the library, and ``Tracer.patched`` opens them around
calls the library makes between its modules by swapping a module attribute
for a wrapper while a pass runs; no file inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # shared by every span of one operation

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op`` is set by the caller for each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Open a span around every call of ``module.attr`` while the block runs.

        ``targets`` holds (module, attr, span name); an attribute the module
        does not have is skipped, so its span is simply absent.
        """
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        self_time = self.self_times()
        return sum(self_time[s.id] for s in self.spans if s.name == name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time, in seconds."""
        self_time = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += s.duration
            entry["self_s"] += self_time[s.id]
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
