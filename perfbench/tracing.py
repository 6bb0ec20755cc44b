"""In-memory spans and counters around calls into relcover.

A span records one public call: its name, the evaluation it belongs to, the
span that was open when it started, and its start and end.  Spans stay in
memory until the run ends.  With tracing off the benchmark uses `NoTracer`,
whose `call` is a plain call, so the untraced loop pays one indirection.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from typing import Any, Callable


@dataclass
class Span:
    name: str
    eval_id: int
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class NoTracer:
    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def note(self, instance: int, name: str, value: float) -> None:
        pass


class Tracer(NoTracer):
    def __init__(self) -> None:
        self.eval_id = 0
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.eval_id, parent, time.perf_counter(), 0.0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def note(self, instance: int, name: str, value: float) -> None:
        """Counters are per instance: the same instance gives the same count
        every time it is evaluated, so a later note overwrites an earlier."""
        self.counters.setdefault(instance, {})[name] = value

    def self_times(self) -> dict[str, list[tuple[int, float]]]:
        """Per span name, (eval_id, duration minus the time of direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, list[tuple[int, float]]] = {}
        for i, span in enumerate(self.spans):
            out.setdefault(span.name, []).append((span.eval_id, span.duration - child_time[i]))
        return out

    def dump(self) -> dict:
        """Spans as rows under one list of field names: runs make many calls."""
        return {
            "fields": [f.name for f in fields(Span)],
            "rows": [astuple(span) for span in self.spans],
        }
