"""In-memory span recorder for traced benchmark runs.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the id of the
enclosing span (or ``None``) and ``op`` is the id of the query the span
belongs to, shared by every span of that query.  Spans are stored as tuples,
in the order they end, so that the garbage collector stops scanning them and
a long traced run does not slow down as they pile up.  They stay in memory
and are written out once, when the run ends.  ``NullTracer`` has the same
interface and records nothing, so untraced and traced passes run the same
code.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class NullTracer:
    enabled = False
    op = None

    def span(self, name: str):
        return _NULL

    def mark(self) -> int:
        return 0


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op = None

    @contextmanager
    def span(self, name: str):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def mark(self) -> int:
        """Position to pass to :meth:`self_times` to cover only later spans."""
        return len(self.spans)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Per span name, the summed duration minus the time child spans cover."""
        spans = self.spans[since:]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, name, start, end, _, _ in spans:
            own = (end - start) - child_time.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start", "end", "parent", "op"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one nested span, in seconds."""
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("outer"):
        for _ in range(samples):
            with tracer.span("inner"):
                pass
    return (time.perf_counter() - start) / samples
