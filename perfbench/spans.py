"""In-memory spans around the benchmark's calls into the library.

A workload never calls the library directly: it goes through a ``call``
function, ``call(name, fn, *args, out=None, **attrs)``. :func:`direct` just
calls ``fn``; :meth:`Tracer.call` also records a span with its parent, its
task id and ``attrs``, plus whatever ``out(result)`` returns, computed after
the span has ended. Spans nest by call order, so a task span is the parent
of the layer spans it makes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from time import perf_counter


def direct(name, fn, *args, out=None, **attrs):
    return fn(*args)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    task: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, out=None, **attrs):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.task, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            span.end = perf_counter()
            attrs["error"] = type(exc).__name__
            raise
        else:
            span.end = perf_counter()
            if out is not None:
                attrs.update(out(result))
            return result
        finally:
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        """One JSON object per span, with its index as ``id``."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")
