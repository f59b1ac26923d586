"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, run id, attributes).  Spans live in
memory for the whole run and are written out once, at the end, as JSON
lines.  The layer of a span is the part of its name before the first dot
(``datasets``, ``core``, ``trials``, ``metrics``, ``streaming``); spans the
benchmark opens for its own bookkeeping (``bench.*``) form the ``bench``
layer.

Spans opened on a thread with no open span of its own (Spark's
``foreachBatch`` callbacks run on a Py4J callback thread) take the
innermost open span of the main thread as parent, which is the call that
caused them.
"""
from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "NullTracer", "self_time_by_layer"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for one benchmark run (``run_id``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sp = Span(len(self.spans), name, time.perf_counter(), parent=parent.id if parent else None, attrs=attrs)
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, attrs_of=None):
        """``fn`` wrapped in a span; ``attrs_of(args, kwargs)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def descends_from(self, span: Span, ancestor_name: str) -> bool:
        return any(p.name == ancestor_name for p in self.ancestors(span))

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "attrs": s.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time_by_layer(spans: list[Span], root: Span) -> dict[str, float]:
    """Seconds each layer spent in its own code under ``root``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; layers sum their spans' self times.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    todo = [root]
    while todo:
        s = todo.pop()
        kids = children.get(s.id, [])
        own = s.duration - _covered(
            [(max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start and k.start < s.end]
        )
        out[s.layer] = out.get(s.layer, 0.0) + own
        todo.extend(kids)
    return out
