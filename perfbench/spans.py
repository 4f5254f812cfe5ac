"""In-memory span recorder with self-time accounting.

A span is one timed call, stored as ``{"id", "name", "start_ns", "end_ns",
"parent", "run"}``: ``parent`` is the id of the nearest enclosing kept
span and ``run`` identifies the run all spans of one process belong to.
Times come from ``time.perf_counter_ns``.  Spans are kept in memory and
written once by the caller (``to_json``).

Coarse calls (stages, per-root calls, layer entry points) keep a span.
Frequent calls are timed into per-name totals without keeping a span, and
the most frequent ones are only counted.  Every timed call, kept or not,
is subtracted from its caller's self time, so the self time of a name is
its duration minus the time of the timed calls made inside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.counts: Counter = Counter()
        # open frames: [name, start_ns, child_ns, span_id, parent_span_id]
        self._stack: list[list] = []
        self._next_id = 0

    def _enter(self, name: str, keep: bool) -> list:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] is not None else top[4]
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0, 0, span_id, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append({
                "id": span_id, "name": name, "start_ns": start,
                "end_ns": end, "parent": parent, "run": self.run_id,
            })

    @contextmanager
    def span(self, name: str, keep: bool = True):
        frame = self._enter(name, keep)
        try:
            yield
        finally:
            self._exit(frame)

    def timed(self, name: str, fn, keep: bool = False):
        """Wrap ``fn`` so each call is timed under ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def current_layer(self) -> str:
        """Layer (name prefix) of the innermost open timed call."""
        if not self._stack:
            return "none"
        return self._stack[-1][0].split(".", 1)[0]

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "totals": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in self.totals.items()
            },
            "counts": dict(self.counts),
        }
