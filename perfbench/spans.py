"""Span recorder that wraps the public functions of each moment2d layer.

Nothing inside ``src/`` is instrumented.  Instead the traced run swaps
the module attributes through which one layer calls the next (for
example ``moment2d.solutions.build_gns``) for timing wrappers, runs the
operation, and restores the originals.  Each call becomes one span with
its name, start, end, parent span and operation id; spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, error: BaseException | None):
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(index, exc)
            raise
        self._close(index, None)

    def wrap(self, fn, name: str, observe=None):
        """Timing wrapper around ``fn``; ``observe(counts, result)`` sees
        each result.  A generator function gets one span per ``next``."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span name, observe)``
        targets, restoring every original on exit."""
        saved = []
        try:
            for owner, attr, name, observe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, and the
        count of calls that raised, by exception class."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0,
                                               "errors": Counter()})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - child_time[i]
            if span.error is not None:
                entry["errors"][span.error] += 1
        return out

    def write(self, path: str):
        """Spans as one JSON object per line, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start_us": round((s.start - t0) * 1e6, 3),
                    "end_us": round((s.end - t0) * 1e6, 3),
                    "error": s.error}) + "\n")
