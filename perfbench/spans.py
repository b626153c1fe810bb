"""Spans around the benchmark's calls into the program.

A traced run wraps each public function it calls; every call records one
span (name, start, end, parent span, context id). Spans stay in memory and
are written out when the run ends. With tracing off, `wrap` hands back the
function itself, so untraced runs pay nothing.
"""
from __future__ import annotations

import gzip
import json
import time
from typing import Callable


class NullTracer:
    enabled = False
    ctx = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1, ctx); None while the span is open
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.ctx = None  # tick or episode id stamped on new spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.ctx)

        return traced

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    name, start, end, parent, ctx = s
                    fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "ctx": ctx}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured here."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(n):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(n):
        traced()
    return max(0.0, (clock() - start - bare) / n)
