"""Span recording for the traced benchmark run.

A span is one call into a kecscope layer: name, start, end, parent span and
op id. Spans stay in memory and are written out when the run ends. Times
come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in different processes share one time
base.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.returned: dict[str, object] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, targets):
        """Record a span around every call of ``module.attr`` while active.

        targets: (module, attr, span name) triples. An attribute the module
        does not have is skipped, so a renamed entry point loses its span
        instead of breaking the run. The last return value of each patched
        callable is kept in ``self.returned`` under its span name.
        """
        saved = []
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.returned[name] = out
            return out
        return traced

    def last(self, name: str) -> dict:
        return next(s for s in reversed(self.spans) if s["name"] == name)

    def ms(self, name: str, under: dict | None = None) -> float:
        """Summed duration of the spans with this name, in ms; with
        ``under``, only those nested inside that span."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and (under is None or self._inside(s, under["id"]))) * 1e3

    def _inside(self, rec: dict, root: int) -> bool:
        parent = rec["parent"]
        while parent is not None:
            if parent == root:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def self_ms(self, rec: dict) -> float:
        """Duration of one span minus the time its direct children cover."""
        inner = sum(s["end"] - s["start"] for s in self.spans
                    if s["parent"] == rec["id"])
        return (rec["end"] - rec["start"] - inner) * 1e3
