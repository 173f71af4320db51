"""Span recording from outside the program.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, the span that caused it and the root span
of its request.  Spans stay in memory until :meth:`Tracer.write` is called
at the end of the run.  Because the wrappers are installed on the module a
caller looks the name up in (``polalign.montecarlo.optimize``, not
``polalign.compensation.optimize``), they time each layer as that caller
sees it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    parent: int | None
    root: int
    name: str
    start_ns: int
    end_ns: int = 0
    note: Any = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        span = Span(
            span_id=span_id,
            parent=None if parent is None else parent.span_id,
            root=span_id if parent is None else parent.root,
            name=name,
            start_ns=0,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span):
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` with a span per call; ``observe(args, result)`` fills the span's note."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.note = observe(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, span name, observe)`` targets."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path):
        """One JSON line per span; notes must be JSON-serializable by then."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.span_id,
                    "parent": s.parent,
                    "root": s.root,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                }
                if s.note is not None:
                    record["note"] = s.note
                fh.write(json.dumps(record) + "\n")
