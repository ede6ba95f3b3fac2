"""Outside-in tracing for the benchmark's traced run.

The tracer replaces module attributes with wrappers for the length of a
``with`` block and puts the originals back afterwards.  A span wrapper
records the call's name, start, end and the span it was called from; a
counting wrapper only counts calls, for functions too small to time without
distorting their caller.  Spans stay in memory until the run ends.  Self
time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

# size accounting: (args, result) -> amount added to a named counter per call
Sizer = Callable[[tuple, Any], float]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    analysis: int


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.analysis = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (owner, attribute, original, wrapper)
        self._origin = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def span(self, owner: Any, attr: str, name: str, sizes: Optional[Dict[str, Sizer]] = None) -> None:
        """Record a span for every call of ``owner.attr`` while installed."""

        def wrap(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                result = self.root(name, lambda: fn(*args, **kwargs))
                for counter, sizer in (sizes or {}).items():
                    self.counts[self.analysis][counter] += sizer(args, result)
                return result

            return traced

        self._patch(owner, attr, wrap)

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), 0.0, self.analysis)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` as ``<name>.calls`` while installed."""

        def wrap(fn: Callable) -> Callable:
            def counted(*args, **kwargs):
                self.counts[self.analysis][f"{name}.calls"] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(owner, attr, wrap)

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        # a name the program no longer has is simply never called: it reads 0
        original = getattr(owner, attr, None)
        if original is not None:
            self._patches.append((owner, attr, original, wrap(original)))

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- analyses -----------------------------------------------------------

    def begin_analysis(self) -> None:
        self.analysis += 1

    def per_analysis(self) -> List[Dict[str, float]]:
        """Per analysis: ``<name>.self_s``, ``<name>.total_s``, ``<name>.calls`` and counters."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = [defaultdict(float, self.counts[a]) for a in range(self.analysis + 1)]
        for s in self.spans:
            row = out[s.analysis]
            duration = s.end - s.start
            row[f"{s.name}.total_s"] += duration
            row[f"{s.name}.self_s"] += duration - child[s.id]
            row[f"{s.name}.calls"] += 1
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line, times from tracer start."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "analysis": s.analysis,
                    "start": s.start - self._origin, "end": s.end - self._origin,
                }) + "\n")
