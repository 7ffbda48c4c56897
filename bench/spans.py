"""In-memory span tracing of calls into recurq's modules, for the traced run.

Each wrapped function records a span (name, start, end, parent span, operation
id). A span's self time is its duration minus the part of it that its child
spans cover. Wrappers are installed on the module attribute through which the
caller resolves the name, so a name bound at import (``recurq.cli.train``) is
wrapped in the importing module, and a name looked up as a module global
(``recurq.index.build_adc_table``) is wrapped in its own module.

With tracing off the benchmark uses ``NullTracer``, which installs nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class NullTracer:
    """Tracing off: operations are plain blocks and nothing is wrapped."""

    enabled = False

    def operation(self, kind: str):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; ``install`` wraps functions, ``uninstall``
    restores the originals."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent, self._op, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def operation(self, kind: str):
        """A top-level benchmark operation; spans inside share its id."""
        self._op += 1
        return self.span("op." + kind)

    def wrap(self, module_name: str, attr: str, span_name: str, attrs_fn=None, malloc=False):
        """Replace ``module.attr`` by a wrapper that records ``span_name``.

        ``attrs_fn(bound_arguments, result)`` returns extra span attributes;
        ``malloc`` records the tracemalloc peak of each call in MB.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        signature = inspect.signature(original) if attrs_fn else None
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(span_name) as span:
                if malloc:
                    tracemalloc.start()
                try:
                    result = original(*args, **kwargs)
                finally:
                    if malloc:
                        span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                if attrs_fn:
                    span.attrs.update(attrs_fn(signature.bind(*args, **kwargs).arguments, result))
                return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for s, self_s in zip(self.spans, self_times(self.spans)):
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                    "op": s.op, "self_s": self_s, **s.attrs}) + "\n")
