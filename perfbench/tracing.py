"""In-memory spans around memflow functions, installed from outside the package.

A span records a name, its parent span, start and end on the
``time.perf_counter`` clock and one number the wrapper counts (2-D
transforms, file bytes or flow substeps).  Wrappers replace attributes that
``memflow.simulation.run()`` looks up at call time: module functions and the
methods of ``SpectralGrid`` and ``StrainMeasure``.  ``restore()`` puts every
original back, so calls made after it run untraced.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

perf_counter = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 for a root span
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, parent, perf_counter())
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._open.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``count(args, result)`` gives the span's count after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.count = int(count(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count: Callable | None = None):
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, t0: float) -> list[list]:
        """Spans as ``[name, parent, start_s, end_s, count]`` relative to ``t0``."""
        return [[s.name, s.parent, s.start - t0, s.end - t0, s.count] for s in self.spans]
