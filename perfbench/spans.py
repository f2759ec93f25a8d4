"""In-memory spans around calls into fairpair, reduced to self times.

A span records a name, its start and end on the perf_counter clock, the span
that was open when it started (its parent) and the run it belongs to. Probe
spans time a layer outside the pipeline being traced; they never have
pipeline spans as children and never count toward a pipeline's time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    probe: bool


class Tracer:
    """Collects spans from one thread; nothing is written until `dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = 0

    def new_run(self) -> int:
        self.run += 1
        return self.run

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run, probe))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Give every call to `owner.attr` a span while the block runs.

        `targets` holds (owner, attr, span name) triples; every attribute is
        restored on exit. A missing attribute raises AttributeError.
        """
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, fn), (_, _, name) in zip(saved, targets):
                setattr(owner, attr, self._spanned(fn, name))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def total(self, name: str, run: int) -> float:
        """Summed duration of the spans called `name` in one run."""
        values = [s.end - s.start for s in self.spans if s.name == name and s.run == run]
        if not values:
            raise KeyError(f"no span named {name!r}")
        return sum(values)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def median(self, name: str, run: int | None = None) -> float:
        """Median duration of the spans called `name`, optionally of one run only."""
        values = [s.end - s.start for s in self.spans
                  if s.name == name and run in (None, s.run)]
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def dump(self) -> list[dict]:
        return [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self.self_times())]


class NullTracer:
    """Stands in for a Tracer on untraced runs."""

    @staticmethod
    def span(name: str, probe: bool = False):
        return contextlib.nullcontext()


NULL = NullTracer()
