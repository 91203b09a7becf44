"""In-memory spans recorded from outside the program, and their self times.

The traced run wraps the public entry points of each layer (see
:mod:`dbwbench.layers`) so that every call records a :class:`Span`:
name, start, end, the span that caused it, and the id of the request
(benchmark cycle) it belongs to. Spans stay in memory and are written
out once, when the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover. Children are clipped to the parent and merged
before subtracting, so overlapping children (concurrent calls under one
parent) are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

#: ``counter(args, kwargs, result) -> {count name: increment}``: the
#: work counts a wrapped call reports next to its span.
CountFn = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the causing span's id (None = root)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    """Collects spans and counts; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """Time the body as a child of this thread's innermost open span."""
        stack = self._stack()
        parent_id, parent_request = stack[-1] if stack else (None, -1)
        with self._lock:
            span_id = next(self._ids)
        request = parent_request if request is None else request
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent_id, request)
                )

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, name: str, counter: CountFn | None = None):
        """``fn`` recording a span named ``name`` (and counts) per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(key, n)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line, then the counts."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


@contextmanager
def patched(tracer: Tracer, patches: Iterable[tuple]) -> Iterator[None]:
    """Wrap ``owner.attr`` for each ``(owner, attr, span name, counter)``.

    ``owner`` is a class (the plain function in its ``__dict__`` is
    wrapped, so instances bind the wrapper as a method) or a module (the
    module-level name its own functions call). Everything is restored on
    exit, even when the body raises.
    """
    saved = []
    try:
        for owner, attr, name, counter in patches:
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered_length(children[span.id], span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name."""
    names = {span.id: span.name for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span_id, seconds in self_times(spans).items():
        totals[names[span_id]] += seconds
    return dict(totals)


def calls_by_name(spans: Sequence[Span]) -> Counter:
    """Number of spans per name."""
    return Counter(span.name for span in spans)
