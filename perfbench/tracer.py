"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public functions of the speclaw modules with wrappers
that record one span per call (name, start, end, parent span, thread) and
optional counters.  It patches the function at its module attribute and in
every speclaw namespace that imported it by name, so calls made through
`from .x import f` bindings are caught too.  Nothing under src/ is edited.

Each thread keeps its own span stack.  A span opened on a pool thread with
an empty stack takes the innermost open span of the main thread (the
campaign span) as its parent, so the main thread's wait on the pool is
covered by the trial spans and not counted as campaign self time.

Self time is a span's duration minus the union of the intervals its child
spans cover inside it; children that overlap (two trial threads) are never
subtracted twice.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by the intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(((spans[k].start, spans[k].end) for k in kids[i]), s.start, s.end)
        out.append((s.end - s.start) - covered)
    return out


def overlap_excess(spans: list[Span]) -> float:
    """Sum over parents of (summed child durations - union of child intervals).

    For any span tree, sum(self_times) == root durations + overlap_excess, so
    the self times of a serial run add up exactly to its wall time.
    """
    kids = children_of(spans)
    excess = 0.0
    for i, s in enumerate(spans):
        if kids[i]:
            ivs = [(max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids[i]]
            excess += sum(max(0.0, b - a) for a, b in ivs) - union_length(ivs)
    return excess


class Tracer:
    """Collects spans and counters from wrapped functions; inert until installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) or []
            parent = main[-1] if main and threading.get_ident() != self._main else None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, threading.get_ident()))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, fn, span: str | None, on_call=None, on_return=None):
        """Wrapper recording a span named `span` (None: counters only)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = self.open(span) if span is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.close(idx)
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, span: str | None, namespaces=(), on_call=None, on_return=None) -> None:
        """Replace owner.attr, and every namespace binding of the same object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, span, on_call, on_return)
        for target in (owner, *namespaces):
            if target.__dict__.get(attr) is original:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
