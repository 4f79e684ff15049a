"""In-memory span recorder for the benchmark's traced runs.

The benchmark traces from its own files: :meth:`Tracer.wrap` replaces a
public function or method of the program with a wrapper that records one
span (name, start, end, parent) around each call, and
:meth:`Tracer.count_calls` replaces one with a wrapper that only counts.
Every patch is undone by :meth:`Tracer.uninstall`.  CPython's collector
is traced through ``gc.callbacks``, so collection pauses are their own
``runtime.gc`` spans and never inflate the self time of the layer they
interrupt.

Spans stay in memory as ``[name, start, end, parent]`` lists (``start``
and ``end`` are ``time.perf_counter`` readings, which on Linux come from
the system-wide monotonic clock and so line up across processes).  The
self time of a span is its duration minus the time its children cover.
Counters are attributed to root spans: when a root span ends, the counter
increments made while it was open are kept under its index.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Span indexes: name, start, end, parent.
NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans and counters recorded at the boundaries the benchmark wraps."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Counter increments made inside each root span, by span index.
        self.root_counts: Dict[int, Counter] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._gc_installed = False

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if not stack:
            self.root_counts[index] = Counter(self.counts)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        if not stack and index in self.root_counts:
            increments = Counter(self.counts)
            increments.subtract(self.root_counts[index])
            self.root_counts[index] = +increments

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attribute: str, make: Callable) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, make(original))
        self._patches.append((owner, attribute, original))

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        count: Optional[Callable[[Counter, object], None]] = None,
        materialize: bool = False,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attribute``.

        ``count(counts, result)`` may add counters from the call's result;
        ``materialize`` drains a returned iterator into a list inside the
        span, for functions that yield lazily.
        """

        def make(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                    if materialize:
                        result = list(result)
                finally:
                    self.end(index)
                if count is not None:
                    count(self.counts, result)
                return result

            return wrapper

        self._patch(owner, attribute, make)

    def count_calls(self, owner, attribute: str, counter: str) -> None:
        """Count calls of ``owner.attribute`` under ``counter`` (no span)."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attribute, make)

    def trace_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._gc_installed = True

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._local.gc_span = self.begin("runtime.gc")
        else:
            index = getattr(self._local, "gc_span", None)
            if index is not None:
                self.end(index)
                self._local.gc_span = None
                self.counts["runtime.gc_collections"] += 1

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False


def self_times(spans: List[list], indexes) -> Dict[str, float]:
    """Seconds of self time per span name over ``spans[i] for i in indexes``.

    ``indexes`` is one op's index range or one root's subtree; a child
    outside it does not reduce its parent's self time.
    """
    members = indexes if isinstance(indexes, range) else set(indexes)
    children: Dict[int, float] = defaultdict(float)
    for index in indexes:
        name, start, end, parent = spans[index]
        if parent in members:
            children[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index in indexes:
        name, start, end, _ = spans[index]
        totals[name] += end - start - children.get(index, 0.0)
    return dict(totals)


def chrome_events(spans: List[list], pid: int, epoch: float) -> List[dict]:
    """Complete (``"X"``) trace events for the finished ``spans``, in µs."""
    return [
        {
            "name": name,
            "ph": "X",
            "ts": round((start - epoch) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"id": index, "parent": parent},
        }
        for index, (name, start, end, parent) in enumerate(spans)
        if end is not None
    ]


def write_chrome_trace(path: str, events: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)
