"""Span recording for the traced benchmark run.

A *span* is one call into a wrapped layer entry point: a name (the layer
metric it feeds), a start and an end.  Spans nest per thread — a span opened
while another is open on the same thread is that span's child — and a span's
*self time* is its duration minus the part of its interval that its child
spans cover (:func:`self_time`).

Recording is aggregated as spans close: each thread keeps, per span name,
the summed self time, summed total time and call count, plus named counts
(keys resolved, bytes encoded, rows pulled).  Nothing is shared between
threads while recording, so the only cost on the hot path is two clock reads
and a few list operations.  :meth:`SpanRecorder.totals` merges the threads
once recording is over.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["SpanRecorder", "covered", "self_time"]

Interval = Tuple[int, int]


def covered(intervals: Iterable[Interval], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping and nested intervals are counted once.
    """
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: int, end: int, children: Iterable[Interval]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(children, start, end)


class _ThreadState:
    """One thread's open spans and sums (touched only by that thread)."""

    __slots__ = ("stack", "sums", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.sums: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}


class SpanRecorder:
    """Wraps callables with span recorders and aggregates what they record.

    Recording happens only while :attr:`active` is true; wrapped callables
    cost one attribute check otherwise.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def open(self) -> list:
        """Open a span on this thread; pass the result to :meth:`close`."""
        frame = [perf_counter_ns(), []]
        self._state().stack.append(frame)
        return frame

    def close(self, name: str, frame: list) -> None:
        """Close the innermost open span and fold it into ``name``'s sums."""
        end = perf_counter_ns()
        state = self._local.state
        state.stack.pop()
        start, children = frame
        row = state.sums.get(name)
        if row is None:
            row = state.sums[name] = [0, 0, 0]
        row[0] += self_time(start, end, children)
        row[1] += end - start
        row[2] += 1
        if state.stack:
            state.stack[-1][1].append((start, end))

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named count (only while active)."""
        if self.active:
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Callable[..., Tuple[str, int]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``counter(result, *args, **kwargs)`` may return a ``(count name,
        amount)`` pair to add after each recorded call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, frame)
            if counter is not None:
                self.count(*counter(result, *args, **kwargs))
            return result

        return wrapper

    def wrap_context(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning a context manager whose enter and exit are spans."""
        recorder = self

        class _Timed:
            __slots__ = ("_inner",)

            def __init__(self, inner) -> None:
                self._inner = inner

            def __enter__(self):
                if not recorder.active:
                    return self._inner.__enter__()
                frame = recorder.open()
                try:
                    return self._inner.__enter__()
                finally:
                    recorder.close(name, frame)

            def __exit__(self, *exc):
                if not recorder.active:
                    return self._inner.__exit__(*exc)
                frame = recorder.open()
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    recorder.close(name, frame)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))

        return wrapper

    # -- results -------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """All threads merged: ``{"spans": {name: {self_ns, total_ns, calls}},
        "counts": {name: amount}}``."""
        spans: Dict[str, Dict[str, int]] = {}
        counts: Dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (self_ns, total_ns, calls) in list(state.sums.items()):
                row = spans.setdefault(name, {"self_ns": 0, "total_ns": 0, "calls": 0})
                row["self_ns"] += self_ns
                row["total_ns"] += total_ns
                row["calls"] += calls
            for name, amount in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + amount
        return {"spans": spans, "counts": counts}
