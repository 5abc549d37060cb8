"""Outside-in span tracer for the traced benchmark passes.

Wrappers replace module-level names of the package; no package code changes.
Each call of a wrapped function becomes a span: name, start, end, parent
span, self time (duration minus the time its children cover) and a small
info value read from the result. Matcher calls are far too many to keep one
span each, so they are counted per name (calls, busy seconds) while their
time is still charged to the enclosing span, which keeps self times exact.

`match_conjunction` returns a lazy generator. Its wrapper stays lazy and
times each resumption, so a consumer that stops at the first match, like
`is_obsolete`, still stops there and the traced program does the same work.
"""
from __future__ import annotations

import functools
import time
from types import ModuleType
from typing import Callable, Iterable, Iterator

__all__ = ["Tracer"]


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index: int | None):
        self.index = index
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, self seconds, info)
        self.spans: list[tuple | None] = []
        self.counts: dict[str, list] = {}
        self._stack: list[_Frame] = []
        self._clock = time.perf_counter

    def _parent(self) -> int:
        for frame in reversed(self._stack):
            if frame.index is not None:
                return frame.index
        return -1

    def _close(self, frame: _Frame, start: float) -> float:
        end = self._clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += end - start
        return end

    def span(self, name: str, fn: Callable,
             info: Callable[[object, tuple], object] | None = None) -> Callable:
        """Wrap fn so that each call records one span; info(result, args)
        picks what the span keeps of a successful call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._parent()
            frame = _Frame(index)
            self._stack.append(frame)
            start = self._clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self._close(frame, start)
                detail = None
                if info is not None and result is not None:
                    detail = info(result, args + tuple(kwargs.values()))
                self.spans[index] = (name, start, end, parent,
                                     end - start - frame.child, detail)
        return wrapper

    def _count(self, name: str) -> list:
        return self.counts.setdefault(name, [0, 0.0])

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that calls are counted and timed without a span."""
        tally = self._count(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(None)
            self._stack.append(frame)
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += self._close(frame, start) - start
        return wrapper

    def lazy(self, name: str, fn: Callable[..., Iterator]) -> Callable:
        """Like counted, for a function returning an iterator: the call and
        every resumption are timed, and nothing is drawn ahead of the
        consumer."""
        tally = self._count(name)
        timed_call = self.counted(name, fn)

        def resumptions(inner: Iterator) -> Iterator:
            while True:
                frame = _Frame(None)
                self._stack.append(frame)
                start = self._clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tally[1] += self._close(frame, start) - start
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resumptions(timed_call(*args, **kwargs))
        return wrapper

    def install(self, modules: Iterable[ModuleType], original: Callable,
                wrapped: Callable) -> None:
        """Re-bind every module-level name bound to original."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "self": s[4], "info": s[5]}
            for s in self.spans if s is not None
        ]
