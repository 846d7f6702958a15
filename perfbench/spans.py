"""In-memory spans recorded around calls into the program's layers.

A span has a name, start, end, parent span and request id.  Spans are
kept in a :class:`SpanRecorder` and written out once, when the run ends.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.

The benchmark records spans from its own files: :func:`instrument`
swaps a public function of the program for a wrapper that opens a span
around each call (or around each step of a generator), in every module
that bound the function by name, and returns the undo.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "instrument",
    "self_times",
    "totals_by_name",
]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid")

    def __init__(self, sid, name, start, end, parent, rid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class SpanRecorder:
    """Collects spans in memory; one per process under measurement."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent=None, rid=None) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Record the body as one span, the parent of spans opened
        inside it on the same thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, time.perf_counter(), None, parent, rid))
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.spans[sid].end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def totals_by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Name -> ``{"calls", "total_s", "self_s"}`` over every span."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        slot = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        slot["calls"] += 1
        slot["total_s"] += s.end - s.start
        slot["self_s"] += selfs[s.sid]
    return out


def _wrapper(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # One span per step, so time the consumer spends between
            # steps is not charged to the generator.
            it = fn(*args, **kwargs)
            while True:
                with rec.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return call_wrapper


def instrument(
    rec: SpanRecorder, targets: Dict[str, Tuple[object, str]], prefix: str = "repro"
) -> Callable[[], None]:
    """Wrap each ``span name -> (module, attribute)`` function in every
    loaded module under ``prefix`` that holds it; returns the undo."""
    undo: List[Tuple[object, str, object]] = []
    for name, (module, attr) in targets.items():
        orig = getattr(module, attr, None)
        if orig is None:
            continue
        wrapped = _wrapper(rec, name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(prefix):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def _undo() -> None:
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)

    return _undo
