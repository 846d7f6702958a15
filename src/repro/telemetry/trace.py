"""Per-request traces: an ID plus per-stage span timings.

Every ``POST /query`` gets a trace ID at parse time — taken from the
client's ``X-Request-Id`` header when it sends a well-formed one,
generated otherwise — and the HTTP front end echoes it back as
``X-Request-Id`` on the response, so one failed request can be matched
across client error messages, server logs, and a distributed call
graph.

A :class:`RequestTrace` rides the request through the serving layers;
each layer records how long its stage took (``parse`` → ``admission``
→ ``park`` → ``gather`` on the coalesced path, ``parse`` →
``admission`` → ``gather`` on the direct path; ``flush`` and
``serialize`` are batch/transport-side stages recorded to the stage
histogram only — see DESIGN.md §9 for the span diagram).  A request
with ``"debug": true`` gets the trace back in its response body::

    {"u": 0, "v": 5, "distance": 2.0,
     "trace": {"id": "6d0c…", "spans_ms": {"parse": 0.04, …}}}

Stages accumulate: recording the same stage twice sums the durations
(a chunked gather is still one ``gather`` span).  Span recording is a
dict write under the GIL; the hand-offs between the event loop, the
flusher thread, and worker threads all synchronize on the request's
future, so the spans a response reports are complete by construction.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from typing import Dict, Optional

__all__ = ["RequestTrace", "clean_trace_id", "new_trace_id"]

#: Client-supplied IDs must be shaped like IDs — anything else (header
#: injection attempts, binary junk, novels) is replaced, not echoed.
_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 16-hex-char request ID."""
    return os.urandom(8).hex()


def clean_trace_id(raw: Optional[str]) -> Optional[str]:
    """``raw`` if it is a well-formed client-supplied ID, else None."""
    if raw and _ID_RE.match(raw):
        return raw
    return None


class RequestTrace:
    """One request's identity and stage timings."""

    __slots__ = ("trace_id", "debug", "spans")

    def __init__(self, trace_id: Optional[str] = None, debug: bool = False):
        self.trace_id = trace_id or new_trace_id()
        self.debug = bool(debug)
        self.spans: Dict[str, float] = {}

    @classmethod
    def from_header(
        cls, header: Optional[str], debug: bool = False
    ) -> "RequestTrace":
        """Honor a well-formed client ``X-Request-Id``, mint otherwise."""
        return cls(trace_id=clean_trace_id(header), debug=debug)

    def record(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` to ``stage`` (stages accumulate)."""
        self.spans[stage] = self.spans.get(stage, 0.0) + seconds

    @contextmanager
    def span(self, stage: str):
        """Time a ``with`` body into ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, time.perf_counter() - start)

    def as_dict(self) -> Dict[str, object]:
        """The ``"trace"`` object a ``debug`` response carries."""
        return {
            "id": self.trace_id,
            "spans_ms": {
                stage: round(seconds * 1000.0, 3)
                for stage, seconds in self.spans.items()
            },
        }

    def __repr__(self) -> str:
        return f"RequestTrace({self.trace_id}, spans={sorted(self.spans)})"
