"""Request-lifecycle primitives for fault-tolerant serving.

The paper's contribution is graceful degradation in algorithmic form —
bounded stretch bought with exponentially fewer rounds.  This module
gives the *serving* stack the same property: every overload or slowdown
produces a bounded, typed outcome instead of an unbounded queue or a
hung thread.  Three primitives, all transport-agnostic (the JSON
service layer uses them; tests drive them directly):

* :class:`Deadline` — a per-request budget resolved from the client's
  ``timeout_ms``, the server default, and the server max.  Work checks
  it cooperatively (:meth:`Deadline.check` between batch chunks) and
  expiry raises :class:`DeadlineExceeded` carrying partial-progress
  stats, which the service maps to ``504``.
* :class:`AdmissionController` — a bounded in-flight counter per mount.
  Over-limit requests raise :class:`AdmissionRejected` (mapped to
  ``503`` with ``Retry-After``) *at the door*, so overload sheds load
  in O(1) instead of piling requests onto threads.  :meth:`drain`
  waits for in-flight work to finish (graceful shutdown).
* :class:`ServingLimits` — one frozen record of every serving bound
  (in-flight, batch size, body bytes, timeouts, drain budget), shared
  by the service, the HTTP front end, and the CLI flags.

DESIGN.md §7 tabulates the failure semantics these implement.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "DEFAULT_LIMITS",
    "Deadline",
    "DeadlineExceeded",
    "ServingLimits",
]


class DeadlineExceeded(Exception):
    """A request ran past its deadline; carries partial progress."""

    def __init__(
        self,
        message: str,
        progress: Optional[Dict[str, int]] = None,
        timeout_ms: Optional[float] = None,
    ):
        super().__init__(message)
        self.progress = progress
        self.timeout_ms = timeout_ms


class Deadline:
    """A monotonic-clock budget for one request."""

    __slots__ = ("timeout_ms", "expires_at")

    def __init__(self, timeout_ms: float):
        timeout_ms = float(timeout_ms)
        if not timeout_ms >= 0:  # also rejects NaN
            raise ValueError(
                f"timeout_ms must be a non-negative number, got {timeout_ms!r}"
            )
        self.timeout_ms = timeout_ms
        self.expires_at = time.monotonic() + timeout_ms / 1000.0

    @classmethod
    def resolve(
        cls,
        requested_ms: Optional[object],
        default_ms: Optional[float],
        max_ms: Optional[float],
    ) -> Optional["Deadline"]:
        """The server-side deadline policy: the client's ``timeout_ms``
        if sent (capped at ``max_ms``), else the server default, else no
        deadline.  Non-numeric or negative requests raise ValueError."""
        if requested_ms is None:
            if default_ms is None:
                return None
            timeout_ms = float(default_ms)
        else:
            if isinstance(requested_ms, bool) or not isinstance(
                requested_ms, (int, float)
            ):
                raise ValueError(
                    f"timeout_ms must be a number, got {requested_ms!r}"
                )
            timeout_ms = float(requested_ms)
        if max_ms is not None:
            timeout_ms = min(timeout_ms, float(max_ms))
        return cls(timeout_ms)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, progress: Optional[Dict[str, int]] = None) -> None:
        """Raise :class:`DeadlineExceeded` (with ``progress``) if the
        budget is spent; otherwise return immediately."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.timeout_ms:g} ms exceeded",
                progress=progress,
                timeout_ms=self.timeout_ms,
            )


class AdmissionRejected(Exception):
    """The mount's in-flight bound is full; retry after ``retry_after``
    seconds (the service maps this to ``503`` + ``Retry-After``)."""

    def __init__(self, message: str, retry_after: float, inflight: int):
        super().__init__(message)
        self.retry_after = retry_after
        self.inflight = inflight


class AdmissionController:
    """A bounded in-flight request counter (one per mounted oracle)."""

    def __init__(self, max_inflight: int, retry_after: float = 1.0):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @contextmanager
    def admit(self):
        """Hold one in-flight slot for the ``with`` body; raises
        :class:`AdmissionRejected` instead of queueing when full."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._rejected += 1
                raise AdmissionRejected(
                    f"server is at its in-flight limit "
                    f"({self.max_inflight} requests); retry after "
                    f"{self.retry_after:g}s",
                    retry_after=self.retry_after,
                    inflight=self._inflight,
                )
            self._inflight += 1
            self._admitted += 1
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def drain(self, timeout: float, poll: float = 0.02) -> bool:
        """Wait up to ``timeout`` seconds for in-flight work to hit
        zero; True when it did (the graceful-shutdown wait)."""
        end = time.monotonic() + timeout
        while True:
            if self.inflight == 0:
                return True
            if time.monotonic() >= end:
                return self.inflight == 0
            time.sleep(poll)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }


@dataclass(frozen=True)
class ServingLimits:
    """Every serving bound in one (frozen, replace()-able) record.

    ``default_timeout_ms=None`` keeps the historical behaviour — no
    deadline unless the client sends ``timeout_ms`` — while
    ``max_timeout_ms`` caps what a client may ask for.  ``batch_chunk``
    is the unit of deadline-checking inside a batched query: chunks are
    answered one vectorized pass at a time with a deadline check
    between, so a blown deadline reports how many pairs completed.

    ``coalesce_window_ms`` / ``coalesce_max`` bound the HTTP front
    end's request coalescer (:mod:`repro.oracle.coalesce`): concurrent
    single queries park for at most the window (or until the size
    trigger fills a batch), then one vectorized gather answers all of
    them.
    """

    max_inflight: int = 64
    max_batch: int = 1_000_000
    max_body_bytes: int = 16 << 20
    default_timeout_ms: Optional[float] = None
    max_timeout_ms: float = 600_000.0
    batch_chunk: int = 8192
    retry_after_s: float = 1.0
    drain_timeout_s: float = 10.0
    coalesce_window_ms: float = 0.5
    coalesce_max: int = 512


DEFAULT_LIMITS = ServingLimits()
