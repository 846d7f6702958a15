"""Request coalescing: many parked single queries, one vectorized gather.

The engine answers *batched* gathers 45-244x faster than the same
queries issued one at a time (DESIGN.md §6) — but production traffic
arrives as independent single queries.  This module closes that gap
with the micro-batching trick inference servers use to saturate their
kernels: park concurrent single requests for a bounded window, answer
the accumulated batch with **one** :meth:`DistanceOracle.query_batch`
call, and fan the results back to each waiter.

:class:`QueryCoalescer` is deliberately thread-based, not
asyncio-native: waiters receive :class:`concurrent.futures.Future`
objects, so the coalescer is unit-testable without an event loop and
usable from any caller (the asyncio server bridges with
``asyncio.wrap_future``).  One daemon flusher thread per coalescer,
created when the HTTP front end attaches it to a mount — a service
used in-process never constructs one, so it pays nothing.

A parked batch flushes on the **first** of three triggers:

==========  ========================================================
trigger     fires when
==========  ========================================================
``window``  ``coalesce_window_ms`` elapsed since the batch opened
            (opened = the first query parked in an empty queue)
``size``    ``coalesce_max`` queries are parked — no reason to wait
``drain``   :meth:`close` was called (graceful shutdown flushes the
            queue instead of abandoning waiters)
==========  ========================================================

Failure semantics inside a flush mirror the per-request service paths:
a waiter whose deadline expired while parked gets
:class:`DeadlineExceeded` (→ 504) *individually*; a fault or engine
error during the gather is set on every parked future (→ per-request
500s); nothing is ever silently dropped.  The ``service.handle`` and
``coalesce.flush`` fault points fire in the flush worker — once per
flush, not per request — so an armed delay stalls the micro-batch the
way it would stall each member, without ever blocking the event loop.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

from ..telemetry import instruments as _instr
from .faults import FAULTS
from .resilience import Deadline

__all__ = ["CoalescerClosed", "QueryCoalescer"]


class CoalescerClosed(Exception):
    """Submitted to a coalescer that is draining for shutdown (the
    front end maps this to 503 + ``draining``)."""


class _Waiter:
    __slots__ = ("u", "v", "deadline", "future", "parked_at", "trace")

    def __init__(self, u: int, v: int, deadline: Optional[Deadline], trace=None):
        self.u = u
        self.v = v
        self.deadline = deadline
        self.future: "Future[float]" = Future()
        self.parked_at = time.perf_counter()
        self.trace = trace


def _settle(future: Future, *, result=None, error: Optional[BaseException] = None):
    """Set a waiter's outcome, tolerating an already-cancelled future
    (a waiter that gave up must not crash the flusher)."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except Exception:  # InvalidStateError: waiter cancelled; outcome dropped
        pass


class QueryCoalescer:
    """Parks single distance queries and answers them in micro-batches.

    One coalescer per mounted oracle.  ``submit`` is called from the
    front end (any thread, or an event loop — it never blocks beyond a
    lock); the returned future resolves to the float distance, or to
    the same typed exceptions the direct service path raises.
    """

    def __init__(self, oracle, window_ms: float = 0.5, max_batch: int = 512):
        if not window_ms >= 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.oracle = oracle
        self.window_s = float(window_ms) / 1000.0
        self.max_batch = int(max_batch)
        self._cond = threading.Condition()
        self._pending: List[_Waiter] = []
        self._opened_at: Optional[float] = None
        self._closed = False
        # stats (guarded by _cond's lock)
        self._batches = 0
        self._coalesced = 0
        self._largest_batch = 0
        self._flushes: Dict[str, int] = {"window": 0, "size": 0, "drain": 0}
        self._thread = threading.Thread(
            target=self._run, name="oracle-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        u: int,
        v: int,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> "Future[float]":
        """Park one ``dist(u, v)`` query; resolve via the next flush.

        ``trace`` (a :class:`~repro.telemetry.trace.RequestTrace`)
        gets ``park`` and ``gather`` spans recorded during the flush."""
        waiter = _Waiter(int(u), int(v), deadline, trace=trace)
        with self._cond:
            if self._closed:
                raise CoalescerClosed(
                    "server is draining for shutdown; query not accepted"
                )
            if not self._pending:
                self._opened_at = time.monotonic()
            self._pending.append(waiter)
            self._cond.notify_all()
        return waiter.future

    def close(self) -> None:
        """Stop accepting queries, flush anything parked (``drain``
        trigger), and join the flusher thread.  Idempotent."""
        with self._cond:
            if self._closed:
                thread = None
            else:
                self._closed = True
                thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def stats(self) -> Dict[str, object]:
        """Coalescing counters for ``/info``."""
        with self._cond:
            batches = self._batches
            coalesced = self._coalesced
            return {
                "batches": batches,
                "coalesced": coalesced,
                "mean_batch": (coalesced / batches) if batches else 0.0,
                "largest_batch": self._largest_batch,
                "flushes": dict(self._flushes),
                "pending": len(self._pending),
                "window_ms": self.window_s * 1000.0,
                "max_batch": self.max_batch,
            }

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                # A batch is open: wait out the window unless the size
                # trigger (or shutdown) fires first.
                flush_at = (self._opened_at or time.monotonic()) + self.window_s
                while (
                    len(self._pending) < self.max_batch
                    and not self._closed
                ):
                    left = flush_at - time.monotonic()
                    if left <= 0:
                        break
                    self._cond.wait(timeout=left)
                batch = self._pending
                self._pending = []
                self._opened_at = None
                if len(batch) >= self.max_batch:
                    reason = "size"
                elif self._closed:
                    reason = "drain"
                else:
                    reason = "window"
                self._batches += 1
                self._coalesced += len(batch)
                self._largest_batch = max(self._largest_batch, len(batch))
                self._flushes[reason] += 1
            self._flush(batch)

    def _flush(self, batch: List[_Waiter]) -> None:
        """Answer one parked batch: faults, per-waiter deadlines, one
        vectorized gather, fan-out.  Never raises.

        Telemetry: each waiter's ``park`` span is the flush start minus
        its submit time; the batch's single gather duration is recorded
        onto *every* member's trace (they shared it) and once into the
        stage histogram; batch sizes feed
        ``repro_coalesce_batch_size``."""
        flush_start = time.perf_counter()
        _instr.COALESCE_BATCH_SIZE.observe(len(batch))
        for w in batch:
            _instr.observe_stage(w.trace, "park", flush_start - w.parked_at)
        try:
            try:
                FAULTS.fire("service.handle")
                FAULTS.fire("coalesce.flush")
            except Exception as exc:
                for w in batch:
                    _settle(w.future, error=exc)
                return
            live: List[_Waiter] = []
            for w in batch:
                if w.deadline is not None and w.deadline.expired:
                    try:
                        w.deadline.check({"completed": 0, "total": 1})
                    except Exception as exc:  # DeadlineExceeded w/ progress
                        _settle(w.future, error=exc)
                        continue
                live.append(w)
            if not live:
                return
            gather_start = time.perf_counter()
            try:
                values = self.oracle.query_batch(
                    [w.u for w in live], [w.v for w in live]
                )
            except Exception as exc:
                for w in live:
                    _settle(w.future, error=exc)
                return
            finally:
                gather_s = time.perf_counter() - gather_start
                _instr.observe_stage(None, "gather", gather_s)
                for w in live:
                    if w.trace is not None:
                        w.trace.record("gather", gather_s)
            for w, value in zip(live, values):
                _settle(w.future, result=float(value))
        finally:
            _instr.observe_stage(
                None, "flush", time.perf_counter() - flush_start
            )
