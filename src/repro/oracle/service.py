"""The service front end: JSON request semantics + a stdlib HTTP server.

:class:`OracleService` is transport-agnostic — ``handle(request_dict)``
returns ``(status, response_dict)`` — so the same semantics back the CLI
(``repro query``, local or ``--url``), tests, and the HTTP endpoint
(``repro serve``).
:class:`OracleRouter` hosts **many** artifacts in one process: each
loaded artifact is mounted under a name, requests route per artifact
(HTTP ``POST /query/<name>``), unknown names 404 listing what is
mounted, and ``GET /info`` merges every artifact's manifest and serving
counters.  A mount takes no options: :func:`load_mount` opens each
artifact as it is stored — a sharded layout behind its worker pool, a
plain artifact with its ``estimates.npy`` memory-mapped.  A router
with a single artifact keeps the original single-oracle surface (bare
``POST /query`` works, ``/info`` carries the legacy top-level
``manifest``/``stats`` keys), so existing clients are unaffected.

Every request now runs through the resilience layer
(:mod:`repro.oracle.resilience`):

* **admission control** — each mounted service holds a bounded
  in-flight counter; over-limit requests get ``503`` with a
  ``retry_after`` hint (and HTTP ``Retry-After``) instead of queueing;
* **deadlines** — a request's ``timeout_ms`` (capped at the server
  max, defaulting to the server default) becomes a cooperative
  deadline; batched distance queries are answered ``batch_chunk`` pairs
  per vectorized pass with a deadline check between, so expiry returns
  ``504`` with partial-progress stats;
* **payload bounds** — batches beyond ``max_batch`` and HTTP bodies
  beyond ``max_body_bytes`` are rejected with ``413``;
* **graceful drain** — SIGTERM/SIGINT flips ``/healthz`` to
  ``{"ok": false, "draining": true}`` (load balancers eject the
  instance), new queries get ``503``, in-flight requests finish up to
  the drain deadline, then the process exits 0.

The HTTP front end is a stdlib asyncio server with keep-alive
(:class:`AsyncOracleServer`) that **coalesces** concurrent single
queries: requests park in a per-artifact
:class:`~repro.oracle.coalesce.QueryCoalescer`, flush on a bounded
window or a size trigger, and are answered by *one* vectorized
``query_batch`` gather run in a worker thread (the loop never blocks).
Explicit batches, certificates, paths and info bypass the coalescer
straight to a worker thread; ``/query`` and ``/stream`` share that one
submit path.  ``/info`` carries per-artifact ``coalescing`` counters.

Routes: ``POST /query[/<name>]`` with a JSON body, ``POST
/stream[/<name>]`` (newline-delimited JSON), ``GET /info[/<name>]``,
``GET /metrics`` and ``GET /healthz``.  Requests batch naturally:
a ``pairs`` list (or parallel ``us`` / ``vs`` arrays) is answered
chunk by chunk in vectorized engine passes.

JSON has no ``Infinity``, so unreachable distances serialize as
``null``; the response's ``unreachable`` count makes that explicit.
Errors are graceful and typed: malformed JSON, unknown ops, unknown
artifact names, out-of-range vertices, stale artifacts, corrupt
payloads, blown deadlines and shed load all produce a JSON ``"error"``
with a meaningful status (``4xx``/``409``/``413``/``503``/``504``)
instead of a traceback; a client that disconnects mid-response is
counted, not crashed on.  DESIGN.md §7 tabulates the full mapping.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from http.client import responses as _HTTP_REASONS
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .. import __version__
from ..telemetry import instruments as _instr
from ..telemetry.metrics import REGISTRY as _REGISTRY
from ..telemetry.logs import SERVING_LOGGER, level_for_status
from ..telemetry.trace import RequestTrace, clean_trace_id, new_trace_id
from .artifact import ArtifactCorrupt, ArtifactError, ArtifactMismatch
from .coalesce import CoalescerClosed, QueryCoalescer
from .engine import DistanceOracle
from .faults import FAULTS
from .resilience import (
    DEFAULT_LIMITS,
    AdmissionController,
    AdmissionRejected,
    Deadline,
    DeadlineExceeded,
    ServingLimits,
)
from .sharded import ShardedOracle, is_sharded_artifact

__all__ = [
    "AsyncOracleServer",
    "AsyncServerHandle",
    "OracleRouter",
    "OracleService",
    "load_mount",
    "serve",
    "start_async_server",
]

def _clean(value: float) -> Optional[float]:
    """JSON-safe distance: ``inf`` (unreachable) becomes ``null``."""
    return float(value) if np.isfinite(value) else None


_SERVING_LOG = logging.getLogger(SERVING_LOGGER)

#: The exposition content type scrapers expect from ``GET /metrics``.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


#: The ``frontend`` value of logs, ``/info`` ``http`` and the HTTP
#: metric labels: constant since the thread-per-connection front end
#: was retired, kept so existing scrapers and log queries still match.
_FRONTEND = "async"


def _log_request(
    mount: Optional[str],
    status: int,
    duration_s: float,
    trace: Optional[RequestTrace],
) -> None:
    """One structured record per finished request (2xx at ``debug``,
    4xx at ``info``, 5xx at ``warning`` — :mod:`repro.telemetry.logs`)."""
    level = level_for_status(status)
    if not _SERVING_LOG.isEnabledFor(level):
        return
    trace_id = trace.trace_id if trace is not None else "-"
    _SERVING_LOG.log(
        level,
        "query frontend=%s mount=%s status=%d duration_ms=%.3f trace_id=%s",
        _FRONTEND,
        mount or "-",
        status,
        duration_s * 1000.0,
        trace_id,
        extra={
            "event": "request",
            "frontend": _FRONTEND,
            "mount": mount or "",
            "status": status,
            "duration_ms": round(duration_s * 1000.0, 3),
            "trace_id": trace_id,
        },
    )


def _count_http_error(status: int) -> None:
    """Count a request rejected before it reached a mounted service."""
    _instr.HTTP_ERRORS.labels(_FRONTEND, str(status)).inc()


def _healthz(server) -> Tuple[int, Dict[str, object]]:
    """The `/healthz` body: liveness plus the
    basics an operator wants without grepping ``/info`` — version,
    uptime, and how many artifacts are mounted."""
    body: Dict[str, object] = {
        "ok": not server.draining,
        "version": __version__,
        "uptime_s": round(time.monotonic() - server.started_at, 3),
        "artifacts": len(server.router.names),
    }
    if server.draining:
        body["draining"] = True
        return 503, body
    return 200, body


def _register_server_metrics(started_at: float) -> None:
    """Register the per-process server gauges (idempotent)."""
    _instr.SERVER_INFO.labels(__version__).set_function(lambda: 1.0)
    _instr.UPTIME_SECONDS.set_function(
        lambda: time.monotonic() - started_at
    )


class OracleService:
    """JSON request/response semantics over a :class:`DistanceOracle`.

    Every front end answers through it: each HTTP mount holds one, and
    ``repro query --artifact`` sends a local one the dicts ``--url`` posts.

    ``limits`` bounds the request lifecycle (in-flight requests, batch
    size, deadlines); the default :data:`~repro.oracle.resilience.DEFAULT_LIMITS`
    keeps the historical behaviour for direct callers (no deadline
    unless the request asks for one, generous bounds).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        limits: Optional[ServingLimits] = None,
        name: str = "oracle",
    ):
        self.oracle = oracle
        self.limits = limits or DEFAULT_LIMITS
        self.name = name
        self.admission = AdmissionController(
            self.limits.max_inflight, retry_after=self.limits.retry_after_s
        )
        self.coalescer: Optional[QueryCoalescer] = None
        self._stats_lock = threading.Lock()
        self._deadline_exceeded = 0
        self._over_limit = 0
        # Metric children resolved once per mount (labels() is a dict
        # lookup under a lock — not something the hot path should redo).
        self._m_latency = _instr.REQUEST_SECONDS.labels(name)
        self._m_deadline = _instr.DEADLINE_EXCEEDED.labels(name)
        self._m_rejected = _instr.ADMISSION_REJECTED.labels(name)
        self._m_requests: Dict[int, object] = {}
        _instr.INFLIGHT.labels(name).set_function(
            lambda admission=self.admission: admission.inflight
        )

    def attach_coalescer(self) -> QueryCoalescer:
        """Create (once) the coalescer :meth:`submit_coalesced` parks
        queries in, bounded by ``limits.coalesce_window_ms`` /
        ``limits.coalesce_max``.  Only the HTTP front end calls this —
        a service used in-process pays nothing."""
        if self.coalescer is None:
            self.coalescer = QueryCoalescer(
                self.oracle,
                window_ms=self.limits.coalesce_window_ms,
                max_batch=self.limits.coalesce_max,
            )
        return self.coalescer

    # ------------------------------------------------------------------
    def handle(
        self, request: object, trace: Optional[RequestTrace] = None
    ) -> Tuple[int, Dict[str, object]]:
        """Answer one request dict; returns ``(status, response)``.

        Ops: ``distance`` (default; single ``u``/``v``, parallel
        ``us``/``vs`` arrays, or a ``pairs`` list), ``certificate``,
        ``path``, ``info``.  A numeric ``timeout_ms`` in the request
        arms a deadline (capped at the server max).  Every failure maps
        to a typed JSON error — never an exception out of this method.

        ``trace`` (attached by the HTTP front end) collects per-stage
        spans; a request with ``"debug": true`` gets it back in the
        response body.
        """
        start = time.perf_counter()
        status, body = self._handle_inner(request, trace)
        return self._finalize(status, body, trace, start)

    def _handle_inner(
        self, request: object, trace: Optional[RequestTrace]
    ) -> Tuple[int, Dict[str, object]]:
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            admit_start = time.perf_counter()
            with self.admission.admit():
                _instr.observe_stage(
                    trace, "admission", time.perf_counter() - admit_start
                )
                FAULTS.fire("service.handle")
                deadline = Deadline.resolve(
                    request.get("timeout_ms"),
                    self.limits.default_timeout_ms,
                    self.limits.max_timeout_ms,
                )
                return self._dispatch(request, deadline, trace)
        except Exception as exc:  # noqa: BLE001 — keep serving threads alive
            return self._error_response(exc)

    def _finalize(
        self,
        status: int,
        body: Dict[str, object],
        trace: Optional[RequestTrace],
        start: float,
    ) -> Tuple[int, Dict[str, object]]:
        """Count one finished request (the series the accounting
        identity reconciles) and attach the debug trace."""
        counter = self._m_requests.get(status)
        if counter is None:
            counter = self._m_requests[status] = _instr.REQUESTS.labels(
                self.name, str(status)
            )
        counter.inc()
        self._m_latency.observe(time.perf_counter() - start)
        if trace is not None and trace.debug and isinstance(body, dict):
            body["trace"] = trace.as_dict()
        return status, body

    def _error_response(self, exc: BaseException) -> Tuple[int, Dict[str, object]]:
        """The one failure→(status, body) mapping both request paths
        share (``handle`` and the coalesced path); DESIGN.md §7."""
        if isinstance(exc, AdmissionRejected):
            self._m_rejected.inc()
            return 503, {
                "error": str(exc),
                "retry_after": exc.retry_after,
                "inflight": exc.inflight,
            }
        if isinstance(exc, CoalescerClosed):
            return 503, {
                "error": str(exc),
                "draining": True,
                "retry_after": self.limits.retry_after_s,
            }
        if isinstance(exc, DeadlineExceeded):
            with self._stats_lock:
                self._deadline_exceeded += 1
            self._m_deadline.inc()
            body: Dict[str, object] = {
                "error": str(exc),
                "timeout_ms": exc.timeout_ms,
            }
            if exc.progress is not None:
                body["progress"] = exc.progress
            return 504, body
        if isinstance(exc, ArtifactMismatch):
            return 409, {"error": str(exc)}
        if isinstance(exc, ArtifactCorrupt):
            return 500, {"error": str(exc)}
        if isinstance(exc, (ArtifactError, IndexError, ValueError, TypeError)):
            return 400, {"error": str(exc)}
        return 500, {
            "error": f"internal error: {type(exc).__name__}: {exc}"
        }

    def submit_coalesced(
        self, request: object, trace: Optional[RequestTrace] = None
    ) -> "Future[Tuple[int, Dict[str, object]]]":
        """Answer one *single* distance request via the coalescer.

        The HTTP front end's fast path: the query parks in the
        coalescer (holding an admission slot — parked occupancy counts
        against ``max_inflight`` exactly like an in-flight thread) and
        the returned future resolves to the same ``(status, body)``
        ``handle`` would produce.  Never raises, never blocks beyond a
        lock; requires :meth:`attach_coalescer` first.

        ``trace`` rides into the parked waiter: the flush records its
        ``park`` and ``gather`` spans, and :meth:`_finalize` attaches
        the trace to a ``"debug": true`` response.
        """
        start = time.perf_counter()
        out: "Future[Tuple[int, Dict[str, object]]]" = Future()

        def _done(status: int, body: Dict[str, object]) -> None:
            out.set_result(self._finalize(status, body, trace, start))

        if not isinstance(request, dict):
            _done(400, {"error": "request body must be a JSON object"})
            return out
        slot = self.admission.admit()
        try:
            slot.__enter__()
        except AdmissionRejected as exc:
            _done(*self._error_response(exc))
            return out
        _instr.observe_stage(trace, "admission", time.perf_counter() - start)
        try:
            deadline = Deadline.resolve(
                request.get("timeout_ms"),
                self.limits.default_timeout_ms,
                self.limits.max_timeout_ms,
            )
            u, v = self._single_indices(request)
            # Validate the pair *before* parking: one bad vertex must
            # 400 that request alone, not poison the flushed batch.
            n = self.oracle.n
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"query vertex out of range for n={n}")
            parked = self.coalescer.submit(u, v, deadline, trace=trace)
        except Exception as exc:
            slot.__exit__(None, None, None)
            _done(*self._error_response(exc))
            return out

        def _finish(done: "Future[float]") -> None:
            try:
                try:
                    value = done.result()
                except Exception as exc:  # noqa: BLE001 — typed mapping
                    result = self._error_response(exc)
                else:
                    result = (
                        200,
                        {"u": u, "v": v, "distance": _clean(value)},
                    )
            finally:
                slot.__exit__(None, None, None)
            _done(*result)

        parked.add_done_callback(_finish)
        return out

    def _dispatch(self, request, deadline, trace=None):
        op = request.get("op", "distance")
        if op == "distance":
            # Batched distances check the deadline between chunks (the
            # 504 carries partial-progress stats), so no entry check.
            return self._distance(request, deadline, trace)
        if deadline is not None:
            deadline.check()
        if op == "certificate":
            return self._certificate(request)
        if op == "path":
            return self._path(request)
        if op == "info":
            return 200, self.info()
        return 400, {
            "error": f"unknown op {op!r}; expected one of "
            "'distance', 'certificate', 'path', 'info'"
        }

    def info(self) -> Dict[str, object]:
        """Manifest plus live serving counters."""
        with self._stats_lock:
            resilience = {
                "deadline_exceeded": self._deadline_exceeded,
                "over_limit": self._over_limit,
            }
        resilience.update(self.admission.stats())
        body: Dict[str, object] = {
            "manifest": dict(self.oracle.artifact.manifest),
            "stats": self.oracle.stats(),
            "serving": resilience,
        }
        if self.coalescer is not None:
            body["coalescing"] = self.coalescer.stats()
        return body

    # ------------------------------------------------------------------
    def _batch_indices(self, request):
        """Extract (us, vs) from ``pairs`` or ``us``/``vs``; None for a
        single-query request."""
        if "pairs" in request:
            pairs = np.asarray(request["pairs"], dtype=np.int64)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError("'pairs' must be a list of [u, v] pairs")
            return pairs[:, 0], pairs[:, 1]
        if "us" in request or "vs" in request:
            us = np.asarray(request.get("us", ()), dtype=np.int64)
            vs = np.asarray(request.get("vs", ()), dtype=np.int64)
            if us.shape != vs.shape:
                raise ValueError("'us' and 'vs' must have the same length")
            return us, vs
        return None

    def _single_indices(self, request) -> Tuple[int, int]:
        if "u" not in request or "v" not in request:
            raise ValueError("query needs 'u' and 'v' (or 'pairs'/'us'+'vs')")
        return int(request["u"]), int(request["v"])

    def _distance(self, request, deadline=None, trace=None):
        batch = self._batch_indices(request)
        if batch is not None:
            us, vs = batch
            if us.size > self.limits.max_batch:
                with self._stats_lock:
                    self._over_limit += 1
                return 413, {
                    "error": f"batch of {us.size} pairs exceeds this "
                    f"server's max_batch={self.limits.max_batch}; split "
                    "the request",
                    "max_batch": self.limits.max_batch,
                }
            values = np.empty(us.size, dtype=np.float64)
            chunk = max(1, int(self.limits.batch_chunk))
            completed = 0
            gather_start = time.perf_counter()
            try:
                for start in range(0, int(us.size), chunk):
                    if deadline is not None:
                        deadline.check(
                            {"completed": completed, "total": int(us.size)}
                        )
                    end = min(start + chunk, int(us.size))
                    values[start:end] = self.oracle.query_batch(
                        us[start:end], vs[start:end]
                    )
                    completed = end
            finally:
                _instr.observe_stage(
                    trace, "gather", time.perf_counter() - gather_start
                )
            return 200, {
                "distances": [_clean(x) for x in values],
                "count": int(values.size),
                "unreachable": int(np.sum(~np.isfinite(values))),
            }
        u, v = self._single_indices(request)
        if deadline is not None:
            deadline.check()
        gather_start = time.perf_counter()
        value = self.oracle.query(u, v)
        _instr.observe_stage(
            trace, "gather", time.perf_counter() - gather_start
        )
        return 200, {"u": u, "v": v, "distance": _clean(value)}

    def _certificate(self, request):
        u, v = self._single_indices(request)
        cert = self.oracle.certificate(u, v)
        return 200, {
            "u": cert.u,
            "v": cert.v,
            "estimate": _clean(cert.estimate),
            "multiplicative": cert.multiplicative,
            "additive": cert.additive,
            "lower_bound": _clean(cert.lower_bound),
            "upper_bound": _clean(cert.upper_bound),
            "witness": cert.witness,
        }

    def _path(self, request):
        u, v = self._single_indices(request)
        path = self.oracle.path(u, v)
        return 200, {
            "u": u,
            "v": v,
            "path": path,
            "hops": (len(path) - 1) if path is not None else None,
        }


# ----------------------------------------------------------------------
# Multi-artifact routing
# ----------------------------------------------------------------------

def load_mount(item: Tuple) -> Tuple[str, DistanceOracle]:
    """Open one ``(name, path)`` mount and return ``(mount_name,
    oracle)`` — the one loader behind :meth:`OracleRouter.load` and
    :func:`repro.loadgen.load_mounts`.

    ``name=None`` defaults to the artifact's manifest ``variant``.  The
    artifact decides how it is opened: a path holding the sharded layout
    (:func:`~repro.oracle.sharded.is_sharded_artifact`) opens as a
    :class:`~repro.oracle.sharded.ShardedOracle`, any other as a
    :class:`DistanceOracle`."""
    name, path = item
    opener = ShardedOracle if is_sharded_artifact(path) else DistanceOracle
    oracle = opener.load(path)
    return name or oracle.artifact.variant, oracle


class OracleRouter:
    """Serve many named artifacts from one process.

    Each mounted artifact gets its own :class:`OracleService`;
    ``handle(request, name=...)`` routes to it.  With a single mounted
    artifact the name may be omitted (the original one-oracle surface);
    with several, an omitted or unknown name fails gracefully listing
    what is mounted.
    """

    def __init__(self):
        self._services: "OrderedDict[str, OracleService]" = OrderedDict()

    # ------------------------------------------------------------------
    def mount(
        self,
        name: str,
        oracle: DistanceOracle,
        limits: Optional[ServingLimits] = None,
    ) -> None:
        """Mount one oracle under ``name`` (a URL path segment); an
        oracle with per-mount metric series (a sharded one) is labeled
        with that name."""
        if not name or "/" in name:
            raise ArtifactError(
                f"artifact name {name!r} is not a valid route segment"
            )
        if name in self._services:
            raise ArtifactError(
                f"artifact name {name!r} is already mounted; names must "
                "be unique (use --artifact NAME=PATH to disambiguate)"
            )
        set_mount = getattr(oracle, "set_mount", None)
        if set_mount is not None:
            set_mount(name)
        self._services[name] = OracleService(oracle, limits=limits, name=name)

    @classmethod
    def load(
        cls,
        artifacts: Iterable[Tuple],
        limits: Optional[ServingLimits] = None,
    ) -> "OracleRouter":
        """Build a router from ``(name, path)`` tuples, each opened by
        :func:`load_mount` (duplicate names fail loudly — name them
        explicitly).  ``limits`` apply to every mount."""
        router = cls()
        for item in artifacts:
            name, oracle = load_mount(item)
            router.mount(name, oracle, limits=limits)
        return router

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._services)

    def service(self, name: str) -> Optional[OracleService]:
        return self._services.get(name)

    def services(self) -> Tuple[OracleService, ...]:
        """Every mounted service (the drain loop walks these)."""
        return tuple(self._services.values())

    def close(self) -> None:
        """Release mount resources — today that means stopping sharded
        oracles' worker pools (idempotent; plain mounts are no-ops)."""
        for svc in self._services.values():
            close = getattr(svc.oracle, "close", None)
            if close is not None:
                close()

    def _resolve(
        self, name: Optional[str]
    ) -> Tuple[Optional[OracleService], int, Dict[str, object]]:
        mounted = ", ".join(self.names) or "(none)"
        if name is None:
            if len(self._services) == 1:
                return next(iter(self._services.values())), 200, {}
            return None, 400, {
                "error": "this server hosts multiple artifacts; query "
                f"/query/<name> with one of: {mounted}",
                "artifacts": list(self.names),
            }
        svc = self._services.get(name)
        if svc is None:
            return None, 404, {
                "error": f"unknown artifact {name!r}; mounted: {mounted}",
                "artifacts": list(self.names),
            }
        return svc, 200, {}

    def handle(
        self,
        request: object,
        name: Optional[str] = None,
        trace: Optional[RequestTrace] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """Route one request dict to a mounted artifact's service."""
        svc, status, err = self._resolve(name)
        if svc is None:
            return status, err
        return svc.handle(request, trace)

    def info(
        self, name: Optional[str] = None
    ) -> Tuple[int, Dict[str, object]]:
        """Merged `/info`: every artifact's manifest + counters.

        A single-artifact router also carries the legacy top-level
        ``manifest``/``stats`` keys so one-oracle clients keep working.
        ``name`` selects one artifact's info (`/info/<name>`).
        """
        if name is not None:
            svc, status, err = self._resolve(name)
            if svc is None:
                return status, err
            return 200, svc.info()
        merged: Dict[str, object] = {
            "artifacts": {n: s.info() for n, s in self._services.items()},
            "count": len(self._services),
        }
        if len(self._services) == 1:
            merged.update(next(iter(self._services.values())).info())
        return 200, merged


def _split_route(path: str, prefix: str) -> Tuple[bool, Optional[str]]:
    """Match ``/prefix`` or ``/prefix/<name>``; returns (matched, name)."""
    if path == prefix:
        return True, None
    if path.startswith(prefix + "/"):
        name = path[len(prefix) + 1:]
        if name and "/" not in name:
            return True, name
    return False, None


# ----------------------------------------------------------------------
# Async front end: keep-alive + request coalescing (stdlib asyncio)
# ----------------------------------------------------------------------

#: Most header lines one request may carry (the ``http.client`` limit
#: the stdlib server enforces); more is a 431.
_MAX_HEADERS = 100

#: The asyncio stream reader's line limit (``asyncio.start_server``'s
#: default): a longer request, header or ``/stream`` line is refused.
_STREAM_LINE_LIMIT = 1 << 16


class _HeadRejected(Exception):
    """A request head refused before routing: ``status`` is the typed
    reply, ``headers`` what was parsed so far (for ``X-Request-Id``)."""

    def __init__(self, status: int, message: str, headers: Dict[str, str]):
        super().__init__(message)
        self.status = status
        self.headers = headers


async def _read_head(
    reader,
) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
    """Read one request head: ``(method, path, version, headers)`` with
    lower-cased header names, or None on EOF before a request line.

    Raises :class:`_HeadRejected` for the framing the stdlib server also
    refuses: a request line over the reader's line limit (414), one
    that is not ``METHOD PATH VERSION`` (400), a header line over the
    limit or more than :data:`_MAX_HEADERS` headers (431)."""
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _HeadRejected(414, "request line too long", {})
        if not line:
            return None
        if line not in (b"\r\n", b"\n"):
            break
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HeadRejected(400, "malformed HTTP request line", {})
    headers: Dict[str, str] = {}
    count = 0
    while True:
        try:
            hline = await reader.readline()
        except ValueError:
            raise _HeadRejected(431, "request header line too long", headers)
        if hline in (b"\r\n", b"\n", b""):
            break
        count += 1
        if count > _MAX_HEADERS:
            raise _HeadRejected(
                431, f"more than {_MAX_HEADERS} request headers", headers
            )
        key, _, val = hline.decode("latin-1").partition(":")
        headers[key.strip().lower()] = val.strip()
    return parts[0], parts[1], parts[2], headers


def _request_id(headers: Dict[str, str]) -> str:
    """The client's clean ``X-Request-Id``, else a fresh one."""
    return clean_trace_id(headers.get("x-request-id")) or new_trace_id()


async def _lingering_close(reader, writer, timeout: float = 1.0) -> None:
    """Half-close, then discard what the client is still sending (up to
    EOF or ``timeout``) so closing does not reset the connection — a
    reset can destroy the reply before the client has read it."""
    if writer.can_write_eof():
        writer.write_eof()

    async def _discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(_discard(), timeout)
    except (asyncio.TimeoutError, ConnectionError):
        pass


class AsyncOracleServer:
    """An asyncio HTTP/1.1 server that coalesces single queries.

    Connections are keep-alive (HTTP/1.0 clients must ask for it), and
    concurrent single distance queries park in each mounted service's
    :class:`~repro.oracle.coalesce.QueryCoalescer`, so a burst of N
    singles costs *one* vectorized gather instead of N engine calls.
    Everything else (explicit batches, certificates, paths, info ops)
    runs in a small worker-thread pool so the event loop never blocks
    on engine work.

    Construct, then ``await start()`` on a running loop (or use
    :func:`start_async_server` for a background-thread harness, or
    :func:`serve` for the CLI foreground path).
    """

    def __init__(
        self,
        router: OracleRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[ServingLimits] = None,
    ):
        self.router = router
        self.host = host
        self.port = port
        self.limits = limits or DEFAULT_LIMITS
        self.draining = False
        self.started_at = time.monotonic()
        self.server_address: Tuple[str, int] = (host, port)
        self._lock = threading.Lock()
        self._disconnects = 0
        self._drain_started = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopped: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    def count_disconnect(self) -> None:
        """Record a client that vanished mid-response."""
        with self._lock:
            self._disconnects += 1
        _instr.CLIENT_DISCONNECTS.labels(_FRONTEND).inc()

    def http_stats(self) -> Dict[str, object]:
        """Transport-level counters (merged into ``GET /info``)."""
        with self._lock:
            return {
                "frontend": _FRONTEND,
                "client_disconnects": self._disconnects,
                "draining": self.draining,
            }

    # ------------------------------------------------------------------
    async def start(self) -> "AsyncOracleServer":
        """Bind the listening socket, attach coalescers, spin up (and
        pre-warm) the worker pool."""
        self._loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        _register_server_metrics(self.started_at)
        workers = 4
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="oracle-async"
        )
        # Pre-warm every pool thread now so the process thread count is
        # stable before the first request (the chaos suite snapshots a
        # thread-count baseline and asserts serving returns to it).
        barrier = threading.Barrier(workers + 1)
        warm = [self._executor.submit(barrier.wait, 5) for _ in range(workers)]
        barrier.wait(5)
        for fut in warm:
            fut.result()
        for svc in self.router.services():
            svc.attach_coalescer()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=_STREAM_LINE_LIMIT,
            # Deep accept backlog: load shedding is admission control's
            # job (observable 503s + /info counters), not the kernel's.
            backlog=128,
        )
        self.server_address = self._server.sockets[0].getsockname()[:2]
        return self

    async def wait_stopped(self) -> None:
        """Block until :meth:`drain` has completed."""
        await self._stopped.wait()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """The graceful exit: stop accepting, flush every coalescer
        (parked queries are *answered*, not abandoned), wait out
        in-flight work up to ``timeout`` (default
        ``limits.drain_timeout_s``), then close lingering keep-alive
        connections.  Idempotent; True when everything finished in
        budget."""
        with self._lock:
            already = self._drain_started
            self._drain_started = True
            self.draining = True
        if already:
            await self._stopped.wait()
            return True
        timeout = self.limits.drain_timeout_s if timeout is None else timeout
        end = time.monotonic() + timeout
        # The listener stays open while draining — late arrivals get a
        # *told* rejection (503 + Retry-After, ``/healthz`` flips) rather
        # than a connection refusal; ``_dispatch`` checks
        # ``self.draining``.
        # Coalescer close joins its flusher thread — run it (and the
        # admission waits) in the pool so parked waiters' responses can
        # still be written by the loop while we wait.
        for svc in self.router.services():
            if svc.coalescer is not None:
                await self._loop.run_in_executor(
                    self._executor, svc.coalescer.close
                )
        drained = True
        for svc in self.router.services():
            remaining = max(0.0, end - time.monotonic())
            drained = (
                await self._loop.run_in_executor(
                    self._executor, svc.admission.drain, remaining
                )
                and drained
            )
        # In-flight responses have their slots released just before the
        # write lands on the loop — give those writes a beat, then stop
        # accepting and close idle keep-alive readers so their
        # coroutines wind down.
        await asyncio.sleep(0.05)
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        self._stopped.set()
        return drained

    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    head = await _read_head(reader)
                except _HeadRejected as exc:
                    _count_http_error(exc.status)
                    await self._write(
                        writer, exc.status, {"error": str(exc)},
                        (("X-Request-Id", _request_id(exc.headers)),),
                        keep=False,
                    )
                    break
                if head is None:
                    break
                method, path, version, headers = head
                stream_matched, stream_name = _split_route(path, "/stream")
                if method == "POST" and stream_matched:
                    # The connection becomes a long-lived ndjson duplex
                    # channel; the response is unframed, so the
                    # connection is spent when the stream ends.
                    await self._serve_stream(
                        reader, writer, stream_name, headers
                    )
                    break
                connection = headers.get("connection", "").lower()
                if version == "HTTP/1.0":
                    want_close = "keep-alive" not in connection
                else:
                    want_close = "close" in connection
                status, body, extra, must_close = await self._dispatch(
                    method, path, headers, reader
                )
                keep = not want_close and not must_close
                await self._write(writer, status, body, extra, keep=keep)
                if not keep:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.count_disconnect()
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — already-gone transport
                pass

    async def _serve_stream(
        self, reader, writer, name: Optional[str], headers: Dict[str, str]
    ) -> None:
        """``POST /stream[/<name>]``: a long-lived newline-delimited
        JSON channel feeding the mount's coalescer directly.

        Each request line is one JSON object (the same shapes ``/query``
        accepts); each response line is the matching JSON body, extended
        with ``"status"``, written back **in request order**.  Single
        distance queries park in the coalescer exactly like concurrent
        ``/query`` posts — a pipelined client burst coalesces into one
        vectorized gather without per-request HTTP framing.  A blank
        line (or EOF) ends the stream; the response is unframed ndjson
        under ``Connection: close``, so the connection is spent.  A line
        over the reader's 64 KiB line limit is answered in order with a
        ``413`` line carrying the stream's ``X-Request-Id`` (counted in
        ``repro_http_errors_total``), and ends the stream.
        """
        request_id = _request_id(headers)
        id_header = (("X-Request-Id", request_id),)
        if self.draining:
            await self._write(
                writer, *self._draining_reply(id_header), keep=False
            )
            return
        svc, status, err = self._resolve(name)
        if svc is None:
            await self._write(writer, status, err, id_header, keep=False)
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            + f"X-Request-Id: {request_id}\r\n".encode("latin-1")
            + b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        # Responses keep request order: line n's future is awaited and
        # written before line n+1's — but later lines have usually
        # already been *submitted* (the read loop runs ahead of the
        # writer), which is exactly what lets a burst park together in
        # the coalescer and flush as one gather.  The read-ahead is
        # bounded: parked queries hold admission slots, so an unbounded
        # stream would shed its own tail with 503s — instead the reader
        # stops consuming lines until responses drain (TCP-style
        # backpressure, felt by the client as a stalling send).
        queue: "asyncio.Queue" = asyncio.Queue()
        window = asyncio.Semaphore(
            max(1, self.limits.max_inflight // 2)
        )

        async def _drain_responses() -> None:
            while True:
                fut = await queue.get()
                if fut is None:
                    break
                status, body = await fut
                window.release()
                body = dict(body)
                body["status"] = status
                writer.write((json.dumps(body) + "\n").encode())
                await writer.drain()

        drain_task = asyncio.create_task(_drain_responses())
        overlong = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The rest of an overlong line cannot be resynced
                    # with, so its typed reply is the stream's last.
                    overlong = True
                    _count_http_error(413)
                    await window.acquire()
                    await queue.put(self._answered(413, {
                        "error": "stream line exceeds the "
                        f"{_STREAM_LINE_LIMIT}-byte line limit; send "
                        "large batches as POST /query",
                        "max_line_bytes": _STREAM_LINE_LIMIT,
                        "request_id": request_id,
                    }))
                    break
                if not line or line in (b"\r\n", b"\n"):
                    break
                await window.acquire()
                try:
                    request = json.loads(line)
                except (ValueError, json.JSONDecodeError) as exc:
                    await queue.put(self._answered(
                        400, {"error": f"malformed JSON request: {exc}"}
                    ))
                    continue
                await queue.put(self._submit(svc, request))
        finally:
            await queue.put(None)
            await drain_task
        if overlong:
            await _lingering_close(reader, writer)

    def _answered(self, status: int, body: Dict[str, object]):
        """A resolved future carrying an in-stream reply."""
        done: "asyncio.Future" = self._loop.create_future()
        done.set_result((status, body))
        return done

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], reader
    ) -> Tuple[int, Dict[str, object], Tuple, bool]:
        """Answer one parsed request; returns
        ``(status, body, extra_headers, must_close)`` — ``must_close``
        marks responses sent without reading the request body."""
        if method == "GET":
            if path == "/healthz":
                status, body = _healthz(self)
                return status, body, (), False
            if path == "/metrics":
                return 200, _REGISTRY.render(), (), False
            matched, name = _split_route(path, "/info")
            if matched:
                status, body = self.router.info(name)
                if status == 200 and name is None:
                    body["http"] = self.http_stats()
                return status, body, (), False
            return 404, {"error": f"unknown path {path!r}"}, (), False
        if method != "POST":
            return 501, {"error": f"unsupported method {method!r}"}, (), True
        start = time.perf_counter()
        request_id = _request_id(headers)
        id_header = (("X-Request-Id", request_id),)
        matched, name = _split_route(path, "/query")
        if not matched:
            _count_http_error(404)
            return 404, {"error": f"unknown path {path!r}"}, id_header, True
        if self.draining:
            return (*self._draining_reply(id_header), True)
        raw_length = headers.get("content-length")
        if raw_length is None:
            _count_http_error(411)
            return 411, {
                "error": "Content-Length header is required"
            }, id_header, True
        # ASCII digits only: int() would also take "+16", "1_6" and
        # non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            _count_http_error(400)
            return 400, {
                "error": f"malformed Content-Length {raw_length!r}"
            }, id_header, True
        length = int(raw_length)
        if length == 0:
            _count_http_error(400)
            return 400, {
                "error": f"Content-Length must be positive, got "
                f"{length} (send a JSON object body)"
            }, id_header, True
        if length > self.limits.max_body_bytes:
            _count_http_error(413)
            return 413, {
                "error": f"request body of {length} bytes exceeds "
                f"this server's max_body_bytes="
                f"{self.limits.max_body_bytes}",
                "max_body_bytes": self.limits.max_body_bytes,
            }, id_header, True
        raw = await reader.readexactly(length)
        try:
            request = json.loads(raw)
        except (ValueError, json.JSONDecodeError) as exc:
            _count_http_error(400)
            return 400, {
                "error": f"malformed JSON request: {exc}"
            }, id_header, False
        trace = RequestTrace(
            trace_id=request_id,
            debug=isinstance(request, dict) and request.get("debug") is True,
        )
        _instr.observe_stage(trace, "parse", time.perf_counter() - start)
        svc, status, err = self._resolve(name)
        if svc is None:
            return status, err, id_header, False
        status, body = await self._submit(svc, request, trace)
        extra: Tuple = id_header
        if status == 503 and "retry_after" in body:
            extra = (
                ("Retry-After", f"{float(body['retry_after']):g}"),
            ) + extra
        _log_request(svc.name, status, time.perf_counter() - start, trace)
        return status, body, extra, False

    def _draining_reply(self, id_header: Tuple) -> Tuple[int, Dict, Tuple]:
        """``(status, body, headers)`` of the counted 503 every POST
        route sends while the server drains."""
        retry = self.limits.retry_after_s
        _count_http_error(503)
        return 503, {
            "error": "server is draining for shutdown; retry "
            "against another instance",
            "draining": True,
            "retry_after": retry,
        }, (("Retry-After", f"{retry:g}"),) + id_header

    def _resolve(self, name: Optional[str]):
        """The router's mount lookup, counting a miss as an HTTP error."""
        svc, status, err = self.router._resolve(name)
        if svc is None:
            _count_http_error(status)
        return svc, status, err

    def _submit(self, svc: OracleService, request: object, trace=None):
        """Start answering one parsed request: an awaitable of ``(status,
        body)``.  Single distance queries park in the coalescer; the rest
        go straight to a worker thread (an explicit batch is already
        vectorized, so the coalescer would only add latency)."""
        coalescable = (
            isinstance(request, dict)
            and request.get("op", "distance") == "distance"
            and "pairs" not in request
            and "us" not in request
            and "vs" not in request
            and "u" in request
            and "v" in request
        )
        if coalescable:
            return asyncio.wrap_future(svc.submit_coalesced(request, trace))
        return self._loop.run_in_executor(
            self._executor, svc.handle, request, trace
        )

    async def _write(
        self, writer, status: int, body: Union[Dict[str, object], str],
        extra: Tuple, keep: bool,
    ) -> None:
        if isinstance(body, str):
            # A preformatted text body (the /metrics exposition).
            payload = body.encode()
            content_type = _METRICS_CONTENT_TYPE
        else:
            serialize_start = time.perf_counter()
            payload = json.dumps(body).encode()
            _instr.observe_stage(
                None, "serialize", time.perf_counter() - serialize_start
            )
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        head.extend(f"{key}: {value}" for key, value in extra)
        head.append("Connection: keep-alive" if keep else "Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()


class AsyncServerHandle:
    """An :class:`AsyncOracleServer` hosted on a background event-loop
    thread, driven synchronously (``server_address``, ``draining``,
    ``http_stats``, ``drain_and_shutdown``) by tests, benchmarks and the
    load harness."""

    def __init__(self, server: AsyncOracleServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def router(self) -> OracleRouter:
        return self.server.router

    @property
    def limits(self) -> ServingLimits:
        return self.server.limits

    @property
    def server_address(self) -> Tuple[str, int]:
        return self.server.server_address

    @property
    def draining(self) -> bool:
        return self.server.draining

    def http_stats(self) -> Dict[str, object]:
        return self.server.http_stats()

    def drain_and_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain on the loop, then tear everything down: worker pool,
        event loop, loop thread.  Thread count returns to baseline.
        Idempotent — a second call after shutdown reports True."""
        if self._thread is None:
            return True
        drained = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        ).result()
        self.close()
        return drained

    def close(self) -> None:
        """Stop the loop thread and the worker pool (idempotent)."""
        if self._thread is None:
            return
        if self.server._executor is not None:
            self.server._executor.shutdown(wait=True)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._thread = None
        self.server.router.close()


def start_async_server(
    oracle: Union[DistanceOracle, OracleRouter],
    host: str = "127.0.0.1",
    port: int = 0,
    limits: Optional[ServingLimits] = None,
) -> AsyncServerHandle:
    """Start the HTTP front end on a background event-loop thread and
    return its :class:`AsyncServerHandle` (``port=0`` picks a free
    port).  The foreground CLI path is :func:`serve`."""
    if isinstance(oracle, OracleRouter):
        router = oracle
    else:
        router = OracleRouter()
        router.mount(oracle.artifact.variant, oracle, limits=limits)
    server = AsyncOracleServer(router, host=host, port=port, limits=limits)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="oracle-async-loop", daemon=True
    )
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
    return AsyncServerHandle(server, loop, thread)


def _announce(router: OracleRouter, base: str) -> None:
    """The startup lines (smoke tests parse the ``healthz`` line for the
    bound address)."""
    for name in router.names:
        oracle = router.service(name).oracle
        print(
            f"serving {name!r}: variant={oracle.artifact.variant} "
            f"(n={oracle.n}, kind={oracle.kind}) at {base}/query/{name}"
        )
    if len(router.names) == 1:
        print(f"single artifact: bare {base}/query also routes to it")
    print(f"GET {base}/info (merged), GET {base}/healthz", flush=True)


def serve(
    artifacts: Union[str, Sequence[Tuple]],
    host: str = "127.0.0.1",
    port: int = 8080,
    limits: Optional[ServingLimits] = None,
    install_signal_handlers: bool = True,
) -> None:
    """Load one or many artifacts and serve them forever on an
    :class:`AsyncOracleServer` (the ``repro serve`` body).

    ``artifacts`` is a single artifact-directory path, or a sequence of
    ``(name, path)`` tuples (``name=None`` defaults to the manifest
    variant) for multi-artifact routing.

    SIGTERM/SIGINT (when handlers can be installed — main thread only)
    triggers the graceful drain: ``/healthz`` flips to draining, new
    queries are shed with ``503``, in-flight requests finish up to
    ``limits.drain_timeout_s``, and the function returns (exit 0).
    """
    if isinstance(artifacts, str):
        artifacts = [(None, artifacts)]
    router = OracleRouter.load(artifacts, limits=limits)

    async def _run() -> None:
        server = AsyncOracleServer(router, host=host, port=port, limits=limits)
        await server.start()
        bound_host, bound_port = server.server_address
        _announce(router, f"http://{bound_host}:{bound_port}")
        if (
            install_signal_handlers
            and threading.current_thread() is threading.main_thread()
        ):
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.drain())
                )
        await server.wait_stopped()
        server._executor.shutdown(wait=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        return
    finally:
        router.close()
    # wait_stopped only returns after a completed drain.
    print("drained in-flight requests; shutting down")
