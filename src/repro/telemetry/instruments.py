"""The serving stack's fixed metric table (DESIGN.md §9).

Every metric the stack exposes is declared here, once — the service
layer, the coalescer, the engine, and the HTTP front end import these
handles instead of re-registering by name, so the name/label/bucket
contract lives in one place.  The ``frontend`` label is constant
(``"async"``, the only front end); it stays so existing scrapers keep
matching.

=============================================  =======================
metric                                         labels
=============================================  =======================
``repro_server_info``                          ``version``
``repro_uptime_seconds``                       —
``repro_requests_total``                       ``mount``, ``status``
``repro_request_duration_seconds``             ``mount``
``repro_stage_duration_seconds``               ``stage``
``repro_deadline_exceeded_total``              ``mount``
``repro_admission_rejected_total``             ``mount``
``repro_inflight_requests``                    ``mount``
``repro_coalesce_batch_size``                  —
``repro_engine_gather_seconds``                —
``repro_shard_queries_total``                  ``mount``, ``shard``
``repro_shard_gather_seconds``                 ``mount``, ``shard``
``repro_shard_up``                             ``mount``, ``shard``
``repro_http_errors_total``                    ``frontend``, ``status``
``repro_client_disconnects_total``             ``frontend``
=============================================  =======================

The three ``repro_shard_*`` series come from sharded oracles, labeled
with the mount name :meth:`~repro.oracle.OracleRouter.mount` gives
them: ``repro_shard_queries_total`` counts queries *routed* to each
shard (every query counts once, on the shard that owns its source
``u`` — a cross-shard bunch pair too, since that shard reads ``B(v)``
itself — so the series sums to the queries answered and shows the
per-shard load the loadgen ``zipf_hotspot`` imbalance report
scrapes), ``repro_shard_gather_seconds``
times each shard's own share of a batched answer (pool: from the
round's send to that shard's reply; serial: that shard's backend loop;
a round without a gather, such as ``worker_stats()``, observes
nothing), and
``repro_shard_up`` reads the oracle at scrape time: 1 while the shard
is served by a live pool worker, 0 after the supervision ladder
degrades it to in-process serial or the oracle is closed.

``repro_requests_total`` counts every request that *reached a mounted
service* (one increment per finished request, coalesced or not) —
that is the series the loadgen accounting identity reconciles against.
Failures that never reach a mount (unknown route/artifact, body-size
rejections, malformed JSON, draining shed) count in
``repro_http_errors_total`` instead, labeled by front end.

Stage names observed into ``repro_stage_duration_seconds``: ``parse``,
``admission``, ``park``, ``flush``, ``gather``, ``serialize``.
"""

from __future__ import annotations

from .metrics import DEFAULT_LATENCY_BUCKETS, REGISTRY

__all__ = [
    "ADMISSION_REJECTED",
    "CLIENT_DISCONNECTS",
    "COALESCE_BATCH_SIZE",
    "DEADLINE_EXCEEDED",
    "ENGINE_GATHER_SECONDS",
    "HTTP_ERRORS",
    "INFLIGHT",
    "REQUESTS",
    "REQUEST_SECONDS",
    "SERVER_INFO",
    "SHARD_GATHER_SECONDS",
    "SHARD_QUERIES",
    "SHARD_UP",
    "STAGE_SECONDS",
    "UPTIME_SECONDS",
    "observe_stage",
]

#: Coalesced-batch sizes are powers of two up to the default
#: ``coalesce_max`` (512); a fuller bucket means the size trigger fired.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

SERVER_INFO = REGISTRY.gauge(
    "repro_server_info",
    "Constant 1, labeled with the serving package version.",
    ("version",),
)
UPTIME_SECONDS = REGISTRY.gauge(
    "repro_uptime_seconds",
    "Seconds since this server process started serving.",
)
REQUESTS = REGISTRY.counter(
    "repro_requests_total",
    "Requests finished by a mounted service, by mount and HTTP status.",
    ("mount", "status"),
)
REQUEST_SECONDS = REGISTRY.histogram(
    "repro_request_duration_seconds",
    "Service-side request latency (admission through response body).",
    DEFAULT_LATENCY_BUCKETS,
    ("mount",),
)
STAGE_SECONDS = REGISTRY.histogram(
    "repro_stage_duration_seconds",
    "Per-stage latency: parse, admission, park, flush, gather, serialize.",
    DEFAULT_LATENCY_BUCKETS,
    ("stage",),
)
DEADLINE_EXCEEDED = REGISTRY.counter(
    "repro_deadline_exceeded_total",
    "Requests that blew their deadline (504 with partial progress).",
    ("mount",),
)
ADMISSION_REJECTED = REGISTRY.counter(
    "repro_admission_rejected_total",
    "Requests shed at the admission door (503 + Retry-After).",
    ("mount",),
)
INFLIGHT = REGISTRY.gauge(
    "repro_inflight_requests",
    "Live in-flight requests per mount (reads the admission controller).",
    ("mount",),
)
COALESCE_BATCH_SIZE = REGISTRY.histogram(
    "repro_coalesce_batch_size",
    "Parked queries answered per coalesced flush.",
    BATCH_SIZE_BUCKETS,
)
ENGINE_GATHER_SECONDS = REGISTRY.histogram(
    "repro_engine_gather_seconds",
    "Wall time of one vectorized DistanceOracle.query_batch gather.",
)
SHARD_QUERIES = REGISTRY.counter(
    "repro_shard_queries_total",
    "Queries routed to each shard of a sharded oracle (every query "
    "counts once, on the shard that owns its source u).",
    ("mount", "shard"),
)
SHARD_GATHER_SECONDS = REGISTRY.histogram(
    "repro_shard_gather_seconds",
    "Wall time of one shard's own share of a batched answer: from the "
    "round's send to that shard's reply in pool mode, that shard's "
    "backend loop in serial mode; rounds with no gather (worker_stats) "
    "are not observed.",
    DEFAULT_LATENCY_BUCKETS,
    ("mount", "shard"),
)
SHARD_UP = REGISTRY.gauge(
    "repro_shard_up",
    "1 while the shard is served by a live pool worker, 0 once "
    "supervision degraded it to in-process serial or the oracle was "
    "closed.",
    ("mount", "shard"),
)
HTTP_ERRORS = REGISTRY.counter(
    "repro_http_errors_total",
    "Requests rejected before reaching a mounted service (bad route, "
    "bad request head or body, unknown artifact, draining), by status "
    "(the frontend label is always async).",
    ("frontend", "status"),
)
CLIENT_DISCONNECTS = REGISTRY.counter(
    "repro_client_disconnects_total",
    "Clients that vanished mid-response (the frontend label is always "
    "async).",
    ("frontend",),
)


#: Stage-histogram children resolved once per stage name —
#: ``labels()`` is a lock + dict lookup, too much for every span on the
#: hot path.  ``REGISTRY.reset()`` zeroes children in place, so cached
#: handles stay valid.
_STAGE_CHILDREN: dict = {}


def observe_stage(trace, stage: str, seconds: float) -> None:
    """Record one stage span into the stage histogram and, when the
    front end attached one, onto the request's trace."""
    if trace is not None:
        trace.record(stage, seconds)
    child = _STAGE_CHILDREN.get(stage)
    if child is None:
        child = _STAGE_CHILDREN[stage] = STAGE_SECONDS.labels(stage)
    child.observe(seconds)
