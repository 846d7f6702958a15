"""The serving layer: preprocess once, answer millions of queries.

Every algorithm module in this library is one-shot — build, verify,
print, exit.  This package turns the expensive Dory–Parter preprocessing
(emulator + ``(1+eps, beta)`` estimates, Thm 29/32; classic Thorup–Zwick
bunches, Appendix A) into a persistent *artifact* behind a query front
end, the preprocess/query split production distance services amortize:

* :mod:`repro.oracle.artifact` — versioned on-disk snapshots (npz +
  memory-mapped ``estimates.npy`` + JSON manifest: variant, schema-validated
  parameter echo, stretch guarantee, round-ledger totals, graph hash)
  with :func:`save_artifact` / :func:`load_artifact` round-tripping any
  variant registered in :mod:`repro.variants`;
* :mod:`repro.oracle.engine` — :class:`DistanceOracle`: vectorized
  batched distance / path queries answered from the artifact through the
  kernel layer (a single query is a one-pair batch), with per-query
  stretch certificates;
* :mod:`repro.oracle.service` — :class:`OracleService` (JSON
  request/response semantics), :class:`OracleRouter` (many named
  artifacts served from one process with per-artifact routing and a
  merged ``/info``; :func:`load_mount` opens every mount), and the
  stdlib asyncio HTTP front end
  (:class:`AsyncOracleServer`, ``repro serve``), no new dependencies;
* :mod:`repro.oracle.coalesce` — :class:`QueryCoalescer`: the HTTP
  front end's micro-batcher that turns bursts of concurrent single
  queries into one vectorized ``query_batch`` gather (the engine's
  measured 45-244x batch advantage, DESIGN.md §6, applied to
  single-query traffic);
* :mod:`repro.oracle.sharded` — the scale-out layer: a sharded on-disk
  layout partitioning bunch arcs by vertex range (written shard-at-a-
  time, so a ``tz`` build at ``n = 10^5+`` never holds the whole
  relation), and :class:`ShardedOracle` routing batched queries by
  vertex id to per-shard forked workers, bit-identical to the
  single-process engine (DESIGN.md §10).

The serving stack is failure-aware end to end: crash-safe checksummed
artifact writes (:mod:`repro.oracle.artifact`), per-request deadlines,
admission control and graceful drain (:mod:`repro.oracle.resilience` +
:mod:`repro.oracle.service`), a retrying client
(:mod:`repro.oracle.client`), and a fault-injection harness
(:mod:`repro.oracle.faults`) whose chaos suite drives the real HTTP
server through every failure mode.  DESIGN.md §7 tabulates the failure
semantics.

DESIGN.md §6 documents the artifact format and query semantics, and
the measured single-vs-batched serving throughput.
"""

from .artifact import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMismatch,
    FORMAT_VERSION,
    OracleArtifact,
    build_oracle,
    graph_fingerprint,
    load_artifact,
    save_artifact,
)
from .client import ClientRetriesExhausted, OracleClient, OracleClientError
from .coalesce import CoalescerClosed, QueryCoalescer
from .engine import DistanceOracle, QueryCertificate
from .faults import FAULTS, FaultInjector, InjectedFault
from .resilience import (
    DEFAULT_LIMITS,
    AdmissionController,
    AdmissionRejected,
    Deadline,
    DeadlineExceeded,
    ServingLimits,
)
from .sharded import (
    ShardedOracle,
    build_sharded_oracle,
    is_sharded_artifact,
    load_sharded_artifact,
    save_sharded_artifact,
)
from .service import (
    AsyncOracleServer,
    AsyncServerHandle,
    OracleRouter,
    OracleService,
    load_mount,
    serve,
    start_async_server,
)


__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactMismatch",
    "AsyncOracleServer",
    "AsyncServerHandle",
    "ClientRetriesExhausted",
    "CoalescerClosed",
    "DEFAULT_LIMITS",
    "Deadline",
    "DeadlineExceeded",
    "DistanceOracle",
    "FAULTS",
    "FORMAT_VERSION",
    "FaultInjector",
    "InjectedFault",
    "OracleArtifact",
    "OracleClient",
    "OracleClientError",
    "OracleRouter",
    "OracleService",
    "QueryCertificate",
    "QueryCoalescer",
    "ServingLimits",
    "build_oracle",
    "graph_fingerprint",
    "load_artifact",
    "load_mount",
    "save_artifact",
    "serve",
    "start_async_server",
]
