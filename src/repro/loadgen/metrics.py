"""Per-run metrics for the load harness: percentiles, q/s, failure rate.

One run of a workload profile produces a list of :class:`QueryOutcome`
records — one per HTTP request the driver issued.  This module reduces
that list to the fixed metrics table every report carries (modeled on
llm-d-benchmark's run.md table: throughput, latency percentiles,
failure rate, duration):

=============  =====================================================
field          meaning
=============  =====================================================
``qps``        completed (2xx) requests per second of wall clock
``query_qps``  answered *queries* per second — batch requests count
               each member pair, so a ``batch_single_mix`` run's
               engine-level throughput is visible
``latency_ms`` ``p50`` / ``p95`` / ``p99`` / ``max`` / ``mean`` over
               the **successful** requests' finite latencies
``failures``   count + rate + per-status breakdown (transport errors
               that never got a status line bucket under ``"error"``)
``duration_s`` wall-clock span of the driven run
=============  =====================================================

The accounting contract (the chaos suite asserts it against the
server's own ``/info`` counters): **every issued request lands in
exactly one bucket** — a 200 contributes a latency sample, anything
else contributes to exactly one ``by_status`` entry — so
``ok + failures.total == requests`` always, and an infinite or
timed-out latency is *excluded from the percentiles but still counted
in the failure rate* (a request that never completed has no latency,
but it absolutely failed).

:func:`percentile` implements numpy's default linear interpolation by
hand; the unit suite cross-checks it against ``numpy.percentile`` on
random samples, so the report's numbers mean exactly what a numpy
user expects without the report path depending on how a future numpy
changes its default ``method=``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "QueryOutcome",
    "answers_digest",
    "latency_summary",
    "percentile",
    "summarize",
]

#: Percentiles every report carries (llm-d-style fixed table).
REPORT_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass
class QueryOutcome:
    """What happened to one issued request.

    ``status`` is the HTTP status, or ``None`` when the request died in
    transport (connection refused/reset, client timeout) and no status
    line was ever read.  ``latency_ms`` is ``math.inf`` in that case —
    infinite latencies are excluded from the percentile summary but the
    outcome still counts as a failure.  ``answer`` holds the served
    distance(s) (``None`` distances are JSON's unreachable/inf) so runs
    can be compared bit-for-bit across runs; ``pairs`` is how many
    (u, v) queries the request carried (1 for a single, the batch length
    for an explicit batch).
    """

    index: int
    tenant: Optional[str] = None
    kind: str = "single"  # "single" | "batch"
    status: Optional[int] = None
    latency_ms: float = math.inf
    answer: object = None
    pairs: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def status_key(self) -> str:
        """The failure-breakdown bucket: the status code as a string,
        or ``"error"`` for a transport-level death."""
        return "error" if self.status is None else str(self.status)


# ----------------------------------------------------------------------
# Percentile math
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``values`` under linear interpolation
    (numpy's default method), or ``None`` for an empty sample.

    With ``n`` sorted samples the rank is ``h = (n - 1) * q / 100`` and
    the result interpolates between the samples at ``floor(h)`` and
    ``ceil(h)`` — so a single sample answers every ``q`` with itself,
    and ``q=100`` is the max.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    data = sorted(float(v) for v in values)
    if not data:
        return None
    h = (len(data) - 1) * q / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (h - lo)


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, object]:
    """The fixed latency block: count, p50/p95/p99, max, mean.

    Non-finite samples (a timed-out request's ``inf``) are dropped
    before summarizing; an empty (or all-infinite) sample reports
    ``count=0`` with ``None`` percentiles rather than NaNs, so a JSON
    consumer can distinguish "no data" from "zero latency".
    """
    finite = [float(x) for x in latencies_ms if math.isfinite(x)]
    summary: Dict[str, object] = {"count": len(finite)}
    for q in REPORT_PERCENTILES:
        summary[f"p{q:g}"] = percentile(finite, q)
    summary["max"] = max(finite) if finite else None
    summary["mean"] = (sum(finite) / len(finite)) if finite else None
    return summary


# ----------------------------------------------------------------------
# Run summary
# ----------------------------------------------------------------------

def summarize(
    outcomes: Sequence[QueryOutcome], duration_s: float
) -> Dict[str, object]:
    """Reduce one driven run to the report's metrics block.

    Invariants (asserted by the unit suite and relied on by the chaos
    accounting test): ``ok + failures.total == requests``;
    ``sum(failures.by_status.values()) == failures.total``; latency
    percentiles are computed over successful requests' finite latencies
    only.
    """
    total = len(outcomes)
    ok = [o for o in outcomes if o.ok]
    failed = [o for o in outcomes if not o.ok]
    by_status = Counter(o.status_key for o in failed)
    queries_ok = sum(o.pairs for o in ok)
    duration_s = float(duration_s)
    rate = (len(ok) / duration_s) if duration_s > 0 else 0.0
    return {
        "requests": total,
        "ok": len(ok),
        "queries_ok": queries_ok,
        "duration_s": duration_s,
        "qps": rate,
        "query_qps": (queries_ok / duration_s) if duration_s > 0 else 0.0,
        "latency_ms": latency_summary([o.latency_ms for o in ok]),
        "failures": {
            "total": len(failed),
            "rate": (len(failed) / total) if total else 0.0,
            "by_status": dict(sorted(by_status.items())),
        },
    }


def answers_digest(outcomes: Sequence[QueryOutcome]) -> str:
    """SHA-256 over the ordered (status, answer) sequence.

    The request sequence for a seeded profile is identical across runs
    and mounts, so equal digests mean the two runs returned
    **bit-identical answers query by query** — the fidelity checks
    (served vs in-process replay, sharded vs plain mount) compare
    exactly this.
    """
    canon: List[Tuple] = [
        (o.index, o.status_key, o.answer)
        for o in sorted(outcomes, key=lambda o: o.index)
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
