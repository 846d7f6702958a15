"""The run harness: profile x driver -> one JSON report.

This is the llm-d-benchmark "launcher" equivalent for the oracle
serving stack: pick a named :class:`~repro.loadgen.profiles.WorkloadProfile`,
mount one or more artifacts behind the real HTTP front end (the same
:class:`~repro.oracle.AsyncOracleServer` ``repro serve`` runs), drive the
profile's deterministic request sequence with the matching driver, and
reduce the outcomes to the fixed metrics table
(:mod:`repro.loadgen.metrics`), annotated with the server's own
counters scraped from ``GET /info`` — coalescing stats, admission
admitted/rejected, engine query counts — so a report can be
cross-checked against what the server says happened (the chaos suite
asserts the two agree exactly).

The sweep axes come from the registries: profiles from
:func:`repro.loadgen.profiles.all_profiles`, variants from
:mod:`repro.variants` (:func:`sweepable_variants` lists every
oracle-buildable ``(variant, kind)`` — the same derivation the
benchmark plans use).

Entry points: :func:`run` (resolve the knobs, build or load the tenants,
run one profile) backs the ``repro loadgen`` CLI and the E21 benchmark;
:func:`run_profile` is the core over pre-built tenants the tests drive
directly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import variants
from ..graph import generators
from ..oracle import (
    DEFAULT_LIMITS,
    DistanceOracle,
    OracleClient,
    OracleRouter,
    ServingLimits,
    build_oracle,
    load_mount,
    start_async_server,
)
from ..telemetry import MetricsSnapshot, parse_exposition
from .drivers import run_closed_loop, run_open_loop
from .metrics import QueryOutcome, answers_digest, summarize
from .profiles import (
    LoadgenError,
    ProfileContext,
    get_profile,
)

__all__ = [
    "build_tenants",
    "load_mounts",
    "replay_digest",
    "run",
    "run_profile",
    "scrape_metrics",
    "sweepable_variants",
    "write_report",
]

#: Default knobs for a full run and the ``--quick`` smoke.
DEFAULTS = {
    "family": "er_sparse", "n": 256, "variant": "exact",
    "requests": 400, "concurrency": 16, "rate": 400.0,
}
QUICK = {
    "family": "er_sparse", "n": 96, "variant": "exact",
    "requests": 96, "concurrency": 8, "rate": 600.0,
}

#: Variants a multi-tenant run mounts when none are given explicitly:
#: one per artifact kind family, cheapest-to-build first.  Validated
#: against the registry at use (a renamed variant fails loudly here).
DEFAULT_TENANT_VARIANTS = ("exact", "tz", "near-additive")


def sweepable_variants() -> Tuple[Tuple[str, str], ...]:
    """Every oracle-buildable ``(variant, kind)`` pair, from the PR 5
    registry — the sweep axis that makes each serving variant
    loadgen-coverable without the harness naming any of them."""
    return tuple((s.name, s.kind) for s in variants.all_variants())


# ----------------------------------------------------------------------
# Tenants: build or load the mounted oracles
# ----------------------------------------------------------------------

def build_tenants(
    profile_name: str,
    family: str = DEFAULTS["family"],
    n: int = DEFAULTS["n"],
    variant: str = DEFAULTS["variant"],
    seed: int = 0,
) -> List[Tuple[str, DistanceOracle]]:
    """Build in-memory tenant oracles for one profile run: a single
    ``variant`` artifact normally, or one artifact per
    :data:`DEFAULT_TENANT_VARIANTS` entry (all over the *same* graph)
    when the profile needs multiple tenants."""
    profile = get_profile(profile_name)
    if profile.min_tenants > 1:
        names = DEFAULT_TENANT_VARIANTS
    else:
        names = (variant,)
    for name in names:
        variants.get_variant(name)  # unknown names fail before building
    g = generators.make_family(family, n, seed=seed)
    rng = np.random.default_rng(seed)
    return [
        (name, DistanceOracle(build_oracle(g, variant=name, rng=rng)))
        for name in names
    ]


def load_mounts(
    mounts: Sequence[Tuple], mmap: bool = False
) -> List[Tuple[str, DistanceOracle]]:
    """Load prebuilt artifacts from ``(name, path)`` /
    ``(name, path, options)`` mount tuples — the same shape
    ``repro serve --artifact`` parses, opened by the same
    :func:`~repro.oracle.load_mount`; ``name=None`` defaults to the
    manifest variant."""
    return [load_mount(item, mmap=mmap) for item in mounts]


# ----------------------------------------------------------------------
# Server scrapes
# ----------------------------------------------------------------------

def scrape_info(base_url: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """One ``GET /info`` snapshot (merged, all mounts)."""
    with OracleClient(base_url, max_attempts=1, timeout_s=timeout_s) as client:
        status, body = client.info()
    if status != 200:
        raise LoadgenError(f"GET /info returned {status}: {body}")
    return body


def scrape_metrics(base_url: str, timeout_s: float = 10.0) -> MetricsSnapshot:
    """One parsed ``GET /metrics`` snapshot (the registry is
    process-global, so loadgen scrapes *around* each run and reports the
    delta — a second run in the same process starts from the first's
    counters)."""
    with OracleClient(base_url, max_attempts=1, timeout_s=timeout_s) as client:
        return parse_exposition(client.metrics_text())


def _metrics_section(delta: MetricsSnapshot) -> Dict[str, object]:
    """The report's ``server.metrics`` block from a scrape-around
    delta: request counts by mount/status plus the server-side latency
    and stage histograms (cumulative buckets, exactly as exposed)."""
    requests_total: Dict[str, Dict[str, int]] = {}
    for labels, value in delta.samples.get("repro_requests_total", ()):
        if value:
            mount = labels.get("mount", "")
            requests_total.setdefault(mount, {})[
                labels.get("status", "")
            ] = int(value)
    deadline: Dict[str, int] = {}
    for labels, value in delta.samples.get(
        "repro_deadline_exceeded_total", ()
    ):
        if value:
            deadline[labels.get("mount", "")] = int(value)
    latency = {
        mount: delta.histogram("repro_request_duration_seconds", mount=mount)
        for mount in sorted(
            {
                labels.get("mount", "")
                for labels, _ in delta.samples.get(
                    "repro_request_duration_seconds_count", ()
                )
            }
        )
    }
    stages = {
        stage: delta.histogram("repro_stage_duration_seconds", stage=stage)
        for stage in sorted(
            {
                labels.get("stage", "")
                for labels, _ in delta.samples.get(
                    "repro_stage_duration_seconds_count", ()
                )
            }
        )
    }
    # Per-shard routed-query counts (present only when a sharded oracle
    # is mounted) — the zipf_hotspot imbalance report: a hot vertex
    # range shows up as one shard's count dwarfing the others.
    shard_queries: Dict[str, Dict[str, int]] = {}
    for labels, value in delta.samples.get("repro_shard_queries_total", ()):
        if value:
            mount = labels.get("mount", "")
            shard_queries.setdefault(mount, {})[
                labels.get("shard", "")
            ] = int(value)
    out = {
        "requests_total": requests_total,
        "deadline_exceeded_total": deadline,
        "request_duration_seconds": latency,
        "stage_duration_seconds": stages,
    }
    if shard_queries:
        out["shard_queries_total"] = {
            mount: dict(sorted(counts.items(), key=lambda kv: int(kv[0])))
            for mount, counts in shard_queries.items()
        }
    return out


def _server_section(info: Dict[str, object]) -> Dict[str, object]:
    """The report's ``server`` block: per-mount admission/engine/coalesce
    counters plus an aggregate coalescing rollup (sum over mounts)."""
    artifacts = info.get("artifacts", {})
    per_mount = {}
    agg = {"batches": 0, "coalesced": 0, "largest_batch": 0}
    any_coalescing = False
    for name, entry in artifacts.items():
        mount = {
            "serving": entry.get("serving"),
            "engine": entry.get("stats"),
        }
        coalescing = entry.get("coalescing")
        if coalescing is not None:
            any_coalescing = True
            mount["coalescing"] = coalescing
            agg["batches"] += int(coalescing.get("batches", 0))
            agg["coalesced"] += int(coalescing.get("coalesced", 0))
            agg["largest_batch"] = max(
                agg["largest_batch"], int(coalescing.get("largest_batch", 0))
            )
        per_mount[name] = mount
    section: Dict[str, object] = {
        "http": info.get("http"),
        "mounts": per_mount,
    }
    if any_coalescing:
        agg["mean_batch"] = (
            agg["coalesced"] / agg["batches"] if agg["batches"] else 0.0
        )
        section["coalescing"] = agg
    return section


# ----------------------------------------------------------------------
# Run one profile over pre-built tenants
# ----------------------------------------------------------------------

def run_profile(
    profile_name: str,
    oracles: Sequence[Tuple[str, DistanceOracle]],
    *,
    requests: int = DEFAULTS["requests"],
    concurrency: int = DEFAULTS["concurrency"],
    rate: float = DEFAULTS["rate"],
    seed: int = 0,
    driver: Optional[str] = None,
    params: Optional[Dict[str, object]] = None,
    limits: Optional[ServingLimits] = None,
    open_workers: Optional[int] = None,
    timeout_s: float = 30.0,
) -> Tuple[Dict[str, object], List[QueryOutcome]]:
    """Serve ``oracles`` over HTTP and drive one profile against them;
    returns ``(report, outcomes)``.

    The report is the per-run metrics block from
    :func:`repro.loadgen.metrics.summarize` plus run identity (profile,
    resolved params, seed, driver, tenants), driver stats, the scraped server
    counters, and the ordered-answers digest the fidelity check
    compares.  ``driver=None`` uses the profile's default; ``limits``
    defaults to the stock :data:`~repro.oracle.DEFAULT_LIMITS`.
    """
    profile = get_profile(profile_name)
    ctx = ProfileContext(
        tenants=tuple((name, o.n) for name, o in oracles),
        requests=int(requests),
        seed=int(seed),
    )
    resolved = profile.resolve_params(params, n=ctx.first_tenant[1])
    reqs = profile.build_requests(ctx, **resolved)
    drv = driver or profile.driver
    limits = limits or DEFAULT_LIMITS
    router = OracleRouter()
    for name, oracle in oracles:
        router.mount(name, oracle, limits=limits)
    handle = start_async_server(router, limits=limits)
    base = "http://%s:%s" % handle.server_address[:2]
    try:
        metrics_before = scrape_metrics(base)
        if drv == "closed":
            duration, outcomes, driver_stats = run_closed_loop(
                base, reqs, concurrency, timeout_s=timeout_s
            )
        elif drv == "open":
            offsets = profile.build_schedule(ctx, rate, **resolved)
            duration, outcomes, driver_stats = run_open_loop(
                base, reqs, offsets, workers=open_workers,
                timeout_s=timeout_s,
            )
        else:
            raise LoadgenError(
                f"unknown driver {drv!r}; expected 'closed' or 'open'"
            )
        info = scrape_info(base)
        metrics_after = scrape_metrics(base)
    finally:
        handle.drain_and_shutdown()
    server = _server_section(info)
    server["metrics"] = _metrics_section(metrics_after.delta(metrics_before))
    report = summarize(outcomes, duration)
    report.update({
        "profile": profile.name,
        "driver": drv,
        "seed": int(seed),
        "params": resolved,
        "tenants": [
            {"name": name, "variant": o.artifact.variant,
             "kind": o.kind, "n": o.n}
            for name, o in oracles
        ],
        "driver_stats": driver_stats,
        "server": server,
        "answers_digest": answers_digest(outcomes),
    })
    return report, outcomes


def replay_digest(
    profile_name: str,
    oracles: Sequence[Tuple[str, DistanceOracle]],
    *,
    requests: int,
    seed: int = 0,
    params: Optional[Dict[str, object]] = None,
) -> str:
    """The answers digest of the profile's seeded request sequence
    answered in-process by each tenant's ``query_batch`` — what a served
    :func:`run_profile` over the same tenants must reproduce bit for
    bit (no HTTP, no coalescer, no server)."""
    profile = get_profile(profile_name)
    ctx = ProfileContext(
        tenants=tuple((name, o.n) for name, o in oracles),
        requests=int(requests),
        seed=int(seed),
    )
    resolved = profile.resolve_params(params, n=ctx.first_tenant[1])
    engines = dict(oracles)
    outcomes = []
    for i, req in enumerate(profile.build_requests(ctx, **resolved)):
        if req.kind == "batch":
            pairs = np.asarray(req.payload["pairs"], dtype=np.int64)
            us, vs = pairs[:, 0], pairs[:, 1]
        else:
            us, vs = [req.payload["u"]], [req.payload["v"]]
        got = [
            float(x) if np.isfinite(x) else None
            for x in engines[req.tenant].query_batch(us, vs)
        ]
        outcomes.append(QueryOutcome(
            index=i, tenant=req.tenant, kind=req.kind, status=200,
            latency_ms=0.0, answer=got if req.kind == "batch" else got[0],
            pairs=req.pairs,
        ))
    return answers_digest(outcomes)


# ----------------------------------------------------------------------
# The CLI / benchmark entry point
# ----------------------------------------------------------------------

def run(
    profile_name: str,
    *,
    oracles: Optional[Sequence[Tuple[str, DistanceOracle]]] = None,
    mounts: Optional[Sequence[Tuple]] = None,
    family: Optional[str] = None,
    n: Optional[int] = None,
    variant: Optional[str] = None,
    seed: int = 0,
    requests: Optional[int] = None,
    concurrency: Optional[int] = None,
    rate: Optional[float] = None,
    driver: Optional[str] = None,
    params: Optional[Dict[str, object]] = None,
    limits: Optional[ServingLimits] = None,
    quick: bool = False,
    timeout_s: float = 30.0,
) -> Dict[str, object]:
    """One profile run, knobs resolved; returns the :func:`run_profile`
    report plus ``quick``.

    Tenant sources, in precedence order: ``oracles`` (pre-built
    engines), ``mounts`` (on-disk artifact mount tuples), else built
    from ``family``/``n``/``variant``.  Explicit knobs beat the
    ``quick``/full defaults.
    """
    base_knobs = QUICK if quick else DEFAULTS
    family = family or base_knobs["family"]
    n = n or base_knobs["n"]
    variant = variant or base_knobs["variant"]
    requests = requests or base_knobs["requests"]
    concurrency = concurrency or base_knobs["concurrency"]
    rate = rate or base_knobs["rate"]

    if oracles is None:
        if mounts:
            oracles = load_mounts(mounts)
        else:
            oracles = build_tenants(
                profile_name, family=family, n=n, variant=variant, seed=seed
            )

    report, _ = run_profile(
        profile_name, oracles,
        requests=requests, concurrency=concurrency, rate=rate,
        seed=seed, driver=driver, params=params, limits=limits,
        timeout_s=timeout_s,
    )
    report["quick"] = bool(quick)
    return report


def write_report(report: Dict[str, object], path: str) -> str:
    """Persist one report as JSON (the artifact CI and benchmarks
    consume); returns the path."""
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
