"""Declarative load generation for the oracle serving stack.

Modeled on llm-d-benchmark's three-axis design — named **workload
profiles** x pluggable **load drivers** x a fixed **metrics table** per
run — applied to the Dory–Parter distance-oracle servers (PR 6/7):

* :mod:`repro.loadgen.profiles` — :class:`WorkloadProfile` registry.
  Five named profiles: ``uniform_random``, ``zipf_hotspot`` (tunable
  skew over a hot vertex set), ``batch_single_mix``,
  ``multi_tenant`` (several mounted artifacts), ``burst``
  (admission-control stress).  Request sequences and arrival schedules
  are pure functions of ``(profile, params, seed, tenants)`` — never of
  the front end or the clock — so a seeded run is replayable
  bit-for-bit.
* :mod:`repro.loadgen.drivers` — closed-loop fixed-concurrency clients
  and open-loop scheduled arrivals (Poisson or burst packets), both on
  the keep-alive :class:`~repro.oracle.client.OracleClient` with
  retries disabled so failures are observed, not masked.
* :mod:`repro.loadgen.metrics` — per-run report: p50/p95/p99/max/mean
  latency, q/s, failure rate by status code, duration, and an
  ordered-answers digest for fidelity checks.
* :mod:`repro.loadgen.harness` — ties them together behind the real
  HTTP front end (the server ``repro serve`` runs) and scrapes its own
  ``/info`` counters into the report.

Entry points: ``repro loadgen --profile NAME`` (CLI) and the
verification suite in ``tests/test_loadgen.py``, which also sweeps
every profile in quick mode.  DESIGN.md §8 documents the profile and
metrics schemas.
"""

from .drivers import run_closed_loop, run_open_loop
from .harness import (
    DEFAULT_TENANT_VARIANTS,
    DEFAULTS,
    QUICK,
    build_tenants,
    load_mounts,
    replay_digest,
    run,
    run_profile,
    scrape_info,
    scrape_metrics,
    write_report,
)
from .metrics import (
    QueryOutcome,
    answers_digest,
    latency_summary,
    percentile,
    summarize,
)
from .profiles import (
    DRIVERS,
    LoadgenError,
    ProfileContext,
    ProfileParamError,
    Request,
    UnknownProfileError,
    WorkloadProfile,
    all_profiles,
    get_profile,
    poisson_schedule,
    profile_names,
    register_profile,
    uniform_pairs,
    zipf_pairs,
    zipf_probabilities,
)

__all__ = [
    "DEFAULTS",
    "DEFAULT_TENANT_VARIANTS",
    "DRIVERS",
    "LoadgenError",
    "ProfileContext",
    "ProfileParamError",
    "QUICK",
    "QueryOutcome",
    "Request",
    "UnknownProfileError",
    "WorkloadProfile",
    "all_profiles",
    "answers_digest",
    "build_tenants",
    "get_profile",
    "latency_summary",
    "load_mounts",
    "percentile",
    "poisson_schedule",
    "profile_names",
    "register_profile",
    "replay_digest",
    "run",
    "run_closed_loop",
    "run_open_loop",
    "run_profile",
    "scrape_info",
    "scrape_metrics",
    "summarize",
    "uniform_pairs",
    "write_report",
    "zipf_pairs",
    "zipf_probabilities",
]
