"""End-to-end telemetry for the serving and preprocessing stacks.

Four small, stdlib-only layers (DESIGN.md §9):

* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms with a Prometheus text ``render()`` and a strict
  ``parse_exposition()``; collection is always on;
* :mod:`repro.telemetry.instruments` — the serving stack's fixed metric
  table (every name/label/bucket contract in one place);
* :mod:`repro.telemetry.trace` — per-request ``X-Request-Id`` traces
  with per-stage span timings;
* :mod:`repro.telemetry.logs` — structured (JSON or text) request
  logging behind ``repro serve --log-format/--log-level``;
* :mod:`repro.telemetry.profiling` — build-phase wall-clock profiling
  keyed to the round ledger's phase names (``repro build-oracle
  --profile``).
"""

from . import instruments, logs, metrics, profiling, trace
from .logs import JsonFormatter, configure_logging
from .metrics import (
    REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    parse_exposition,
)
from .profiling import BuildProfiler, profile_build
from .trace import RequestTrace, clean_trace_id, new_trace_id

__all__ = [
    "BuildProfiler",
    "JsonFormatter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "RequestTrace",
    "clean_trace_id",
    "configure_logging",
    "instruments",
    "logs",
    "metrics",
    "new_trace_id",
    "parse_exposition",
    "profile_build",
    "profiling",
    "trace",
]
