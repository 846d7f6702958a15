"""A low-overhead metrics registry with Prometheus text exposition.

The serving stack counts what it does — requests by status, latency
histograms, stage timings — through process-global instruments that a
``GET /metrics`` endpoint renders in the Prometheus text exposition
format (version 0.0.4), so any standard scraper (or ``curl``) can watch
a live server.

Collection is always on: every instrumented call site records
unconditionally, so a scrape reflects the process from its first
request, whether or not a server was ever started in it.  The hot-path
discipline is to resolve label children once (``labels()`` takes a
lock and a dict lookup) and keep the handle; ``inc``/``observe`` on a
child is one lock and an add (``tests/test_telemetry.py`` guards the
registry against per-request growth with ``tracemalloc``).

Three instrument kinds, all label-aware and thread-safe:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — settable (``set``/``inc``/``dec``) or function-backed
  (``set_function`` — evaluated at render time, so e.g. an in-flight
  gauge reads the live admission controller instead of shadowing it);
* :class:`Histogram` — fixed cumulative ``le`` buckets plus ``_sum`` and
  ``_count``.

Instruments are **get-or-create by name** on the global
:data:`REGISTRY`: two modules asking for the same metric get the same
object (mismatched label names or bucket bounds fail loudly), which is
how the service layer, the coalescer, and the engine share one fixed
metric table (:mod:`repro.telemetry.instruments`).

:func:`parse_exposition` is the inverse of :meth:`MetricsRegistry.render`
— a strict parser used by the load harness (scrape before/after a run,
embed the server-side delta next to client-side percentiles), the CI
metrics smoke leg, and the reconciliation tests.  It rejects malformed
lines instead of skipping them, so it doubles as a format lint.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "parse_exposition",
]

#: Latency buckets (seconds) shared by the request/stage histograms:
#: 0.5 ms resolution at the fast end (coalesced singles land ~1 ms),
#: 10 s at the slow end (a blown drain budget is off the scale anyway).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labelnames: Sequence[str]) -> Tuple[str, ...]:
    labelnames = tuple(labelnames)
    for label in labelnames:
        if not _LABEL_RE.match(label) or label == "le":
            raise ValueError(f"invalid label name {label!r}")
    return labelnames


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Format a sample value: integers stay integral, inf is ``+Inf``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


# ----------------------------------------------------------------------
# Instrument children (one per label-value combination)
# ----------------------------------------------------------------------

class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_function")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._function = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn) -> None:
        """Back this gauge by a callable evaluated at render time."""
        with self._lock:
            self._function = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._function
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 — a dead callback renders 0, not 500
            return 0.0

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _HistogramChild:
    __slots__ = ("_lock", "_buckets", "_counts", "_sum")

    def __init__(self, buckets: Tuple[float, ...]):
        self._lock = threading.Lock()
        self._buckets = buckets
        # One slot per finite bucket plus the +Inf overflow slot; render
        # cumulates, so observe stays O(log buckets).
        self._counts = [0] * (len(buckets) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self._buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    def snapshot(self) -> Dict[str, object]:
        """Cumulative bucket counts keyed by ``le`` (as rendered)."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
        out: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self._buckets, counts):
            running += count
            out[_fmt(bound)] = running
        out["+Inf"] = running + counts[-1]
        return {"buckets": out, "sum": total_sum, "count": out["+Inf"]}

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._buckets) + 1)
            self._sum = 0.0


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

class _Instrument:
    """Shared label-child bookkeeping for every instrument kind."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]):
        self.name = _check_name(name)
        self.help = str(help_text)
        self.labelnames = _check_labels(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, *values) -> object:
        """The child for one label-value combination (created on first
        use; cached, so repeated lookups return the same object)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def _default(self):
        return self._children[()]

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child._reset()


class Counter(_Instrument):
    kind = "counter"

    def _make_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Label-less convenience; labeled counters use ``labels()``."""
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def render(self) -> List[str]:
        return [
            f"{self.name}{_labels_text(self.labelnames, key)} "
            f"{_fmt(child.value)}"
            for key, child in self.children()
        ]


class Gauge(_Instrument):
    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set_function(self, fn) -> None:
        self._default().set_function(fn)

    @property
    def value(self) -> float:
        return self._default().value

    def render(self) -> List[str]:
        return [
            f"{self.name}{_labels_text(self.labelnames, key)} "
            f"{_fmt(child.value)}"
            for key, child in self.children()
        ]


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        buckets = tuple(float(b) for b in buckets)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram buckets must be strictly increasing, "
                f"got {buckets!r}"
            )
        if math.inf in buckets:
            buckets = buckets[:-1]  # +Inf is implicit
        self.buckets = buckets
        super().__init__(name, help_text, labelnames)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def snapshot(self) -> Dict[str, object]:
        return self._default().snapshot()

    def render(self) -> List[str]:
        lines: List[str] = []
        for key, child in self.children():
            snap = child.snapshot()
            for le, count in snap["buckets"].items():
                labels = _labels_text(
                    self.labelnames + ("le",), key + (le,)
                )
                lines.append(f"{self.name}_bucket{labels} {count}")
            base = _labels_text(self.labelnames, key)
            lines.append(f"{self.name}_sum{base} {_fmt(snap['sum'])}")
            lines.append(f"{self.name}_count{base} {snap['count']}")
        return lines


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics
    and a text-exposition renderer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Instrument]" = {}

    # -- get-or-create ------------------------------------------------
    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                if kwargs.get("buckets") is not None and tuple(
                    float(b) for b in kwargs["buckets"]
                ) != existing.buckets:
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        f"buckets {existing.buckets}"
                    )
                return existing
            if cls is Histogram:
                metric = cls(
                    name, help_text,
                    buckets=kwargs.get("buckets") or DEFAULT_LATENCY_BUCKETS,
                    labelnames=labelnames,
                )
            else:
                metric = cls(name, help_text, labelnames)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # -- output -------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of every
        registered instrument."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument in place (instrument and child
        *objects* survive — call sites hold references to them)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)


#: The process-global registry every instrument lives in.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Exposition parsing (the scrape side: loadgen, CI lint, tests)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (NaN|[+-]Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)$"
)
_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|histogram|summary|untyped)$"
)


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


class MetricsSnapshot:
    """A parsed exposition: sample lookup, aggregation, and deltas.

    ``samples`` maps metric name → list of ``(labels_dict, value)``;
    histogram series appear under their ``_bucket``/``_sum``/``_count``
    sample names, exactly as exposed.
    """

    def __init__(
        self,
        samples: Dict[str, List[Tuple[Dict[str, str], float]]],
        types: Dict[str, str],
    ):
        self.samples = samples
        self.types = types

    def value(self, name: str, **labels: str) -> float:
        """The one sample matching ``labels`` exactly (0.0 if absent)."""
        for sample_labels, value in self.samples.get(name, ()):
            if sample_labels == labels:
                return value
        return 0.0

    def total(self, name: str, **labels: str) -> float:
        """Sum of every sample whose labels *include* ``labels``."""
        out = 0.0
        for sample_labels, value in self.samples.get(name, ()):
            if all(sample_labels.get(k) == v for k, v in labels.items()):
                out += value
        return out

    def histogram(self, name: str, **labels: str) -> Dict[str, object]:
        """Aggregate a histogram over children matching ``labels``:
        ``{"buckets": {le: cumulative}, "sum": float, "count": int}``."""
        buckets: Dict[str, float] = {}
        for sample_labels, value in self.samples.get(name + "_bucket", ()):
            if all(sample_labels.get(k) == v for k, v in labels.items()):
                le = sample_labels.get("le", "+Inf")
                buckets[le] = buckets.get(le, 0.0) + value
        return {
            "buckets": {le: int(v) for le, v in buckets.items()},
            "sum": self.total(name + "_sum", **labels),
            "count": int(self.total(name + "_count", **labels)),
        }

    def delta(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self - before``, sample by sample (for scrape-around-a-run
        accounting; samples absent from ``before`` count from zero)."""
        out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
        for name, samples in self.samples.items():
            rows: List[Tuple[Dict[str, str], float]] = []
            for labels, value in samples:
                rows.append((dict(labels), value - before.value(name, **labels)))
            out[name] = rows
        return MetricsSnapshot(out, dict(self.types))


def parse_exposition(text: str) -> MetricsSnapshot:
    """Parse (and lint) a Prometheus text exposition.

    Strict by design: any line that is not a comment, blank, or a
    well-formed sample raises ``ValueError`` naming the offending line —
    the CI smoke leg uses this as the format check.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    types: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            if match:
                types[match.group(1)] = match.group(2)
            elif not line.startswith("# HELP "):
                raise ValueError(
                    f"line {lineno}: malformed comment line {line!r}"
                )
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels = {
            key: _unescape(val)
            for key, val in _PAIR_RE.findall(raw_labels or "")
        }
        samples.setdefault(name, []).append((labels, _parse_value(raw_value)))
    return MetricsSnapshot(samples, types)
