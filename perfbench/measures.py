"""Small measurement helpers: percentiles, memory, /metrics deltas, processes.

Everything here reads plain data (lists, ``/proc`` text, Prometheus
text exposition) so it is tested without a running server.  The
exposition is parsed here, not with the program's own parser, so a
change to that parser cannot change what the benchmark reads.
"""

from __future__ import annotations

import math
import os
import re
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "descendants",
    "histogram_delta",
    "latency_summary",
    "parse_histograms",
    "percentile",
    "pss_mb",
    "read_pss_kb",
    "shm_segments",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_ms: Sequence[float], tail: int = 99) -> Dict[str, float]:
    """Median and the ``tail`` percentile with the sample count, and how
    many samples lie beyond the tail percentile (a tail is only worth
    reporting with at least ten beyond it)."""
    n = len(latencies_ms)
    tail_ms = percentile(latencies_ms, float(tail))
    return {
        "count": n,
        "p50_ms": percentile(latencies_ms, 50.0),
        f"p{tail}_ms": tail_ms,
        "beyond_tail": sum(1 for x in latencies_ms if x > tail_ms),
        "mean_ms": sum(latencies_ms) / n,
    }


def read_pss_kb(smaps_rollup: str) -> int:
    """The ``Pss:`` line of a ``/proc/<pid>/smaps_rollup`` text, in kB."""
    for line in smaps_rollup.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss: line in smaps_rollup text")


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (via ``/proc/.../children``)."""
    out: List[int] = []
    stack = [pid]
    while stack:
        cur = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{cur}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{cur}/task/{tid}/children") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            stack.extend(kids)
    return out


def pss_mb(pids: Iterable[int]) -> float:
    """PSS summed over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            total_kb += read_pss_kb(fh.read())
    return total_kb / 1024.0


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments multiprocessing made."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_histograms(text: str) -> Dict[Tuple[str, Tuple], Tuple[float, float]]:
    """``(histogram name, labels without le) -> (sum, count)`` from a
    Prometheus text exposition."""
    out: Dict[Tuple[str, Tuple], List[float]] = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line.strip())
        if m is None:
            continue
        name, raw_labels, raw_value = m.groups()
        for suffix, slot in (("_sum", 0), ("_count", 1)):
            if name.endswith(suffix):
                labels = tuple(sorted(_LABEL.findall(raw_labels or "")))
                key = (name[: -len(suffix)], labels)
                out.setdefault(key, [0.0, 0.0])[slot] = float(raw_value)
    return {k: (v[0], v[1]) for k, v in out.items()}


def histogram_delta(
    before: str, after: str, name: str, **labels: str
) -> Tuple[float, float]:
    """``(sum, count)`` added to histogram ``name`` between two scrapes,
    over every child whose labels include ``labels``."""
    want = set(labels.items())
    a, b = parse_histograms(after), parse_histograms(before)
    d_sum = d_count = 0.0
    for key, (s, c) in a.items():
        if key[0] != name or not want <= set(key[1]):
            continue
        s0, c0 = b.get(key, (0.0, 0.0))
        d_sum += s - s0
        d_count += c - c0
    return d_sum, d_count
