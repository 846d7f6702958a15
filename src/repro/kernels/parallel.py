"""Shard layout and pool settings shared with the sharded oracle.

What lives here is what :mod:`repro.oracle.sharded` needs from the
kernel layer to run its forked worker pool: the canonical vertex-range
split (:func:`shard_edges`), the ``fork`` probe, the hung-worker budget
(:func:`pool_timeout`, ``REPRO_POOL_TIMEOUT``) and the
:class:`ParallelFallback` warning its supervision ladder raises.  The
kernels themselves run in-process on the ``dense`` / ``csr`` /
``reference`` backends (see :mod:`repro.kernels.config`).
"""

from __future__ import annotations

import math
import multiprocessing
import os

import numpy as np

__all__ = [
    "ENV_POOL_TIMEOUT_VAR",
    "ParallelFallback",
    "fork_available",
    "pool_timeout",
    "shard_edges",
    "shutdown_pool",
]

#: Hung-worker budget override (seconds): a shard worker that makes no
#: progress for this long is declared hung and its pool torn down.
ENV_POOL_TIMEOUT_VAR = "REPRO_POOL_TIMEOUT"

#: Default hung-worker budget — generous, because a legitimate shard on
#: a loaded host can be slow; the supervisor's *liveness* check (dead
#: workers) fires within a poll interval regardless.
_DEFAULT_POOL_TIMEOUT = 120.0


class ParallelFallback(UserWarning):
    """Warned when the sharded oracle's worker pool fails and is rebuilt
    or degraded to in-process serial shards; the message names the step
    taken."""


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform (the
    sharded oracle's worker pool requires it)."""
    return "fork" in multiprocessing.get_all_start_methods()


def pool_timeout() -> float:
    """The hung-worker budget in seconds (``REPRO_POOL_TIMEOUT``
    override).  Anything but a finite number of seconds > 0 raises
    :class:`ValueError` naming the variable: a ``nan`` or ``inf``
    budget would make the deadline unreachable."""
    value = os.environ.get(ENV_POOL_TIMEOUT_VAR)
    if not value:
        return _DEFAULT_POOL_TIMEOUT
    try:
        timeout = float(value)
    except ValueError:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR}={value!r} is not a number of seconds"
        )
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR} must be a finite number > 0, "
            f"got {timeout!r}"
        )
    return timeout


def shard_edges(total: int, shards: int) -> np.ndarray:
    """Contiguous partition of ``range(total)`` into at most ``shards``
    blocks, as the ``shards+1`` boundary array (``edges[i]:edges[i+1]``
    is block ``i``).  This is the *canonical* vertex-range split: the
    sharded artifact writer and the query router both derive their
    ranges from it, so they always agree."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = max(1, min(shards, max(total, 1)))
    return np.linspace(0, total, shards + 1, dtype=np.int64)


# Kept only for perfbench, whose build children call it before reporting.
def shutdown_pool() -> None:
    """No-op: the kernel layer runs no worker pool."""


# Kept only for perfbench, whose ``--trace 1`` runs wrap it; no
# dispatcher calls it.
def maybe_promote(resolved: str, cells: int) -> str:
    """Return ``resolved`` unchanged."""
    return resolved
