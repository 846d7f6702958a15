"""Hop-limited relaxation (the Bellman–Ford kernel).

One call performs ``max_hops`` rounds of simultaneous multi-source edge
relaxation: per hop, every arc contributes a candidate which a single
``np.minimum.reduceat`` over arcs grouped by target reduces — the
vectorized core that :func:`repro.graph.distances.hop_limited_bellman_ford`
and ``(S, d)``-source detection (Theorem 11) run on.

The numpy implementation is the only one: it doubles as the semantic
baseline (it *is* the original code path), so every backend name routes
here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import resolve_backend

__all__ = ["hop_limited_relax"]


def hop_limited_relax(
    dist: np.ndarray,
    origins: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    max_hops: int,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Relax the directed arcs ``origins -> targets`` (with ``weights``)
    for ``max_hops`` rounds starting from the ``(num_sources, n)`` seed
    matrix ``dist``; stops early at a fixpoint.  Returns a new matrix.

    ``backend=None`` defers to :mod:`repro.kernels.config`, which
    validates the name; every backend runs the same numpy rounds.
    """
    if max_hops <= 0 or targets.size == 0 or dist.size == 0:
        return dist.copy()
    resolve_backend(backend)
    order = np.argsort(targets, kind="stable")
    targets, origins, weights = targets[order], origins[order], weights[order]
    group_starts = np.flatnonzero(
        np.concatenate([[True], targets[1:] != targets[:-1]])
    )
    unique_targets = targets[group_starts]
    for _ in range(max_hops):
        prev = dist
        cand = prev[:, origins] + weights  # (num_sources, num_arcs)
        mins = np.minimum.reduceat(cand, group_starts, axis=1)
        dist = prev.copy()
        dist[:, unique_targets] = np.minimum(dist[:, unique_targets], mins)
        if np.array_equal(dist, prev):
            break
    return dist
