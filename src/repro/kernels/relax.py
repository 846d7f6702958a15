"""Hop-limited relaxation (the Bellman–Ford kernel).

One call performs ``max_hops`` rounds of simultaneous (Jacobi)
multi-source edge relaxation: per hop, arcs contribute candidates which
a single ``np.minimum.reduceat`` over arcs grouped by target reduces.
:func:`repro.graph.distances.hop_limited_bellman_ford` (``(S, d)``-source
detection, Theorem 11) runs it on the rows where the hop bound may bind
and on every row of fractional weights; at integral weights ``>= 1`` the
other rows are exact Dijkstra rows, tested bit for bit against this
kernel.

Only the first hop relaxes every arc.  Every later hop relaxes just the
arcs whose origin column changed on the previous hop: an unchanged
origin's candidate ``prev[s, o] + w`` is the very value the previous hop
already folded into its target, so taking the ``min`` over the smaller
arc set is bit-identical to the full Jacobi update.  The baseline is
that full update, kept as a test-local loop in ``tests/test_kernels.py``
and compared bit for bit.  There is one numpy implementation, which
``force_backend("reference")`` leaves as it is.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hop_limited_relax"]


def hop_limited_relax(
    dist: np.ndarray,
    origins: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    max_hops: int,
) -> np.ndarray:
    """Relax the directed arcs ``origins -> targets`` (with ``weights``)
    for ``max_hops`` rounds starting from the ``(num_sources, n)`` seed
    matrix ``dist``; stops early at a fixpoint.  Returns a new matrix."""
    if max_hops <= 0 or targets.size == 0 or dist.size == 0:
        return dist.copy()
    order = np.argsort(targets, kind="stable")
    targets, origins, weights = targets[order], origins[order], weights[order]
    # Hop 1 relaxes the full target-sorted arrays (no subset copy); each
    # later hop relaxes the (still target-sorted) arcs leaving a column
    # that changed on the hop before.
    hop_origins, hop_targets, hop_weights = origins, targets, weights
    for _ in range(max_hops):
        group_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(hop_targets)) + 1)
        )
        unique_targets = hop_targets[group_starts]
        cand = dist[:, hop_origins] + hop_weights  # (num_sources, num_arcs)
        mins = np.minimum.reduceat(cand, group_starts, axis=1)
        del cand
        prev = dist
        dist = prev.copy()
        dist[:, unique_targets] = np.minimum(dist[:, unique_targets], mins)
        # The change mask spans all n columns, so its size is fixed per
        # call: numpy caches freed buffers under 1 KiB per exact byte
        # size, and a per-hop-sized bool mask would leave up to ~3.5 MB
        # of them in a long-running server.
        keep = (dist != prev).any(axis=0)[origins]
        if not keep.any():
            break
        hop_origins, hop_targets, hop_weights = (
            origins[keep], targets[keep], weights[keep]
        )
    return dist
