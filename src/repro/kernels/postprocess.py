"""Estimate post-processing kernels (the APSP finishing steps).

Every APSP variant ends the same way: each vertex folds its own incident
edges into the learned estimate matrix (an edge is a distance-1 — or
weight-``w`` — path it can see locally) and fixes the diagonal to zero.
:func:`fold_in_edges` is that step as a kernel: one gather / ``min`` /
scatter per orientation instead of the original buffered
``np.minimum.at`` calls (which pay an unbuffered ufunc inner loop per
edge and dominated the post-processing at large ``n``).

Fidelity: the canonical edge list holds each undirected edge once with
``u < v``, so within one orientation every ``(row, col)`` cell is hit at
most once and fancy-index scatter equals ``np.minimum.at`` exactly.  The
original calls stay reachable under ``force_backend("reference")``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import reference_forced

__all__ = ["fold_in_edges"]


def fold_in_edges(
    estimates: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    weights: Optional[np.ndarray] = None,
    zero_diagonal: bool = True,
) -> np.ndarray:
    """Fold the undirected edges ``(us[i], vs[i])`` into ``estimates`` in
    place — ``estimates[u, v] = min(estimates[u, v], w)`` for both
    orientations — then (by default) zero the diagonal.  ``weights=None``
    means unit weights.  Returns ``estimates``.

    Precondition: each ``(us[i], vs[i])`` pair is unique within the edge
    list (true for every canonical :meth:`Graph.edges` array); duplicate
    pairs would make the vectorized scatter keep the *last* candidate
    rather than the minimum.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if weights is None:
        weights = np.ones(us.size)
    if us.size:
        if reference_forced():
            np.minimum.at(estimates, (us, vs), weights)
            np.minimum.at(estimates, (vs, us), weights)
        else:
            estimates[us, vs] = np.minimum(estimates[us, vs], weights)
            estimates[vs, us] = np.minimum(estimates[vs, us], weights)
    if zero_diagonal:
        np.fill_diagonal(estimates, 0.0)
    return estimates
