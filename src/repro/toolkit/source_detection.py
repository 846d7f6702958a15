"""The ``(S, d)``-source detection problem (Theorem 11).

Given sources ``S`` and a hop bound ``d``, every vertex must learn, for
each source ``s``, the ``d``-hop-bounded distance ``d^d(v, s)`` (on a
possibly weighted graph — the paper applies it to ``G ∪ H`` with ``H`` a
hopset).  The congested-clique algorithm of [3] costs
``O((m^{1/3} |S|^{2/3} / n + 1) · d)`` rounds.

Semantically the output is exactly ``d`` rounds of Bellman–Ford from ``S``,
computed by :func:`repro.graph.distances.hop_limited_bellman_ford`: one
batched multi-source BFS at unit weights; at integral weights ``>= 1``
exact Dijkstra rows wherever a row's distances stay within ``d`` (the
hop bound cannot bind there), and the relaxation kernel for the other
rows; the relaxation kernel for any other weights.  The rounds are
charged by the theorem's formula on every route.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .. import kernels
from ..cliquesim.costs import source_detection_rounds
from ..cliquesim.ledger import RoundLedger
from ..graph.distances import hop_limited_bellman_ford
from ..graph.graph import WeightedGraph

__all__ = ["source_detection", "source_detection_k"]


def source_detection(
    wg: WeightedGraph,
    sources: Sequence[int],
    d: int,
    ledger: Optional[RoundLedger] = None,
    phase: str = "source-detection",
) -> Tuple[np.ndarray, float]:
    """``d``-hop-bounded distances from each source.

    Returns ``(D, rounds)`` with ``D`` of shape ``(len(sources), n)``;
    ``D[i, v] = d^d_{wg}(sources[i], v)`` (``inf`` if no ``<= d``-hop path).
    """
    if d < 0:
        raise ValueError(f"hop bound d must be non-negative, got {d}")
    sources = list(sources)
    dist = hop_limited_bellman_ford(wg, sources, max_hops=d)
    rounds = source_detection_rounds(wg.n, wg.m, len(sources), d)
    if ledger is not None:
        ledger.charge(rounds, phase)
    return dist, rounds


def source_detection_k(
    wg: WeightedGraph,
    sources: Sequence[int],
    d: int,
    k: int,
    ledger: Optional[RoundLedger] = None,
    phase: str = "source-detection-k",
) -> Tuple[np.ndarray, float]:
    """The ``(S, d, k)``-source detection variant (footnote 7 of the
    paper): every vertex learns only its ``k`` *closest* sources within
    ``d`` hops (ties by source index).

    Returns ``(D, rounds)`` shaped like :func:`source_detection` but with
    all non-top-``k`` entries per vertex masked to ``inf``.  The round
    charge is the Theorem 11 formula (our applications only use
    ``k = |S|``, where the variants coincide).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dist, rounds = source_detection(wg, sources, d, ledger=ledger, phase=phase)
    if k >= dist.shape[0]:
        return dist, rounds
    # Top-k per *vertex* = the row-filter kernel applied column-wise; the
    # kernel's column-id tie-break becomes the source-index tie-break.
    out = np.ascontiguousarray(kernels.filter_rows(dist.T, k).T)
    return out, rounds
