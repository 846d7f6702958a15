"""The ``(k, d)``-nearest problem (Theorem 10, Appendix B.2).

Each vertex must learn the distances to its ``k`` closest vertices among
those at distance at most ``d`` (all of them, if fewer).  The paper's
distance-sensitive insight: because only distances ``<= d`` matter, the
iterated *filtered* min-plus squaring needs just ``ceil(log2 d)`` steps and
the value universe has ``W = O(d)`` values, so every log factor is
``log d`` — ``poly(log t)`` instead of ``poly(log n)`` when ``d = t`` is a
small threshold.  This is the engine of the whole paper.

Two implementations are provided and cross-validated in tests:

* :func:`kd_nearest_matrix` — the congested-clique algorithm verbatim:
  ``A_{i+1} = filter_rho(A_i · A_i)`` for ``ceil(log2 d)`` iterations
  (Claim 59), then masking entries ``> d``.

* :func:`kd_nearest_bfs` — the BFS oracle: one truncated BFS wave per
  vertex on :func:`repro.kernels.k_nearest_bfs`, each wave stopped at the
  level of its ``k``-th vertex, answered as CSR rows
  (:class:`repro.kernels.NearestRows`, ``k`` entries per vertex at most,
  in (distance, vertex id) order) — the fast substrate inside larger
  pipelines.  ``.dense()`` of its answer equals the matrix algorithm's
  output entry for entry (see DESIGN.md §3 on the fidelity policy).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .. import kernels
from ..cliquesim.costs import kd_nearest_rounds
from ..cliquesim.ledger import RoundLedger
from ..graph.graph import Graph
from ..kernels import NearestRows
from ..matmul.filtered import filtered_product

__all__ = ["kd_nearest_matrix", "kd_nearest_bfs"]


def kd_nearest_matrix(
    g: Graph,
    k: int,
    d: int,
    ledger: Optional[RoundLedger] = None,
) -> Tuple[np.ndarray, float]:
    """Solve ``(k, d)``-nearest by iterated filtered min-plus squaring.

    Returns ``(N, rounds)`` where ``N[v, u]`` is ``d(v, u)`` if ``u`` is one
    of the ``(k, d)``-nearest of ``v`` (``v`` itself counts, at distance 0)
    and ``inf`` otherwise.  Rounds follow Theorem 10:
    ``O((k/n^{2/3} + log d) log d)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    a = g.adjacency_matrix()
    cur = kernels.filter_rows(a, k)
    iterations = max(1, math.ceil(math.log2(d))) if d > 1 else 0
    for _ in range(iterations):
        cur = filtered_product(cur, cur, k)
    # Entries may reach up to 2^ceil(log2 d) < 2d; clip to the d-ball and
    # re-filter (some rows may have had > k entries within 2d but fewer
    # within d — re-filtering keeps exactly the (k, d)-nearest).
    cur[cur > d] = np.inf
    cur = kernels.filter_rows(cur, k)
    rounds = kd_nearest_rounds(g.n, k, d)
    if ledger is not None:
        ledger.charge(rounds, "(k,d)-nearest")
    return cur, rounds


def kd_nearest_bfs(
    g: Graph,
    k: int,
    d: int,
    ledger: Optional[RoundLedger] = None,
) -> Tuple[NearestRows, float]:
    """BFS oracle for ``(k, d)``-nearest: every vertex's truncated wave
    expands together and stops once it has settled ``k`` vertices.

    Returns ``(rows, rounds)``: row ``v`` of the CSR ``rows`` lists the
    ``(k, d)``-nearest of ``v`` in (distance, vertex id) order, and
    ``rows.dense()`` equals :func:`kd_nearest_matrix`'s matrix (the same
    tie-break by vertex id at equal distance).  The Theorem 10 rounds are
    charged so pipelines account identically whichever substrate they
    use.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    # The kernel truncates waves at floor(d), so no entry exceeds d.
    out = kernels.k_nearest_bfs(g.indptr, g.indices, g.n, k, max_dist=d)
    rounds = kd_nearest_rounds(g.n, k, d)
    if ledger is not None:
        ledger.charge(rounds, "(k,d)-nearest")
    return out, rounds
