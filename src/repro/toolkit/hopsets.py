"""Bounded hopsets (Theorem 12, Appendix B.3).

A ``(beta, eps, t)``-hopset ``H`` for ``G`` is a weighted edge set on
``V(G)`` such that for every pair with ``d_G(u, v) <= t``::

    d_G(u, v) <= d^beta_{G ∪ H}(u, v) <= (1 + eps) d_G(u, v)

i.e. *beta hops suffice* in ``G ∪ H`` to (1+eps)-approximate every short
distance.  Hopsets replace the linear ``d`` factor of source detection by
``beta = O(log t / eps)``, which is where the exponential speedup of the
applications comes from.

Construction (following [3], distance-sensitive version):

1. ``k = sqrt(n) log n``; every vertex computes its ``(k, t)``-nearest.
2. ``A_1`` — a hitting set of the full ``(k, t)``-neighbourhoods, so every
   vertex with a dense ``t``-ball has an ``A_1`` vertex among its ``k``
   nearest.
3. **Bounded bunches**: ``B_t(v) = {u : d(v, u) < d(v, A_1)} ∪ {p(v)}``
   clipped to radius ``t``; the hopset gets an exact-weight edge from ``v``
   to each bunch member.  (At most ``k`` edges per vertex — Claim 61.)
4. **Levels**: for ``l = 1 .. ceil(log2 t)``, every ``A_1`` vertex learns
   its ``4 beta``-hop distances to ``A_1`` in ``G ∪ H^{l-1}`` (source
   detection) and ``A_1 x A_1`` edges with those weights join the hopset —
   after level ``l``, ``H^l`` is a ``(beta, eps·l, 2^l)``-hopset (Lemma 65).
   The loop leaves at the first level that adds no edge and lowers no
   weight.  A level is a deterministic function of ``G`` and ``H^{l-1}``,
   so once ``H^l = H^{l-1}`` every later level would recompute the same
   matrix and add the same edges: the output is exactly the full loop's.
   The round ledger is charged ``bounded_hopset_rounds`` for all
   ``ceil(log2 t)`` levels either way, as the simulated clique runs them.

All hopset edge weights are true path weights in ``G`` or learned path
weights in ``G ∪ H``, hence never underestimate ``d_G`` — soundness of the
lower bound is structural; the upper bound is the verified property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import kernels
from ..cliquesim.costs import bounded_hopset_rounds
from ..cliquesim.ledger import RoundLedger
from ..graph.graph import Graph, WeightedGraph
from ..kernels import NearestRows
from ..kernels.config import reference_forced
from .hitting import deterministic_hitting_set, random_hitting_set
from .nearest import kd_nearest_bfs
from .source_detection import source_detection

__all__ = ["BoundedHopset", "build_bounded_hopset", "hopset_beta"]


@dataclass
class BoundedHopset:
    """A constructed ``(beta, eps, t)``-hopset and its metadata."""

    hopset: WeightedGraph
    beta: int
    eps: float
    t: int
    hitting_set: np.ndarray
    num_edges: int
    rounds: float

    def union_with(self, g: Graph) -> WeightedGraph:
        """The query graph ``G ∪ H``."""
        union = g.to_weighted()
        union.union_update(self.hopset)
        return union


def hopset_beta(t: int, eps: float, c_beta: float = 3.0) -> int:
    """The hop bound ``beta = O(log t / eps)`` with explicit constant."""
    return max(2, math.ceil(c_beta * max(1.0, math.log2(max(t, 2))) / eps))


def build_bounded_hopset(
    g: Graph,
    eps: float,
    t: int,
    rng: Optional[np.random.Generator] = None,
    deterministic: bool = False,
    ledger: Optional[RoundLedger] = None,
    c_beta: float = 3.0,
) -> BoundedHopset:
    """Build a ``(beta, eps, t)``-hopset with ``O(n^{3/2} log n)`` edges.

    Parameters
    ----------
    eps:
        Target approximation (``0 < eps < 1``).
    t:
        Distance threshold the hopset must cover.
    deterministic:
        Use the deterministic hitting set (Lemma 9 route, Theorem 12(2));
        otherwise the Lemma 8 randomized one (``rng`` required).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if t < 1:
        raise ValueError(f"threshold t must be >= 1, got {t}")
    n = g.n
    # Charges to ``local`` only mark build-profiler phase boundaries
    # (``repro build-oracle --profile``); their rounds are discarded, and
    # ``ledger`` gets the closed-form ``bounded_hopset_rounds`` below.
    local = RoundLedger()
    k = min(n, max(1, math.ceil(math.sqrt(n) * max(1.0, math.log2(max(n, 2))))))

    # Step 1: (k, t)-nearest for everyone.
    nearest, _ = kd_nearest_bfs(g, k, t, ledger=local)

    # Step 2: hitting set A_1 over the *full* (k, t)-neighbourhoods (the
    # rows holding k entries).
    full_rows = np.flatnonzero(nearest.lengths() == k)
    row_sets = [nearest.cols[nearest.indptr[v] : nearest.indptr[v + 1]]
                for v in full_rows]
    if deterministic:
        a1 = deterministic_hitting_set(row_sets, n, ledger=local)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        a1 = random_hitting_set(n, max(k, 1), rng, ledger=local)
        a1 = _patch_hitting_set(a1, row_sets)
    del row_sets
    a1 = np.asarray(a1, dtype=np.int64)
    a1_mask = np.zeros(n, dtype=bool)
    a1_mask[a1] = True

    # Step 3: bounded bunches for v not in A_1.
    hopset = WeightedGraph(n)
    if reference_forced():
        _bunch_edges_reference(hopset, nearest, a1_mask)
    else:
        _bunch_edges_batched(hopset, nearest, a1_mask)
    del nearest  # not needed by the level loop

    # Step 4: iterative A_1 x A_1 levels, up to their fixpoint.
    beta = hopset_beta(t, eps, c_beta)
    levels = max(1, math.ceil(math.log2(max(t, 2))))
    a1_list = [int(x) for x in a1]
    for _ in range(levels):
        union = g.to_weighted()
        union.union_update(hopset)
        dist, _ = source_detection(
            union, a1_list, 4 * beta, ledger=local,
            phase="hopset:level-source-detection",
        )
        sub = dist[:, a1]
        finite_i, finite_j = np.nonzero(np.isfinite(sub))
        keep = a1[finite_i] != a1[finite_j]
        before = hopset.edge_arrays()
        hopset.add_edges_arrays(
            a1[finite_i[keep]], a1[finite_j[keep]], sub[finite_i[keep], finite_j[keep]]
        )
        if all(map(np.array_equal, before, hopset.edge_arrays())):
            break  # H^l = H^{l-1}: every later level repeats this one

    rounds = bounded_hopset_rounds(n, t, eps, deterministic=deterministic)
    if ledger is not None:
        ledger.charge(rounds, "hopset:total(theorem-12)")
    return BoundedHopset(
        hopset=hopset,
        beta=beta,
        eps=eps,
        t=t,
        hitting_set=np.asarray(a1, dtype=np.int64),
        num_edges=hopset.m,
        rounds=rounds,
    )


def _bunch_edges_batched(
    hopset: WeightedGraph, nearest: NearestRows, a1_mask: np.ndarray
) -> None:
    """The Claim 61 bunch edges for every non-``A_1`` vertex at once.

    One pass over the ``(k, t)``-nearest rows replaces the per-vertex
    sort-and-scan: a row is sorted by (distance, id), so the pivot
    ``p(v)`` is its first ``A_1`` member (smallest id on ties, the sorted
    scan's pick), the bunch is every entry strictly closer than the
    pivot, and rows without an ``A_1`` member keep their whole ball.
    """
    srcs = np.flatnonzero(~a1_mask)
    if srcs.size == 0:
        return
    owner, cols, dists = nearest.take(srcs)
    piv_rows, first = kernels.first_per_row(owner, a1_mask[cols])
    pivot_dist = np.full(srcs.size, np.inf)
    pivot_dist[piv_rows] = dists[first]

    # Bunch members: strictly closer than the pivot (whole ball when no
    # pivot, since pivot_dist stays inf); dists > 0 excludes v itself.
    bunch = (dists < pivot_dist[owner]) & (dists > 0)
    hopset.add_edges_arrays(srcs[owner[bunch]], cols[bunch], dists[bunch])
    hopset.add_edges_arrays(srcs[piv_rows], cols[first], dists[first])


def _bunch_edges_reference(
    hopset: WeightedGraph, nearest: NearestRows, a1_mask: np.ndarray
) -> None:
    """The original per-vertex bunch loop (sorted scan per row), densifying
    one row at a time."""
    for v in range(nearest.n):
        if a1_mask[v]:
            continue
        row = nearest.dense_row(v)
        members = np.flatnonzero(np.isfinite(row))
        if members.size == 0:
            continue
        order = np.lexsort((members, row[members]))
        members = members[order]
        in_a1 = a1_mask[members]
        if in_a1.any():
            pivot_pos = int(np.argmax(in_a1))  # first A_1 member: p(v)
            pivot_dist = row[members[pivot_pos]]
            bunch = members[row[members] < pivot_dist]
            for u in bunch:
                if u != v:
                    hopset.add_edge(v, int(u), float(row[u]))
            hopset.add_edge(v, int(members[pivot_pos]), float(pivot_dist))
        else:
            # Sparse t-ball entirely inside the (k, t)-nearest: whole ball.
            for u in members:
                if u != v:
                    hopset.add_edge(v, int(u), float(row[u]))


def _patch_hitting_set(a1: np.ndarray, row_sets) -> np.ndarray:
    """Add the smallest element of any set the random draw missed (the
    standard w.h.p.-to-always fix-up; at small ``n`` the union bound is
    weak)."""
    chosen = set(int(x) for x in a1)
    for s in row_sets:
        if not any(int(v) in chosen for v in s):
            chosen.add(int(s.min()))
    return np.asarray(sorted(chosen), dtype=np.int64)
