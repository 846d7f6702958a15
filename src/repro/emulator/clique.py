"""The Congested Clique implementation of the emulator (Section 3.5).

The ideal algorithm needs each vertex to inspect its ``delta_i``-ball, which
may be huge.  The clique version splits vertices by the size of that ball:

* **light** (``|B(v, delta_{i_v})| <= n^{2/3}``): the ball is fully
  contained in the ``(k, delta_r)``-nearest output with ``k = n^{2/3}``,
  so the vertex applies the ideal rule verbatim (Claim 26);
* **heavy**: the ``k``-nearest within ``delta_{i_v}`` contain an ``S_r``
  member w.h.p. (Claim 25), hence ``v`` is ``i``-dense and only needs its
  single edge to the closest ``S_{i+1}`` member — which also sits inside
  the ``k``-nearest.

Vertices of ``S_r`` (all ``r``-sparse, since ``S_{r+1} = ∅``) must connect
to every ``S_r`` member within ``delta_r``; they do so with
``(1 + eps')``-approximate weights obtained from a bounded
``(beta, eps', delta_r)``-hopset plus ``(S_r, beta)``-source detection
(Claim 27).  Appendix C.3: with ``eps' = 20 eps (r-1)`` the final stretch
is ``(1 + 4 eps', 2 beta_r)``.

W.h.p. events that fail at small ``n`` are patched deterministically with
exact-ball fallbacks and *counted* in the stats, so the output always
satisfies the stretch guarantee.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import kernels
from ..cliquesim.ledger import RoundLedger
from ..graph.distances import bfs_distances
from ..graph.graph import Graph, WeightedGraph
from ..kernels import NearestRows
from ..kernels.config import reference_forced
from ..toolkit.hopsets import build_bounded_hopset
from ..toolkit.nearest import kd_nearest_bfs
from ..toolkit.source_detection import source_detection
from .builder import EmulatorResult, edges_for_vertex
from .params import EmulatorParams
from .sampling import Hierarchy, sample_hierarchy

__all__ = ["build_emulator_cc", "cc_stretch_bound"]


def cc_stretch_bound(params: EmulatorParams, distance: float) -> float:
    """Appendix C.3 stretch of the clique build: with
    ``eps' = 20 eps (r-1)`` the bound is ``(1 + 4 eps') d + 2 beta_r``;
    we use the uniform (slightly looser) ``(1 + 80 eps r) d + 2 beta_r``."""
    return (1.0 + 80.0 * params.eps * params.r) * distance + 2.0 * params.beta


def build_emulator_cc(
    g: Graph,
    eps: float,
    r: int,
    rng: Optional[np.random.Generator] = None,
    hierarchy: Optional[Hierarchy] = None,
    params: Optional[EmulatorParams] = None,
    rescale: bool = True,
    ledger: Optional[RoundLedger] = None,
    deterministic_hopset: bool = False,
    k_exponent: float = 2.0 / 3.0,
) -> EmulatorResult:
    """Build the emulator through the Section 3.5 clique pipeline, charging
    rounds for every primitive used (1 announce round, Theorem 10 for the
    ``(k, d)``-nearest, Theorem 12 for the hopset, Theorem 11 for the
    source detection)."""
    if ledger is None:
        ledger = RoundLedger()
    if params is None:
        params = (
            EmulatorParams.from_target_eps(eps, r)
            if rescale
            else EmulatorParams(eps=eps, r=r)
        )
    if rng is None:
        rng = np.random.default_rng(0)
    if hierarchy is None:
        hierarchy = sample_hierarchy(g.n, r, rng)
    n = g.n

    # Every vertex announces its level (one O(log log log n)-bit message).
    ledger.charge(1, "emulator:announce-levels")

    # The heavy/light threshold: the paper fixes k = n^{2/3} (the largest
    # k for which Theorem 10 stays poly(log d)); k_exponent exposes it for
    # the ablation benchmark.
    k = min(n, max(1, math.ceil(n**k_exponent)))
    d = max(1, math.ceil(params.delta_r))
    nearest, _ = kd_nearest_bfs(g, k, d, ledger=ledger)

    emulator = WeightedGraph(n)
    sr_mask = hierarchy.masks[r]
    if reference_forced():
        heavy_count, light_count, patched_heavy = _light_heavy_edges_reference(
            g, emulator, nearest, hierarchy, params, k
        )
    else:
        heavy_count, light_count, patched_heavy = _light_heavy_edges_batched(
            g, emulator, nearest, hierarchy, params, k
        )
    del nearest  # the hopset build below runs its own (k, t)-nearest

    # S_r x S_r edges via bounded hopset + source detection (Claim 27).
    sr = np.flatnonzero(sr_mask)
    eps_prime = min(0.9, 20.0 * params.eps * max(r - 1, 1))
    if sr.size >= 2:
        hop = build_bounded_hopset(
            g,
            eps=eps_prime,
            t=d,
            rng=rng,
            ledger=ledger,
            deterministic=deterministic_hopset,
        )
        union = hop.union_with(g)
        dist, _ = source_detection(
            union, [int(x) for x in sr], hop.beta, ledger=ledger,
            phase="emulator:sr-source-detection",
        )
        limit = (1.0 + eps_prime) * params.delta_r
        sub = dist[:, sr]
        ii, jj = np.nonzero(np.isfinite(sub) & (sub <= limit) & (sub > 0))
        emulator.add_edges_arrays(sr[ii], sr[jj], sub[ii, jj])

    stats = {
        "heavy_count": heavy_count,
        "light_count": light_count,
        "patched_heavy": patched_heavy,
        "set_sizes": hierarchy.sizes(),
        "eps_prime": eps_prime,
        "k": k,
        "delta_r": params.delta_r,
    }
    return EmulatorResult(
        emulator=emulator,
        params=params,
        hierarchy=hierarchy,
        stats=stats,
        ledger=ledger,
    )


def _light_heavy_edges_batched(
    g: Graph,
    emulator: WeightedGraph,
    nearest: NearestRows,
    hierarchy: Hierarchy,
    params: EmulatorParams,
    k: int,
) -> tuple:
    """Level-bucketed pass over the shared ``(k, d)``-nearest rows.  A
    row is sorted by (distance, id), so its ball is a prefix and the
    first in-radius next-level member is the closest one (smallest id on
    ties): light rows apply the Section 3.2 edge rule to their prefix,
    heavy rows take that member.  Only the (rare, counted) Claim 25
    patches fall back to per-vertex exact BFS."""
    r = params.r
    heavy_count = light_count = patched_heavy = 0
    for level in range(r):
        rows = np.flatnonzero(hierarchy.levels == level)
        if rows.size == 0:
            continue
        radius = params.deltas[level]
        owner, cols, dists = nearest.take(rows)
        within = dists <= radius
        light = np.bincount(owner[within], minlength=rows.size) < k
        light_count += int(light.sum())
        heavy_count += int(rows.size - light.sum())

        # Dense rows (light or heavy): one edge to the closest next-level
        # member.  A heavy row's k entries all lie within radius.
        hit, first = kernels.first_per_row(
            owner, within & hierarchy.masks[level + 1][cols]
        )
        emulator.add_edges_arrays(rows[hit], cols[first], dists[first])
        dense = np.zeros(rows.size, dtype=bool)
        dense[hit] = True

        # Sparse light rows: every own-level ball member but v itself.
        sparse = (
            within & (light & ~dense)[owner]
            & hierarchy.masks[level][cols] & (dists > 0)
        )
        emulator.add_edges_arrays(rows[owner[sparse]], cols[sparse], dists[sparse])

        for v in rows[~light & ~dense]:
            # Heavy: the k nearest all lie within radius, so v should be
            # dense; w.h.p. event of Claim 25 failed: exact fallback.
            patched_heavy += 1
            _patch_heavy_vertex(g, emulator, int(v), level, radius, hierarchy)
    return heavy_count, light_count, patched_heavy


def _light_heavy_edges_reference(
    g: Graph,
    emulator: WeightedGraph,
    nearest: NearestRows,
    hierarchy: Hierarchy,
    params: EmulatorParams,
    k: int,
) -> tuple:
    """The original one-vertex-at-a-time light/heavy loop, densifying
    one row at a time."""
    r = params.r
    heavy_count = light_count = patched_heavy = 0
    for v in range(g.n):
        level = int(hierarchy.levels[v])
        if level >= r:
            continue  # S_r vertices handled by the hopset stage
        radius = params.deltas[level]
        row = nearest.dense_row(v)
        finite = np.flatnonzero(np.isfinite(row))
        order = np.lexsort((finite, row[finite]))
        finite = finite[order]
        within = finite[row[finite] <= radius]
        if within.size < k:
            light_count += 1
            _, edges = edges_for_vertex(level, within, row[within], hierarchy)
            for u, w in edges:
                emulator.add_edge(v, u, w)
            continue
        # Heavy: the k nearest all lie within radius; v should be dense.
        heavy_count += 1
        in_next = hierarchy.masks[level + 1][finite]
        if in_next.any():
            pos = int(np.argmax(in_next))
            emulator.add_edge(v, int(finite[pos]), float(row[finite[pos]]))
        else:
            # w.h.p. event of Claim 25 failed: exact fallback.
            patched_heavy += 1
            _patch_heavy_vertex(g, emulator, v, level, radius, hierarchy)
    return heavy_count, light_count, patched_heavy


def _patch_heavy_vertex(
    g: Graph,
    emulator: WeightedGraph,
    v: int,
    level: int,
    radius: float,
    hierarchy: Hierarchy,
) -> None:
    """Exact-ball fallback for a heavy vertex whose ``k``-nearest missed
    ``S_{level+1}`` (the deterministic patch of the Claim 25 event)."""
    next_mask = hierarchy.masks[level + 1]
    dist = bfs_distances(g, v, max_dist=radius)
    cand = np.flatnonzero(next_mask & (dist <= radius))
    if cand.size:
        order = np.lexsort((cand, dist[cand]))
        u = cand[order[0]]
        emulator.add_edge(v, int(u), float(dist[u]))
    else:
        inside = np.flatnonzero(dist <= radius)
        order = np.lexsort((inside, dist[inside]))
        inside = inside[order]
        _, edges = edges_for_vertex(level, inside, dist[inside], hierarchy)
        for u, w in edges:
            emulator.add_edge(v, u, w)
