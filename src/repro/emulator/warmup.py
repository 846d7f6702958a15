"""The Section 3.1 warm-up emulator: ``(1 + eps, Θ(1/eps))`` stretch with
``O~(n^{1+1/4})`` edges.

Construction (two sampled sets):

* ``S_1`` — each vertex w.p. ``n^{-1/4}``;  ``S_2 ← Sample(S_1, n^{-1/2})``.
* Low-degree vertices (degree ``<= n^{1/4} log n``) keep all their edges;
  each high-degree vertex adds one edge to an ``S_1`` neighbour.
* Each ``v ∈ S_1`` looks at ``B(v, 1/eps + 2, G)``: if it holds at most
  ``sqrt(n) log n`` vertices of ``S_1``, connect to all of them, else
  connect to an ``S_2`` representative in the ball.
* ``S_2`` vertices connect to *all* vertices (weighted by distance).

The "w.h.p." events (high-degree vertices have ``S_1`` neighbours; dense
``S_1``-balls contain ``S_2`` representatives) are patched deterministically
when the random draw misses them — the patch falls back to the sparse rule,
preserving the stretch guarantee at the price of extra edges, and the patch
counts are reported in the stats (they vanish as ``n`` grows).

The default path runs every rule batched: rule 1 is edge-array mask
algebra plus one slab gather for the high-degree ``S_1`` neighbours, rules
2 and 3 run one :func:`repro.kernels.sharded_bfs` each over ``S_1`` /
``S_2`` instead of a BFS per vertex.  ``force_backend("reference")``
selects the original per-vertex loops; both paths produce bit-identical
emulators and stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import kernels
from ..graph.distances import bfs_distances
from ..graph.graph import Graph, WeightedGraph
from ..kernels.config import reference_forced
from ..kernels.csr import slab_gather_owners

__all__ = ["WarmupEmulator", "build_warmup_emulator"]


@dataclass
class WarmupEmulator:
    """Output of :func:`build_warmup_emulator`."""

    emulator: WeightedGraph
    eps: float
    s1: np.ndarray
    s2: np.ndarray
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Number of emulator edges."""
        return self.emulator.m

    def additive_bound(self) -> float:
        """The additive term of the ``(1 + eps, Θ(1/eps))`` guarantee,
        with the analysis' constants: ``10/eps`` is safe for the rescaled
        statement; we report ``4 (1/eps + 2) + 4``."""
        return 4.0 * (1.0 / self.eps + 2.0) + 4.0


def build_warmup_emulator(
    g: Graph,
    eps: float,
    rng: Optional[np.random.Generator] = None,
    s1_mask: Optional[np.ndarray] = None,
    s2_mask: Optional[np.ndarray] = None,
) -> WarmupEmulator:
    """Build the warm-up emulator of Section 3.1.

    ``s1_mask``/``s2_mask`` override the random draws (used by tests to
    inject adversarial samples and exercise the patch paths)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if rng is None:
        rng = np.random.default_rng(0)
    n = g.n
    logn = max(1.0, math.log2(max(n, 2)))
    degree_threshold = n ** 0.25 * logn
    if s1_mask is None:
        s1_mask = rng.random(n) < n ** -0.25 if n else np.zeros(0, dtype=bool)
    else:
        s1_mask = np.asarray(s1_mask, dtype=bool)
    if s2_mask is None:
        s2_mask = s1_mask & (rng.random(n) < n ** -0.5)
    else:
        s2_mask = np.asarray(s2_mask, dtype=bool)
        if (s2_mask & ~s1_mask).any():
            raise ValueError("S_2 must be a subset of S_1")
    emulator = WeightedGraph(n)
    stats = {"patched_high_degree": 0, "patched_s1_ball": 0}
    radius = 1.0 / eps + 2.0
    ball_bound = math.sqrt(n) * logn

    if reference_forced():
        _warmup_rules_reference(
            g, emulator, s1_mask, s2_mask, degree_threshold, radius,
            ball_bound, stats,
        )
    else:
        _warmup_rules_batched(
            g, emulator, s1_mask, s2_mask, degree_threshold, radius,
            ball_bound, stats,
        )

    return WarmupEmulator(
        emulator=emulator,
        eps=eps,
        s1=np.flatnonzero(s1_mask),
        s2=np.flatnonzero(s2_mask),
        stats=stats,
    )


def _warmup_rules_batched(
    g: Graph,
    emulator: WeightedGraph,
    s1_mask: np.ndarray,
    s2_mask: np.ndarray,
    degree_threshold: float,
    radius: float,
    ball_bound: float,
    stats: Dict[str, int],
) -> None:
    """All three rules as bulk array operations (no per-vertex BFS)."""
    n = g.n

    # Rule 1: low-degree edges / high-degree S_1 neighbour.
    degrees = g.degrees()
    low = degrees <= degree_threshold
    e = g.edges()
    if len(e):
        keep = low[e[:, 0]] | low[e[:, 1]]
        kept = e[keep]
        emulator.add_edges_arrays(kept[:, 0], kept[:, 1], np.ones(len(kept)))
    high = np.flatnonzero(~low)
    if high.size:
        # First S_1 neighbour per high-degree vertex: one slab gather; CSR
        # slabs are id-sorted, so the first hit is the smallest-id member.
        owners, nbrs = slab_gather_owners(
            g.indptr, g.indices, high, np.arange(high.size, dtype=np.int64)
        )
        hit = s1_mask[nbrs]
        first_owner, first_pos = np.unique(owners[hit], return_index=True)
        targets = nbrs[hit][first_pos]
        emulator.add_edges_arrays(
            high[first_owner], targets, np.ones(first_owner.size)
        )
        # w.h.p. event failed at this small n: patch by keeping all
        # incident edges (the low-degree rule), preserving stretch.
        missed = np.ones(high.size, dtype=bool)
        missed[first_owner] = False
        patched = high[missed]
        stats["patched_high_degree"] += int(patched.size)
        if patched.size:
            p_owners, p_nbrs = slab_gather_owners(
                g.indptr, g.indices, patched, patched
            )
            emulator.add_edges_arrays(p_owners, p_nbrs, np.ones(p_nbrs.size))

    # Rule 2: S_1 balls of radius 1/eps + 2, one sharded BFS for all of S_1.
    s1 = np.flatnonzero(s1_mask)
    for lo, hi, block in kernels.sharded_bfs(
        g.indptr, g.indices, n, s1, max_dist=radius
    ):
        srcs = s1[lo:hi]
        positive = np.isfinite(block) & (block > 0)
        inside_s1 = positive & s1_mask
        counts = inside_s1.sum(axis=1)
        small = counts <= ball_bound
        big_rows = np.flatnonzero(~small)
        inside_s2 = positive[big_rows] & s2_mask
        # Dense balls with an S_2 representative: closest one (ties by id).
        with_rep, reps, rep_weights = kernels.masked_row_argmin(
            block[big_rows], inside_s2
        )
        rep_rows = big_rows[with_rep]
        emulator.add_edges_arrays(srcs[rep_rows], reps, rep_weights)
        # Sparse balls, plus dense balls the S_2 draw missed (patched):
        # connect to every S_1 ball member.
        stats["patched_s1_ball"] += int(big_rows.size - rep_rows.size)
        take = small.copy()
        take[big_rows] = True
        take[rep_rows] = False
        rows, cols = np.nonzero(inside_s1 & take[:, None])
        emulator.add_edges_arrays(srcs[rows], cols, block[rows, cols])

    # Rule 3: S_2 to everyone (unbounded BFS, sharded).
    s2 = np.flatnonzero(s2_mask)
    for lo, hi, block in kernels.sharded_bfs(g.indptr, g.indices, n, s2):
        srcs = s2[lo:hi]
        rows, cols = np.nonzero(np.isfinite(block) & (block > 0))
        emulator.add_edges_arrays(srcs[rows], cols, block[rows, cols])


def _warmup_rules_reference(
    g: Graph,
    emulator: WeightedGraph,
    s1_mask: np.ndarray,
    s2_mask: np.ndarray,
    degree_threshold: float,
    radius: float,
    ball_bound: float,
    stats: Dict[str, int],
) -> None:
    """The original per-vertex rule loops."""
    n = g.n

    # Rule 1: low-degree edges / high-degree S_1 neighbour.
    degrees = g.degrees()
    for v in range(n):
        nbrs = g.neighbors(v)
        if degrees[v] <= degree_threshold:
            for u in nbrs:
                emulator.add_edge(v, int(u), 1.0)
        else:
            s1_nbrs = nbrs[s1_mask[nbrs]]
            if s1_nbrs.size:
                emulator.add_edge(v, int(s1_nbrs[0]), 1.0)
            else:
                # w.h.p. event failed at this small n: patch by keeping all
                # incident edges (the low-degree rule), preserving stretch.
                stats["patched_high_degree"] += 1
                for u in nbrs:
                    emulator.add_edge(v, int(u), 1.0)

    # Rule 2: S_1 balls of radius 1/eps + 2.
    for v in np.flatnonzero(s1_mask):
        dist = bfs_distances(g, int(v), max_dist=radius)
        inside = np.flatnonzero(dist <= radius)
        inside_s1 = inside[s1_mask[inside] & (dist[inside] > 0)]
        if inside_s1.size <= ball_bound:
            for u in inside_s1:
                emulator.add_edge(int(v), int(u), float(dist[u]))
        else:
            inside_s2 = inside[s2_mask[inside] & (dist[inside] > 0)]
            if inside_s2.size:
                order = np.lexsort((inside_s2, dist[inside_s2]))
                u = inside_s2[order[0]]
                emulator.add_edge(int(v), int(u), float(dist[u]))
            else:
                stats["patched_s1_ball"] += 1
                for u in inside_s1:
                    emulator.add_edge(int(v), int(u), float(dist[u]))

    # Rule 3: S_2 to everyone.
    for v in np.flatnonzero(s2_mask):
        dist = bfs_distances(g, int(v))
        for u in np.flatnonzero(np.isfinite(dist)):
            if u != v:
                emulator.add_edge(int(v), int(u), float(dist[u]))
