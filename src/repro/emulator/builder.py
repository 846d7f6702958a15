"""The Section 3.2 near-additive emulator (ideal / exact-ball version).

For every vertex ``v`` at level ``i`` (``v ∈ S_i \\ S_{i+1}``), inspect the
ball ``B(v, delta_i, G)``:

* **i-dense** (the ball meets ``S_{i+1}``): add one edge to the *closest*
  ``S_{i+1}`` member ``c_{i+1}(v)`` (ties by vertex id);
* **i-sparse**: add edges to *all* ``S_i`` members of the ball.

Every emulator edge ``{u, v}`` is weighted by the exact ``d_G(u, v)``.
Theorem 24: ``O(r n^{1+1/2^r})`` edges in expectation and stretch
``(1 + 20 eps r, beta_r)`` — i.e. ``(1 + eps', O(r/eps')^{r-1})`` after
rescaling.

This module is the reference semantics; the congested-clique build
(:mod:`repro.emulator.clique`) must produce the same edges for light
vertices and ``(1+eps')``-weighted edges among ``S_r``.

Two construction paths produce identical output (DESIGN.md §3):

* ``batched`` (default) — vertices are bucketed by hierarchy level, one
  radius-bounded :func:`repro.kernels.sharded_bfs` runs per level, and
  :func:`edges_for_level` applies the Section 3.2 edge rule to the whole
  level's ball matrix with mask algebra, feeding a single bulk
  :meth:`WeightedGraph.add_edges_arrays` per shard.  All vertices of a
  level are computed *simultaneously* — the shape of the sparse-matrix
  formulation in Censor-Hillel et al. — and memory stays
  ``O(shard · n)``, which opens ``n >= 10^4`` builds.
* ``reference`` — the original one-BFS-per-vertex loop, reachable under
  ``force_backend("reference")``; the bit-fidelity tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..cliquesim.ledger import RoundLedger
from ..graph.distances import bfs_distances
from ..graph.graph import Graph, WeightedGraph
from ..kernels.config import reference_forced
from .params import EmulatorParams
from .sampling import Hierarchy, sample_hierarchy

__all__ = [
    "EmulatorResult",
    "build_emulator",
    "edges_for_vertex",
    "edges_for_level",
]


@dataclass
class EmulatorResult:
    """A constructed emulator plus provenance and statistics."""

    emulator: WeightedGraph
    params: EmulatorParams
    hierarchy: Hierarchy
    stats: Dict[str, object] = field(default_factory=dict)
    ledger: Optional[RoundLedger] = None

    @property
    def num_edges(self) -> int:
        """Number of emulator edges."""
        return self.emulator.m

    def stretch_bound(self, distance: float) -> float:
        """The proven upper bound on emulator distance for a pair at the
        given true distance (Lemma 23)."""
        return self.params.stretch_bound(distance)


def edges_for_vertex(
    level: int,
    ball_vertices: np.ndarray,
    ball_distances: np.ndarray,
    hierarchy: Hierarchy,
) -> Tuple[bool, List[Tuple[int, float]]]:
    """The per-vertex edge rule of Section 3.2.

    ``ball_vertices``/``ball_distances`` describe ``B(v, delta_level, G)``
    sorted by (distance, id) and may include ``v`` itself (distance 0),
    which is skipped.  Returns ``(is_dense, [(target, weight), …])``.
    """
    masks = hierarchy.masks
    next_mask = masks[level + 1]
    in_next = next_mask[ball_vertices]
    if in_next.any():
        pos = int(np.argmax(in_next))  # closest S_{i+1} member (sorted input)
        return True, [(int(ball_vertices[pos]), float(ball_distances[pos]))]
    own_mask = masks[level]
    keep = own_mask[ball_vertices] & (ball_distances > 0)
    return False, [
        (int(u), float(w))
        for u, w in zip(ball_vertices[keep], ball_distances[keep])
    ]


def edges_for_level(
    level: int,
    sources: np.ndarray,
    ball_block: np.ndarray,
    hierarchy: Hierarchy,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`edges_for_vertex` over a whole level's ball matrix.

    ``ball_block`` is a ``(len(sources), n)`` distance matrix whose finite
    entries are exactly the balls ``B(sources[i], delta_level, G)`` (row
    ``i`` includes ``sources[i]`` itself at distance 0).  Applies the
    dense/sparse rule to every row at once with mask algebra and returns
    ``(is_dense, us, vs, ws)`` — the per-row density flags and the flat
    edge arrays ready for :meth:`WeightedGraph.add_edges_arrays`.

    Tie-breaking matches the scalar rule bit for bit: ``argmin`` over a
    row returns the first minimum, i.e. the smallest vertex id at the
    minimum distance.
    """
    masks = hierarchy.masks
    in_ball = np.isfinite(ball_block)
    in_next = in_ball & masks[level + 1]
    dense_rows, dense_targets, dense_weights = kernels.masked_row_argmin(
        ball_block, in_next
    )
    is_dense = np.zeros(ball_block.shape[0], dtype=bool)
    is_dense[dense_rows] = True

    sparse = in_ball & masks[level] & (ball_block > 0)
    sparse[dense_rows] = False
    flat_hits = np.flatnonzero(sparse.ravel())
    sparse_rows, sparse_targets = np.divmod(flat_hits, sparse.shape[1])

    us = np.concatenate([sources[dense_rows], sources[sparse_rows]])
    vs = np.concatenate([dense_targets, sparse_targets])
    ws = np.concatenate([dense_weights, ball_block[sparse_rows, sparse_targets]])
    return is_dense, us, vs, ws


def build_emulator(
    g: Graph,
    eps: float,
    r: int,
    rng: Optional[np.random.Generator] = None,
    hierarchy: Optional[Hierarchy] = None,
    params: Optional[EmulatorParams] = None,
    rescale: bool = True,
) -> EmulatorResult:
    """Build the ideal Section 3.2 emulator.

    The level-bucketed sharded BFS builds the edges; under
    ``force_backend("reference")`` the one-BFS-per-vertex loop does.

    Parameters
    ----------
    eps:
        Target multiplicative stretch when ``rescale`` is True (the
        construction then runs at ``eps / (20 r)`` per Lemma 23); the raw
        construction parameter otherwise.
    r:
        Number of levels; the paper's asymptotic choice is
        ``r = log log n`` (:meth:`EmulatorParams.default_r`).
    hierarchy:
        Pre-sampled hierarchy (otherwise drawn with ``rng``).
    """
    if params is None:
        params = (
            EmulatorParams.from_target_eps(eps, r)
            if rescale
            else EmulatorParams(eps=eps, r=r)
        )
    if hierarchy is None:
        if rng is None:
            rng = np.random.default_rng(0)
        hierarchy = sample_hierarchy(g.n, r, rng)
    if hierarchy.r != params.r:
        raise ValueError(
            f"hierarchy has r={hierarchy.r} but params have r={params.r}"
        )
    emulator = WeightedGraph(g.n)
    if reference_forced():
        counts = _build_edges_reference(g, emulator, hierarchy, params)
    else:
        counts = _build_edges_batched(g, emulator, hierarchy, params)
    per_level_edges, dense_counts, sparse_counts = counts

    stats = {
        "per_level_edges": per_level_edges,
        "dense_counts": dense_counts,
        "sparse_counts": sparse_counts,
        "set_sizes": hierarchy.sizes(),
    }
    return EmulatorResult(
        emulator=emulator, params=params, hierarchy=hierarchy, stats=stats
    )


def _build_edges_batched(
    g: Graph,
    emulator: WeightedGraph,
    hierarchy: Hierarchy,
    params: EmulatorParams,
) -> Tuple[List[int], List[int], List[int]]:
    """One sharded BFS per hierarchy level, bulk edge insertion per shard."""
    r = params.r
    per_level_edges = [0] * (r + 1)
    dense_counts = [0] * (r + 1)
    sparse_counts = [0] * (r + 1)
    for level in range(r + 1):
        sources = np.flatnonzero(hierarchy.levels == level)
        if sources.size == 0:
            continue
        radius = params.deltas[level]
        for lo, hi, block in kernels.sharded_bfs(
            g.indptr, g.indices, g.n, sources, max_dist=radius
        ):
            is_dense, us, vs, ws = edges_for_level(
                level, sources[lo:hi], block, hierarchy
            )
            dense = int(is_dense.sum())
            dense_counts[level] += dense
            sparse_counts[level] += int(is_dense.size) - dense
            per_level_edges[level] += emulator.add_edges_arrays(us, vs, ws)
    return per_level_edges, dense_counts, sparse_counts


def _build_edges_reference(
    g: Graph,
    emulator: WeightedGraph,
    hierarchy: Hierarchy,
    params: EmulatorParams,
) -> Tuple[List[int], List[int], List[int]]:
    """The original one-truncated-BFS-per-vertex construction loop."""
    r = params.r
    per_level_edges = [0] * (r + 1)
    dense_counts = [0] * (r + 1)
    sparse_counts = [0] * (r + 1)
    for v in range(g.n):
        level = int(hierarchy.levels[v])
        radius = params.deltas[level]
        dist = bfs_distances(g, v, max_dist=radius)
        inside = np.flatnonzero(dist <= radius)
        order = np.lexsort((inside, dist[inside]))
        inside = inside[order]
        is_dense, edges = edges_for_vertex(level, inside, dist[inside], hierarchy)
        if is_dense:
            dense_counts[level] += 1
        else:
            sparse_counts[level] += 1
        added = 0
        for u, w in edges:
            added += emulator.add_edge(v, u, w)
        per_level_edges[level] += added
    return per_level_edges, dense_counts, sparse_counts
