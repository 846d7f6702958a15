"""Exact distance computations (the sequential ground truth).

These routines are the *reference oracle* for every approximation the
library produces, and also serve as internal building blocks where the
paper's algorithms need exact truncated balls (the ideal Section 3.2
emulator inspects ``B(v, delta_i, G)`` exactly).

Conventions
-----------
* Unreachable pairs have distance ``numpy.inf`` (matrices are ``float64``).
* ``max_dist`` truncation means the search stops expanding past that radius;
  entries farther than ``max_dist`` are reported as ``inf``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .. import kernels
from ..kernels.config import reference_forced
from .graph import Graph, WeightedGraph

__all__ = [
    "bfs_distances",
    "bfs_parents",
    "bfs_path",
    "multi_source_bfs",
    "ball",
    "k_nearest_within",
    "all_pairs_distances",
    "hop_limited_bellman_ford",
    "dijkstra",
    "weighted_all_pairs",
    "to_scipy_csr",
    "weighted_to_scipy_csr",
    "eccentricity",
    "diameter",
]


# ----------------------------------------------------------------------
# Unweighted BFS
# ----------------------------------------------------------------------

def bfs_distances(g: Graph, source: int, max_dist: float = np.inf) -> np.ndarray:
    """Distances from ``source`` in the unweighted graph, truncated at
    ``max_dist`` (vertices farther away report ``inf``)."""
    return multi_source_bfs(g, [source], max_dist=max_dist)


def bfs_parents(
    g: Graph, source: int, target: Optional[int] = None
) -> np.ndarray:
    """BFS parent tree from ``source``: ``parent[y]`` is the vertex whose
    neighbour scan first reached ``y`` (frontier by frontier, neighbours
    in ``g.neighbors`` order), ``source`` is its own parent and
    unreached vertices read ``-1``.  With ``target`` the search stops as
    soon as it is reached, so only vertices reached by then are set."""
    parent = np.full(g.n, -1, dtype=np.int64)
    parent[source] = source
    frontier = [source]
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            for y in g.neighbors(x):
                y = int(y)
                if parent[y] < 0:
                    parent[y] = x
                    if y == target:
                        return parent
                    nxt.append(y)
        frontier = nxt
    return parent


def bfs_path(g: Graph, u: int, v: int) -> Optional[List[int]]:
    """An exact shortest ``u``–``v`` path (the parent chain of
    :func:`bfs_parents`), or ``None`` when ``v`` is unreachable."""
    if u == v:
        return [u]
    parent = bfs_parents(g, u, v)
    if parent[v] < 0:
        return None
    path = [v]
    while path[-1] != u:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def multi_source_bfs(
    g: Graph, sources: Sequence[int], max_dist: float = np.inf
) -> np.ndarray:
    """Distance to the *nearest* of ``sources``, truncated at ``max_dist``.

    Level-synchronous BFS on :func:`repro.kernels.multi_source_bfs`: each
    level gathers the CSR neighbour slabs of the whole frontier in one
    vectorized pass, so the cost is ``O(m)`` total with no per-vertex
    Python work.
    """
    return kernels.multi_source_bfs(
        g.indptr, g.indices, g.n, sources, max_dist=max_dist
    )


def ball(g: Graph, v: int, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """The ball ``B(v, radius, G)``: vertices within distance ``radius`` of
    ``v`` (including ``v``), returned as ``(vertices, distances)`` sorted by
    distance then vertex id."""
    dist = bfs_distances(g, v, max_dist=radius)
    inside = np.flatnonzero(dist <= radius)
    order = np.lexsort((inside, dist[inside]))
    inside = inside[order]
    return inside, dist[inside]


def k_nearest_within(
    g: Graph, v: int, k: int, d: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(k, d)``-nearest of ``v`` (Section 2): the ``k`` closest
    vertices at distance at most ``d`` (all of them if fewer), ties broken
    by vertex id.  ``v`` itself (distance 0) is included, matching the
    matrix-based definition where the diagonal is 0."""
    verts, dists = ball(g, v, d)
    return verts[:k], dists[:k]


def all_pairs_distances(g: Graph, method: str = "scipy") -> np.ndarray:
    """Exact unweighted APSP as an ``(n, n)`` float matrix.

    ``method="scipy"`` uses the C BFS in :mod:`scipy.sparse.csgraph`;
    ``method="bfs"`` runs the library's own level-synchronous BFS per source
    (used in tests to cross-validate the scipy fast path).
    """
    if method == "scipy":
        if g.n == 0:
            return np.zeros((0, 0))
        return csgraph.shortest_path(to_scipy_csr(g), method="D", unweighted=True)
    if method == "bfs":
        out = np.empty((g.n, g.n))
        for s in range(g.n):
            out[s] = bfs_distances(g, s)
        return out
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# Weighted distances
# ----------------------------------------------------------------------

def hop_limited_bellman_ford(
    wg: WeightedGraph, sources: Sequence[int], max_hops: int
) -> np.ndarray:
    """``max_hops``-hop-bounded distances from each source (Bellman–Ford).

    Returns a ``(len(sources), n)`` matrix whose entry ``[i, v]`` is
    ``d^{max_hops}(sources[i], v)`` in ``wg`` — exactly the quantity the
    ``(S, d)``-source detection task of Theorem 11 computes.

    The route depends on the weights alone:

    * unit weights take the batched multi-wave BFS kernel (hop bound and
      distance bound coincide, so the results are identical);
    * integral weights ``>= 1`` run scipy's C Dijkstra from every source
      and keep each row whose largest finite distance is at most
      ``max_hops``: a path of length ``L`` then has at most ``L`` hops, so
      ``d^h(s, v) = d(s, v)`` whenever ``d(s, v) <= h``, and integral sums
      below ``2**53`` are exact, so the row is bit-identical to the relax
      fixpoint.  Only the other rows (where the hop bound may bind) run
      :func:`repro.kernels.hop_limited_relax`, from their own seeds;
    * any other weights run :func:`repro.kernels.hop_limited_relax` on
      every row.

    Under ``force_backend("reference")`` every weighted row runs the
    relax kernel.
    """
    n = wg.n
    src = np.asarray(list(sources), dtype=np.int64)
    us, vs, ws = wg.edge_arrays()
    if us.size == 0 or src.size == 0 or max_hops <= 0:
        return _seeds(n, src)
    if np.all(ws == 1.0):
        indptr, indices = kernels.edges_to_csr(n, us, vs)
        return kernels.batched_bfs(indptr, indices, n, src, max_dist=max_hops)

    def relax(rows: np.ndarray) -> np.ndarray:
        # Directed relaxation arcs (both orientations); the kernel groups
        # them by target so one reduceat performs the scatter-min per hop.
        return kernels.hop_limited_relax(
            _seeds(n, rows), np.concatenate([us, vs]), np.concatenate([vs, us]),
            np.concatenate([ws, ws]), max_hops,
        )

    if reference_forced() or not np.all((ws >= 1.0) & (ws % 1.0 == 0.0)):
        return relax(src)
    exact = csgraph.dijkstra(weighted_to_scipy_csr(wg), directed=False, indices=src)
    reach = exact.max(axis=1, initial=0.0, where=np.isfinite(exact))
    far = np.flatnonzero(reach > min(max_hops, 2.0**53))
    if far.size:
        exact[far] = relax(src[far])
    return exact


def _seeds(n: int, src: np.ndarray) -> np.ndarray:
    """The 0-hop distances: 0 at each row's source, ``inf`` elsewhere."""
    dist = np.full((src.size, n), np.inf)
    dist[np.arange(src.size), src] = 0.0
    return dist


def dijkstra(wg: WeightedGraph, source: int, max_dist: float = np.inf) -> np.ndarray:
    """Single-source Dijkstra on a :class:`WeightedGraph`, truncated at
    ``max_dist``."""
    dist = np.full(wg.n, np.inf)
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] or d > max_dist:
            continue
        for v, w in wg.neighbors(u).items():
            nd = d + w
            if nd < dist[v] and nd <= max_dist:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def weighted_all_pairs(wg: WeightedGraph, sources: Sequence[int] | None = None) -> np.ndarray:
    """Exact weighted distances from ``sources`` (default: all vertices) in
    ``wg``, via the C Dijkstra in scipy.  Shape ``(len(sources), n)``."""
    mat = weighted_to_scipy_csr(wg)
    if sources is None:
        return csgraph.dijkstra(mat, directed=False)
    sources = list(sources)
    if not sources:
        return np.zeros((0, wg.n))
    return csgraph.dijkstra(mat, directed=False, indices=sources)


# ----------------------------------------------------------------------
# Conversions and diameter
# ----------------------------------------------------------------------

def to_scipy_csr(g: Graph) -> sp.csr_matrix:
    """Unweighted graph as a symmetric 0/1 scipy CSR matrix."""
    e = g.edges()
    if len(e) == 0:
        return sp.csr_matrix((g.n, g.n))
    data = np.ones(2 * len(e))
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def weighted_to_scipy_csr(wg: WeightedGraph) -> sp.csr_matrix:
    """Weighted graph as a symmetric scipy CSR matrix of weights."""
    us, vs, ws = wg.edge_arrays()
    if us.size == 0:
        return sp.csr_matrix((wg.n, wg.n))
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    data = np.concatenate([ws, ws])
    return sp.csr_matrix((data, (rows, cols)), shape=(wg.n, wg.n))


def eccentricity(g: Graph, v: int) -> float:
    """Max finite distance from ``v`` (``inf`` if ``v`` reaches nothing)."""
    d = bfs_distances(g, v)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else np.inf


def diameter(g: Graph) -> float:
    """The (unweighted) diameter over reachable pairs; 0 for edgeless graphs."""
    if g.n == 0:
        return 0.0
    dist = all_pairs_distances(g)
    finite = dist[np.isfinite(dist)]
    return float(finite.max()) if finite.size else 0.0
