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
from dataclasses import dataclass
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
    "TreeLabels",
    "hanging_tree_labels",
    "core_distances",
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
    ``wg``.  Shape ``(len(sources), n)``; duplicate sources repeat rows.

    The route depends on the weights alone:

    * integral weights ``>= 1`` (summing below ``2**53``) peel the trees
      hanging off the 2-core (:func:`hanging_tree_labels`) and run scipy's
      Dijkstra on the core alone, from the roots of the requested rows;
      :meth:`TreeLabels.rows` fills the result from the labels.  Integral
      sums below ``2**53`` are exact in any order, so every entry is
      bit-identical to a Dijkstra on the whole graph.  The fill allocates
      the result, the core rows and one entry per pair of vertices
      inside one hanging tree;
    * other weights, graphs with no degree-1 vertex and
      ``force_backend("reference")`` run scipy's C Dijkstra on the whole
      graph.
    """
    n = wg.n
    if sources is None:
        rows = np.arange(n)
    else:
        rows = np.asarray(list(sources), dtype=np.int64)
        if rows.size == 0:
            return np.zeros((0, n))
    labels = hanging_tree_labels(wg)
    if labels.core.size == n:
        return csgraph.dijkstra(
            weighted_to_scipy_csr(wg), directed=False,
            indices=None if sources is None else rows,
        )
    heads, at = np.unique(labels.root[rows], return_inverse=True)
    return labels.rows(core_distances(wg, labels, heads), at, rows)


@dataclass(frozen=True)
class TreeLabels:
    """A weighted graph as its 2-core plus the trees hanging off it.

    A hanging tree meets the rest of the graph only at its root, a core
    vertex, so with ``Dc`` the exact distances of the core alone,

    * ``d(x, y) = Dc[root x, root y] + depth x + depth y`` when the roots
      differ, and
    * ``d(x, y) = (depth x - depth l) + (depth y - depth l)`` inside one
      tree, with ``l`` the lowest common ancestor of ``x`` and ``y``.

    Per vertex: ``root`` is the row of its tree's root in the core order
    (core vertices ascending, so a core vertex is its own root), ``depth``
    its weighted depth below the root, ``parent`` its tree parent and
    ``hops`` its hop depth; core vertices have depth 0, parent ``-1`` and
    hop depth 0.  Arrays read from an artifact may be int32 and float32;
    :meth:`widened` gives the int64/float64 form the query methods
    expect, so every sum is a float64 sum."""

    root: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    hops: np.ndarray

    @property
    def core(self) -> np.ndarray:
        """The core vertices, ascending: row ``i`` of ``Dc`` is
        ``core[i]``."""
        return np.flatnonzero(self.parent < 0)

    def widened(self) -> "TreeLabels":
        """The labels as int64 ids and float64 depths."""
        return TreeLabels(
            root=np.asarray(self.root, dtype=np.int64),
            depth=np.asarray(self.depth, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int64),
            hops=np.asarray(self.hops, dtype=np.int64),
        )

    def pair_keys(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """One int64 key per unordered pair: ``min * N + max`` over the
        ``N`` labelled vertices."""
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        return lo.astype(np.int64) * self.root.size + hi

    def tree_distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Distances between pairs that share a root: a batched walk up
        ``parent`` to the lowest common ancestor.  Each step lifts the end
        with more hops (both when equal), so it takes at most the largest
        hop depth in the batch."""
        a, b = us.copy(), vs.copy()
        ha, hb = self.hops[us], self.hops[vs]
        live = np.flatnonzero(a != b)
        while live.size:
            x, y, hx, hy = a[live], b[live], ha[live], hb[live]
            lift_x, lift_y = hx >= hy, hy >= hx
            a[live] = np.where(lift_x, self.parent[x], x)
            b[live] = np.where(lift_y, self.parent[y], y)
            ha[live] = hx - lift_x
            hb[live] = hy - lift_y
            live = live[a[live] != b[live]]
        lca = self.depth[a]
        return (self.depth[us] - lca) + (self.depth[vs] - lca)

    def distances(
        self, core_dist: np.ndarray, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """Exact distances of the pairs ``(us[i], vs[i])``; ``core_dist`` is
        the ``(c, c)`` ``Dc`` in any float dtype, widened as it is
        gathered."""
        ru, rv = self.root[us], self.root[vs]
        out = np.asarray(core_dist[ru, rv], dtype=np.float64)
        out += self.depth[us]
        out += self.depth[vs]
        same = np.flatnonzero(ru == rv)
        if same.size:
            out[same] = self.tree_distances(us[same], vs[same])
        return out

    def rows(
        self, core_dist: np.ndarray, at: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The ``(len(rows), n)`` exact distances from ``rows``, where row
        ``at[i]`` of ``core_dist`` holds the core distances of
        ``rows[i]``'s root."""
        out = core_dist[np.ix_(at, self.root)]
        out += self.depth[rows][:, None]
        out += self.depth
        # Pairs inside one hanging tree: every row against the vertices
        # sharing its root, as one slab gather over a root -> vertices CSR.
        c = int(core_dist.shape[1])
        size = np.bincount(self.root, minlength=c)
        indptr = np.concatenate([[0], np.cumsum(size)])
        members = np.argsort(self.root, kind="stable")
        r = self.root[rows]
        deep = np.flatnonzero(size[r] >= 2)
        i, cols = kernels.slab_gather_owners(indptr, members, r[deep], deep)
        out[i, cols] = self.tree_distances(rows[i], cols)
        return out


def hanging_tree_labels(wg: WeightedGraph) -> TreeLabels:
    """The :class:`TreeLabels` of ``wg``.  Trees are peeled only where
    the label sums are exact in any order: integral weights ``>= 1``
    summing below ``2**53``, and not under
    ``force_backend("reference")``; otherwise, as in a graph with no
    degree-1 vertex, every vertex is core."""
    us, vs, ws = wg.edge_arrays()
    if (
        reference_forced()
        or not np.all((ws >= 1.0) & (ws % 1.0 == 0.0))
        or ws.sum() >= 2.0**53
    ):
        # Peel nothing: every vertex is its own root.
        us = vs = np.empty(0, dtype=np.int64)
        ws = np.empty(0)
    return _hanging_trees(wg.n, us, vs, ws)


def core_distances(
    wg: WeightedGraph, labels: TreeLabels, heads: Optional[np.ndarray] = None
) -> np.ndarray:
    """scipy's Dijkstra on the 2-core of ``wg`` alone: the rows ``heads``
    (positions in ``labels.core``; all of them by default) of ``Dc``."""
    core = labels.core
    mat = weighted_to_scipy_csr(wg)
    return csgraph.dijkstra(mat[core][:, core], directed=False, indices=heads)


def _hanging_trees(
    n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> TreeLabels:
    """Peel degree-1 vertices, round by round, down to the 2-core.

    Isolated vertices stay in the core; of the two ends of an isolated
    edge only the larger peels, so a tree component keeps one root.
    """
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    # The XOR of a vertex's unpeeled neighbours and the sum of their edge
    # weights: at degree 1 they are its last neighbour and edge weight.
    other = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(other, us, vs)
    np.bitwise_xor.at(other, vs, us)
    wsum = np.bincount(us, ws, minlength=n) + np.bincount(vs, ws, minlength=n)
    rounds = []
    leaves = np.flatnonzero(deg == 1)
    while leaves.size:
        up = other[leaves]
        keep = (deg[up] != 1) | (leaves > up)
        leaves, up = leaves[keep], up[keep]
        w = wsum[leaves]
        rounds.append((leaves, up, w))
        deg[leaves] = 0
        np.subtract.at(deg, up, 1)
        np.bitwise_xor.at(other, up, leaves)
        np.subtract.at(wsum, up, w)
        up = np.unique(up)
        leaves = up[deg[up] == 1]
    root = np.arange(n)
    depth = np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    hops = np.zeros(n, dtype=np.int64)
    for leaves, up, w in reversed(rounds):
        root[leaves] = root[up]
        depth[leaves] = depth[up] + w
        parent[leaves] = up
        hops[leaves] = hops[up] + 1
    row = np.cumsum(parent < 0) - 1
    return TreeLabels(root=row[root], depth=depth, parent=parent, hops=hops)


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
