"""Core graph data structures.

Two structures are used throughout the library:

* :class:`Graph` — an immutable unweighted undirected graph in CSR
  (compressed sparse row) form.  This is the *input* object of every
  algorithm in the paper (all results are for unweighted undirected graphs).

* :class:`WeightedGraph` — a mutable weighted undirected multigraph-free
  edge map.  Emulators, hopsets and union graphs ``G ∪ H`` are weighted even
  when the input is unweighted, so every overlay structure produced by the
  library is a :class:`WeightedGraph`.

Vertices are always ``0 .. n-1`` integers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..kernels.csr import edges_to_csr

__all__ = ["Graph", "WeightedGraph"]


class Graph:
    """An immutable unweighted undirected graph stored in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops are rejected; duplicate
        edges (in either orientation) are collapsed.
    """

    __slots__ = ("n", "m", "indptr", "indices", "_edge_array")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = int(n)

        pairs = _canonical_edge_array(n, edges)
        self._edge_array = pairs
        self.m = int(pairs.shape[0])

        # Build CSR over the symmetrized edge set.
        self.indptr, self.indices = edges_to_csr(
            self.n, pairs[:, 0], pairs[:, 1]
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adj: Dict[int, Iterable[int]], n: int | None = None) -> "Graph":
        """Build a graph from an adjacency mapping ``u -> neighbours``."""
        if n is None:
            n = 0
            for u, nbrs in adj.items():
                n = max(n, u + 1, *(v + 1 for v in nbrs)) if nbrs else max(n, u + 1)
        edges = [(u, v) for u, nbrs in adj.items() for v in nbrs]
        return cls(n, edges)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """The graph with ``n`` vertices and no edges."""
        return cls(n, [])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` as a sorted integer array (view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an ``(n,)`` array."""
        return np.diff(self.indptr)

    def edges(self) -> np.ndarray:
        """The canonical ``(m, 2)`` edge array with ``u < v`` per row."""
        return self._edge_array

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < len(nbrs) and nbrs[pos] == v

    def subgraph_with_max_degree(self, max_degree: int) -> "Graph":
        """The subgraph keeping only edges incident to a vertex of degree
        at most ``max_degree`` (the graph ``G'`` of Section 4.3)."""
        deg = self.degrees()
        e = self._edge_array
        if not len(e):
            return Graph.empty(self.n)
        keep = (deg[e[:, 0]] <= max_degree) | (deg[e[:, 1]] <= max_degree)
        return Graph(self.n, e[keep])

    def adjacency_matrix(self, dtype=np.float64, no_edge: float = np.inf) -> np.ndarray:
        """Dense min-plus adjacency matrix: 0 on the diagonal, 1 on edges,
        ``no_edge`` elsewhere."""
        a = np.full((self.n, self.n), no_edge, dtype=dtype)
        np.fill_diagonal(a, 0)
        e = self._edge_array
        if len(e):
            a[e[:, 0], e[:, 1]] = 1
            a[e[:, 1], e[:, 0]] = 1
        return a

    def to_weighted(self) -> "WeightedGraph":
        """A unit-weight :class:`WeightedGraph` copy of this graph."""
        w = WeightedGraph(self.n)
        e = self._edge_array
        if len(e):
            w.add_edges_arrays(e[:, 0], e[:, 1], np.ones(len(e)))
        return w

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class WeightedGraph:
    """A mutable weighted undirected graph (edge map with min-combining).

    Adding an edge that already exists keeps the *minimum* weight — exactly
    the semantics needed when an emulator/hopset inserts ``{u, v}`` edges
    weighted by (approximate) distances possibly multiple times.
    """

    __slots__ = ("n", "_adj", "_m", "_edge_cache")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = int(n)
        self._adj: List[Dict[int, float]] = [dict() for _ in range(n)]
        self._m = 0
        self._edge_cache: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> bool:
        """Insert ``{u, v}`` with ``weight``; keeps the minimum on duplicates.
        Returns True iff the edge did not exist before (weight updates on an
        existing edge return False)."""
        if u == v:
            return False
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={self.n}")
        if weight < 0:
            raise ValueError(f"negative weight {weight} on edge ({u}, {v})")
        cur = self._adj[u].get(v)
        if cur is None:
            self._adj[u][v] = float(weight)
            self._adj[v][u] = float(weight)
            self._m += 1
            self._edge_cache = None
            return True
        if weight < cur:
            self._adj[u][v] = float(weight)
            self._adj[v][u] = float(weight)
            self._edge_cache = None
        return False

    def add_edges_arrays(
        self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
    ) -> int:
        """Bulk-insert parallel edge arrays ``(us[i], vs[i], ws[i])`` with
        min-combining; self loops are skipped (matching :meth:`add_edge`).
        Returns the number of *new* edges created (duplicates inside the
        arrays count once; weight updates on existing edges count zero).

        Validation is vectorized up front so the insertion loop is pure
        dict traffic — this is the bulk path the batched emulator/hopset
        builders use instead of per-edge :meth:`add_edge` calls.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ws = np.asarray(ws, dtype=np.float64)
        if not (us.shape == vs.shape == ws.shape) or us.ndim != 1:
            raise ValueError("us, vs, ws must be equal-length 1-D arrays")
        if us.size == 0:
            return 0
        if (
            (us < 0).any() or (us >= self.n).any()
            or (vs < 0).any() or (vs >= self.n).any()
        ):
            raise IndexError(f"edge endpoint out of range for n={self.n}")
        if (ws < 0).any():
            raise ValueError("negative weight in bulk edge insert")
        added = 0
        lowered = False
        adj = self._adj
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            if u == v:
                continue
            row = adj[u]
            cur = row.get(v)
            if cur is None:
                row[v] = w
                adj[v][u] = w
                added += 1
            elif w < cur:
                row[v] = w
                adj[v][u] = w
                lowered = True
        # A call that adds no edge and lowers no weight keeps the cache:
        # the hopset's fixpoint check re-reads it right after such a call.
        if added or lowered:
            self._edge_cache = None
        self._m += added
        return added

    def add_edges_from(self, triples: Iterable[Tuple[int, int, float]]) -> None:
        """Insert many ``(u, v, weight)`` edges."""
        for u, v, w in triples:
            self.add_edge(u, v, w)

    def union_update(self, other: "WeightedGraph") -> None:
        """In-place union with ``other`` (min weight on common edges)."""
        if other.n != self.n:
            raise ValueError("union of graphs with different vertex counts")
        self.add_edges_arrays(*other.edge_arrays())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        """Weight of ``{u, v}`` or ``inf`` if absent."""
        return self._adj[u].get(v, np.inf)

    def neighbors(self, v: int) -> Dict[int, float]:
        """Mapping ``u -> weight`` of neighbours of ``v`` (live view)."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return len(self._adj[v])

    @property
    def m(self) -> int:
        """Number of (undirected) edges (O(1): maintained incrementally)."""
        return self._m

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` with ``u < v``."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield u, v, w

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list as parallel arrays ``(us, vs, ws)`` with ``u < v``,
        sorted by ``(u, v)``.

        The arrays are memoized on the instance (every mutation that
        adds an edge or lowers a weight invalidates the cache) because
        `source_detection`/hopset pipelines re-read them many times per
        build; treat them as read-only views.
        """
        if self._edge_cache is None:
            us, vs, ws = [], [], []
            for u, v, w in self.edges():
                us.append(u)
                vs.append(v)
                ws.append(w)
            ua = np.asarray(us, dtype=np.int64)
            va = np.asarray(vs, dtype=np.int64)
            wa = np.asarray(ws, dtype=np.float64)
            # Canonical (u, v) order: edges() yields v in dict-insertion
            # order, which depends on the build path (per-vertex vs
            # batched); sorting makes the arrays path-independent.
            order = np.lexsort((va, ua))
            cached = (ua[order], va[order], wa[order])
            for arr in cached:
                arr.setflags(write=False)
            self._edge_cache = cached
        return self._edge_cache

    def copy(self) -> "WeightedGraph":
        """A deep copy."""
        g = WeightedGraph(self.n)
        for u in range(self.n):
            g._adj[u] = dict(self._adj[u])
        g._m = self._m
        return g

    @classmethod
    def union(cls, a: "WeightedGraph", b: "WeightedGraph") -> "WeightedGraph":
        """The union ``a ∪ b`` with min weights on common edges."""
        g = a.copy()
        g.union_update(b)
        return g

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _canonical_edge_array(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Canonicalize an edge iterable to a deduplicated ``(m, 2)`` array
    with ``u < v`` per row, validating ranges and rejecting self loops."""
    raw = np.asarray(list(edges), dtype=np.int64)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    if (raw < 0).any() or (raw >= n).any():
        raise IndexError(f"edge endpoint out of range for n={n}")
    if (raw[:, 0] == raw[:, 1]).any():
        raise ValueError("self loops are not allowed")
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs
