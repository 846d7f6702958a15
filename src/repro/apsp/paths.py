"""Approximate path reconstruction from emulators.

The paper's algorithms output *distance estimates*; downstream users
usually also want the paths.  Emulator edges are weighted by (possibly
approximate) ``G``-distances, so an emulator shortest path expands into a
real path of ``G`` of the same or shorter length: walk the emulator path
and replace every emulator edge ``{a, b}`` by an exact shortest ``a``–``b``
path of ``G`` (BFS).  The expanded path therefore certifies the distance
estimate — its length is at most the emulator distance, and at least
``d_G(u, v)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse.csgraph as csgraph

from ..emulator.builder import EmulatorResult
from ..graph.distances import bfs_path, weighted_to_scipy_csr
from ..graph.graph import Graph, WeightedGraph

__all__ = ["EmulatorPathOracle"]


class EmulatorPathOracle:
    """Answers approximate shortest-path queries through an emulator.

    Parameters
    ----------
    g:
        The original unweighted graph.
    emulator:
        A weighted emulator of ``g`` (any of the library's constructions).
    """

    def __init__(self, g: Graph, emulator: WeightedGraph):
        if emulator.n != g.n:
            raise ValueError("emulator and graph vertex counts differ")
        self.g = g
        self.emulator = emulator
        self._csr = weighted_to_scipy_csr(emulator)
        self._pred_cache: Dict[int, np.ndarray] = {}
        self._dist_cache: Dict[int, np.ndarray] = {}

    @classmethod
    def from_result(cls, g: Graph, result: EmulatorResult) -> "EmulatorPathOracle":
        """Build from an :class:`EmulatorResult`."""
        return cls(g, result.emulator)

    # ------------------------------------------------------------------
    def _sssp(self, source: int) -> None:
        if source in self._pred_cache:
            return
        dist, pred = csgraph.dijkstra(
            self._csr, directed=False, indices=source, return_predecessors=True
        )
        self._pred_cache[source] = pred
        self._dist_cache[source] = dist

    def emulator_path(self, u: int, v: int) -> Optional[List[int]]:
        """The emulator-edge path from ``u`` to ``v`` (vertex list), or
        ``None`` if unreachable in the emulator."""
        self._sssp(u)
        pred = self._pred_cache[u]
        if u != v and pred[v] < 0:
            return None
        path = [v]
        while path[-1] != u:
            path.append(int(pred[path[-1]]))
        path.reverse()
        return path

    def graph_path(self, u: int, v: int) -> Optional[List[int]]:
        """An actual path of ``G`` from ``u`` to ``v`` whose length is at
        most the emulator distance (and hence within the emulator's
        stretch guarantee), or ``None`` if unreachable."""
        hops = self.emulator_path(u, v)
        if hops is None:
            return None
        full: List[int] = [u]
        for a, b in zip(hops, hops[1:]):
            segment = bfs_path(self.g, int(a), int(b))
            if segment is None:
                return None
            full.extend(segment[1:])
        return full

    def estimate(self, u: int, v: int) -> float:
        """The emulator distance estimate for ``(u, v)``."""
        self._sssp(u)
        return float(self._dist_cache[u][v])

    def path_length(self, u: int, v: int) -> float:
        """Length (edge count) of the reconstructed ``G``-path, or ``inf``."""
        path = self.graph_path(u, v)
        return float(len(path) - 1) if path is not None else np.inf


def validate_path(g: Graph, path: List[int]) -> bool:
    """Whether consecutive vertices of ``path`` are edges of ``g``."""
    return all(g.has_edge(int(a), int(b)) for a, b in zip(path, path[1:]))
