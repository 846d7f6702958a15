"""Near-additive *spanners* from emulators.

An emulator may use weighted non-graph edges; a **spanner** must be a
subgraph of ``G``.  Replacing every emulator edge ``{u, v}`` (weight
``w >= d_G(u, v)``) by the edges of one exact shortest ``u``–``v`` path
yields a subgraph whose distances are at most the emulator's distances:
every emulator path expands into a ``G``-path of the same or shorter
length.  The spanner therefore inherits the emulator's ``(1 + eps, beta)``
stretch; its size is at most ``sum_e w_e`` (each emulator edge contributes
at most ``w`` graph edges), which stays near-linear because emulator
weights are bounded by ``delta_r``.

This is the classical emulator-to-spanner route the paper's introduction
alludes to for the ``O(n^rho)``-round CONGEST constructions [10, 12].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from ..graph.distances import bfs_parents
from ..graph.graph import Graph, WeightedGraph

__all__ = ["SpannerResult", "emulator_to_spanner"]


@dataclass
class SpannerResult:
    """A subgraph spanner extracted from an emulator."""

    spanner: Graph
    expanded_edges: int  # emulator edges that required path expansion

    @property
    def num_edges(self) -> int:
        """Number of spanner edges."""
        return self.spanner.m


def emulator_to_spanner(g: Graph, emulator: WeightedGraph) -> SpannerResult:
    """Expand each emulator edge into an exact shortest path of ``g``.

    Expansion reuses one BFS parent tree per distinct expansion source, so
    the cost is ``O((#sources) * m)``.
    """
    if emulator.n != g.n:
        raise ValueError("emulator and graph vertex counts differ")
    edges: Set[Tuple[int, int]] = set()
    expanded = 0
    by_source: dict = {}
    for u, v, _w in emulator.edges():
        by_source.setdefault(u, []).append(v)
    for u, targets in by_source.items():
        parent = bfs_parents(g, u)
        for v in targets:
            if g.has_edge(u, v):
                edges.add((min(u, v), max(u, v)))
                continue
            expanded += 1
            x = v
            while x != u and parent[x] >= 0:
                p = int(parent[x])
                edges.add((min(x, p), max(x, p)))
                x = p
    return SpannerResult(
        spanner=Graph(g.n, sorted(edges)), expanded_edges=expanded
    )
