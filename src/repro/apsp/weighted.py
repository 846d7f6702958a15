"""Small-integer-weight extension via edge subdivision.

The paper's results are for *unweighted* graphs; the weighted case is
explicitly open (Section 6).  For graphs with small positive integer
weights there is a classical reduction that stays inside the paper's
machinery: subdivide every weight-``w`` edge into ``w`` unit edges
(``w - 1`` auxiliary vertices), run the unweighted algorithms, and read
the answers off the original vertices — distances between original
vertices are preserved exactly.

The blowup is ``n' = n + sum_e (w_e - 1)``, so this is practical only for
bounded weights (the round guarantees then hold in ``n'``); the module
exists to make the library usable on lightly-weighted workloads and to
delimit precisely what the open problem would remove.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from ..cliquesim.ledger import RoundLedger
from ..graph.graph import Graph, WeightedGraph
from .mssp import mssp
from .near_additive import NearAdditiveLabels, near_additive_labels
from .result import DistanceResult

__all__ = [
    "SubdividedGraph",
    "apsp_weighted",
    "mssp_weighted",
    "near_additive_labels_weighted",
    "subdivide",
]


@dataclass(frozen=True)
class SubdividedGraph:
    """A unit-weight subdivision of an integer-weighted graph.

    ``graph`` has the original vertices ``0..n-1`` first, then the
    auxiliary subdivision vertices.
    """

    graph: Graph
    original_n: int

    @property
    def blowup(self) -> int:
        """Number of auxiliary vertices added."""
        return self.graph.n - self.original_n


def subdivide(wg: WeightedGraph) -> SubdividedGraph:
    """Replace each integer-weight edge by a unit path of that length."""
    edges: List[Tuple[int, int]] = []
    next_id = wg.n
    for u, v, w in wg.edges():
        if w != int(w) or w < 1:
            raise ValueError(
                f"subdivision needs positive integer weights, got {w} on "
                f"({u}, {v})"
            )
        w = int(w)
        if w == 1:
            edges.append((u, v))
            continue
        chain = [u] + list(range(next_id, next_id + w - 1)) + [v]
        next_id += w - 1
        edges.extend((a, b) for a, b in zip(chain, chain[1:]))
    return SubdividedGraph(graph=Graph(next_id, edges), original_n=wg.n)


def mssp_weighted(
    wg: WeightedGraph,
    sources: Sequence[int],
    eps: float,
    r: int | None = None,
    rng: np.random.Generator | None = None,
    ledger: RoundLedger | None = None,
) -> DistanceResult:
    """``(1 + eps)``-MSSP on an integer-weighted graph via subdivision."""
    sub = subdivide(wg)
    res = mssp(sub.graph, sources, eps=eps, r=r, rng=rng, ledger=ledger)
    out = DistanceResult(
        name=f"(1+eps)-MSSP[weighted, blowup={sub.blowup}]",
        estimates=res.estimates[:, : sub.original_n],
        multiplicative=res.multiplicative,
        additive=res.additive,
        ledger=res.ledger,
        sources=res.sources,
        stats=dict(res.stats, blowup=sub.blowup, subdivided_n=sub.graph.n),
    )
    return out


def near_additive_labels_weighted(
    wg: WeightedGraph,
    eps: float,
    r: int | None = None,
    rng: np.random.Generator | None = None,
    ledger: RoundLedger | None = None,
) -> NearAdditiveLabels:
    """Theorem 32's label form on the subdivided graph: the labels cover
    all ``n'`` subdivided vertices, the original ones first."""
    sub = subdivide(wg)
    res = near_additive_labels(sub.graph, eps=eps, r=r, rng=rng, ledger=ledger)
    return replace(
        res,
        name=f"(1+eps,beta)-APSP[weighted, blowup={sub.blowup}]",
        stats=dict(res.stats, blowup=sub.blowup, subdivided_n=sub.graph.n),
    )


def apsp_weighted(
    wg: WeightedGraph,
    eps: float,
    r: int | None = None,
    rng: np.random.Generator | None = None,
    ledger: RoundLedger | None = None,
) -> DistanceResult:
    """``(1 + eps, beta)``-APSP on an integer-weighted graph via
    subdivision (the additive ``beta`` is in *weight units*, matching the
    unweighted guarantee on the subdivided graph)."""
    res = near_additive_labels_weighted(wg, eps, r=r, rng=rng, ledger=ledger)
    return DistanceResult(
        name=res.name,
        estimates=res.estimates()[: wg.n, : wg.n],
        multiplicative=res.multiplicative,
        additive=res.additive,
        ledger=res.ledger,
        stats=res.stats,
    )
