"""``(1 + eps, beta)``-approximate APSP (Theorem 32).

Build the sparse emulator, let every vertex learn all of it (the emulator
has ``O(n log log n)`` edges, so Lenzen-routing it to one vertex, splitting
into ``n`` chunks and rebroadcasting costs ``O(log log n)`` rounds), then
each vertex locally computes shortest paths in the emulator — free in the
Congested Clique's unbounded-local-computation convention.

The local all-pairs is kept in label form (:class:`NearAdditiveLabels`):
the exact distances of the emulator's 2-core plus per-vertex labels of
the trees hanging off it (:class:`~repro.graph.distances.TreeLabels`),
``O(c^2 + n)`` numbers for a core of ``c`` vertices.  The oracle build
stores that form; :func:`apsp_near_additive` expands it into the
``(n, n)`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import kernels
from ..cliquesim.costs import learn_subgraph_rounds
from ..cliquesim.ledger import RoundLedger
from ..derand import build_emulator_deterministic
from ..emulator.builder import build_emulator
from ..emulator.clique import build_emulator_cc
from ..emulator.params import EmulatorParams
from ..emulator.whp import build_emulator_whp
from ..graph.distances import TreeLabels, core_distances, hanging_tree_labels
from ..graph.graph import Graph
from ..variants import EmulatorConstruction, emulator_construction, register_emulator_construction
from .result import DistanceResult

__all__ = [
    "NearAdditiveLabels",
    "apsp_near_additive",
    "build_emulator_variant",
    "emulator_guarantee",
    "near_additive_labels",
]


def _ideal_guarantee(params) -> tuple[float, float]:
    # Lemma 23: (1 + 20 eps r, beta) — with target-rescaling,
    # (1 + eps_target, beta).
    return params.multiplicative, params.beta


def _clique_guarantee(params) -> tuple[float, float]:
    # Appendix C.3 pays a factor 4: (1 + 80 eps r, 2 beta), i.e.
    # (1 + 4 eps_target, 2 beta).
    return 1.0 + 80.0 * params.eps * params.r, 2.0 * params.beta


# The second variant axis: the four Section 3 / Section 5 emulator
# constructions, declared once for every consumer (near-additive, 2+eps,
# 3+eps, MSSP all dispatch through the registry).
register_emulator_construction(EmulatorConstruction(
    name="ideal",
    build=lambda g, eps, r, rng, ledger: build_emulator(g, eps=eps, r=r, rng=rng),
    guarantee=_ideal_guarantee,
    eps_scale=0.5,
))
register_emulator_construction(EmulatorConstruction(
    name="cc",
    build=lambda g, eps, r, rng, ledger: build_emulator_cc(
        g, eps=eps, r=r, rng=rng, ledger=ledger),
    guarantee=_clique_guarantee,
))
register_emulator_construction(EmulatorConstruction(
    name="whp",
    build=lambda g, eps, r, rng, ledger: build_emulator_whp(
        g, eps=eps, r=r, rng=rng, ledger=ledger),
    guarantee=_clique_guarantee,
))
register_emulator_construction(EmulatorConstruction(
    name="deterministic",
    build=lambda g, eps, r, rng, ledger: build_emulator_deterministic(
        g, eps=eps, r=r, ledger=ledger),
    guarantee=_clique_guarantee,
    deterministic=True,
))


def emulator_guarantee(result, variant: str) -> tuple[float, float]:
    """The proven ``(multiplicative, additive)`` stretch of an emulator
    result, from the construction's registered guarantee formula."""
    return emulator_construction(variant).guarantee(result.params)


def build_emulator_variant(
    g: Graph,
    eps: float,
    r: int,
    variant: str,
    rng: Optional[np.random.Generator],
    ledger: RoundLedger,
):
    """Dispatch to a registered emulator construction."""
    return emulator_construction(variant).build(g, eps, r, rng, ledger)


@dataclass(frozen=True)
class NearAdditiveLabels:
    """Theorem 32's output before expansion: the emulator ``H``'s
    all-pairs as :class:`~repro.graph.distances.TreeLabels` plus the
    ``(c, c)`` core distances ``core_dist``, and ``G``'s own edges, which
    each vertex folds in at weight 1."""

    labels: TreeLabels
    core_dist: np.ndarray
    graph_edges: np.ndarray
    name: str
    multiplicative: float
    additive: float
    ledger: RoundLedger
    stats: Dict[str, object] = field(default_factory=dict)

    def estimates(self) -> np.ndarray:
        """The ``(n, n)`` estimate matrix: ``H``'s distances with ``G``'s
        edges folded in and the diagonal zeroed."""
        n = self.labels.root.size
        out = self.labels.rows(self.core_dist, self.labels.root, np.arange(n))
        e = self.graph_edges
        kernels.fold_in_edges(out, e[:, 0], e[:, 1])
        return out

    def edge_keys(self, n: int) -> np.ndarray:
        """The pairs the fold-in lowers, among vertices below ``n``: the
        sorted :meth:`~repro.graph.distances.TreeLabels.pair_keys` of
        ``G``'s edges whose distance in ``H`` exceeds 1."""
        e = self.graph_edges[self.graph_edges[:, 1] < n]
        us, vs = e[:, 0], e[:, 1]
        far = self.labels.distances(self.core_dist, us, vs) > 1.0
        return np.sort(self.labels.pair_keys(us[far], vs[far]))


def near_additive_labels(
    g: Graph,
    eps: float,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    variant: str = "cc",
    ledger: Optional[RoundLedger] = None,
) -> NearAdditiveLabels:
    """Theorem 32 in label form: build the emulator, charge the rounds for
    every vertex to learn it, and label its all-pairs (the local step, no
    rounds).  ``variant`` selects the emulator construction, as in
    :func:`apsp_near_additive`."""
    if ledger is None:
        ledger = RoundLedger()
    if r is None:
        r = EmulatorParams.default_r(g.n)
    result = build_emulator_variant(g, eps, r, variant, rng, ledger)

    # Everybody learns the emulator (Theorem 32's collective).
    ledger.charge(
        learn_subgraph_rounds(result.emulator.m, g.n), "apsp:learn-emulator"
    )

    labels = hanging_tree_labels(result.emulator)
    mult, add = emulator_guarantee(result, variant)
    return NearAdditiveLabels(
        labels=labels,
        core_dist=core_distances(result.emulator, labels),
        graph_edges=g.edges(),
        name=f"(1+eps,beta)-APSP[{variant}]",
        multiplicative=mult,
        additive=add,
        ledger=ledger,
        stats={
            "emulator_edges": result.emulator.m,
            "beta": result.params.beta,
            "eps": eps,
            "r": r,
            "variant": variant,
        },
    )


def apsp_near_additive(
    g: Graph,
    eps: float,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    variant: str = "cc",
    ledger: Optional[RoundLedger] = None,
) -> DistanceResult:
    """Theorem 32 / 51: ``(1 + eps, beta)``-APSP in ``O(log^2(beta)/eps)``
    rounds, ``beta = O(log log n / eps)^{log log n}``.

    ``variant`` selects the emulator construction: ``"cc"`` (Section 3.5,
    default), ``"ideal"`` (Section 3.2 exact balls), ``"whp"``
    (Theorem 31) or ``"deterministic"`` (Theorem 50).  The estimates are
    :meth:`NearAdditiveLabels.estimates` of :func:`near_additive_labels`.
    """
    res = near_additive_labels(g, eps, r, rng, variant, ledger)
    return DistanceResult(
        name=res.name,
        estimates=res.estimates(),
        multiplicative=res.multiplicative,
        additive=res.additive,
        ledger=res.ledger,
        stats=res.stats,
    )
