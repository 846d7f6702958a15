"""The simple ``(3 + eps)``-approximate APSP (Section 4.3 intro).

The warm-up for Theorem 34: with ``A`` a random ``O(sqrt n)`` set, every
vertex has an ``A``-member among its ``k = sqrt(n) log n`` closest w.h.p.
For a pair ``(u, v)`` at distance ``<= t`` either ``v`` is among the
``(k, t)``-nearest of ``u`` (exact distance known), or the pivot
``p_A(u)`` satisfies ``d(u, p_A(u)) <= d(u, v)``, so routing through it
costs at most ``3 d(u, v)``; distances to ``A`` within ``2t`` come from a
bounded hopset + source detection (hence the ``+eps``).  Long pairs
(``d >= t``) use the emulator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import kernels
from ..cliquesim.costs import learn_subgraph_rounds
from ..cliquesim.ledger import RoundLedger
from ..emulator.params import EmulatorParams
from ..graph.distances import weighted_all_pairs
from ..graph.graph import Graph
from ..toolkit.hitting import random_hitting_set
from ..toolkit.hopsets import build_bounded_hopset
from ..toolkit.nearest import kd_nearest_bfs
from ..toolkit.source_detection import source_detection
from ..toolkit.through_sets import distance_through_sets
from ..variants import emulator_construction
from .near_additive import build_emulator_variant, emulator_guarantee
from .result import DistanceResult

__all__ = ["apsp_three_plus_eps"]


def apsp_three_plus_eps(
    g: Graph,
    eps: float,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    variant: str = "cc",
    ledger: Optional[RoundLedger] = None,
) -> DistanceResult:
    """``(3 + eps)``-APSP in ``poly(log log n)`` rounds."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if ledger is None:
        ledger = RoundLedger()
    if rng is None:
        rng = np.random.default_rng(0)
    if r is None:
        r = EmulatorParams.default_r(g.n)
    n = g.n

    # Long distances: emulator with multiplicative term <= eps/2.
    eps_emu = eps * emulator_construction(variant).eps_scale
    emu = build_emulator_variant(g, eps_emu, r, variant, rng, ledger)
    ledger.charge(learn_subgraph_rounds(emu.emulator.m, n), "apsp3:learn-emulator")
    delta = weighted_all_pairs(emu.emulator)
    mult_a, additive_b = emulator_guarantee(emu, variant)
    t = max(1, math.ceil(additive_b / (eps - (mult_a - 1.0))))

    # (k, t)-nearest with k = sqrt(n) log n: exact short distances.
    k = min(n, max(1, math.ceil(math.sqrt(n) * max(1.0, math.log2(max(n, 2))))))
    # Densified once: the estimates it is folded into are (n, n) anyway.
    nearest = kd_nearest_bfs(g, k, t, ledger=ledger)[0].dense()
    np.minimum(delta, nearest, out=delta)
    np.minimum(delta, nearest.T, out=delta)

    # Pivot set A hitting every full (k, t)-neighbourhood.
    a_set = random_hitting_set(n, k, rng, ledger=ledger)
    a_set = _patch(a_set, nearest, k)
    del nearest  # the hopset build below runs its own (k, t)-nearest

    # (1 + eps/2)-approximate distances to A within 2t.
    hop = build_bounded_hopset(g, eps=eps / 2.0, t=2 * t, rng=rng, ledger=ledger)
    union = hop.union_with(g)
    to_a, _ = source_detection(
        union, [int(a) for a in a_set], hop.beta, ledger=ledger,
        phase="apsp3:source-detection",
    )
    delta[:, a_set] = np.minimum(delta[:, a_set], to_a.T)
    delta[a_set, :] = np.minimum(delta[a_set, :], to_a)

    # Route through the pivot p_A(u): min_a delta[u, a] + delta[a, v] with
    # W_u = A for everyone (distance-through-sets, Theorem 35).
    masked = np.full((n, len(a_set)), np.inf)
    masked[:, :] = delta[:, a_set]
    through, _ = distance_through_sets(masked, ledger=ledger, phase="apsp3:through-A")
    np.minimum(delta, through, out=delta)

    # Own edges and diagonal.
    e = g.edges()
    kernels.fold_in_edges(delta, e[:, 0], e[:, 1])

    return DistanceResult(
        name=f"(3+eps)-APSP[{variant}]",
        estimates=delta,
        multiplicative=3.0 + eps,
        additive=0.0,
        ledger=ledger,
        stats={
            "t": t,
            "k": k,
            "pivots": int(len(a_set)),
            "hopset_edges": hop.num_edges,
            "emulator_edges": emu.emulator.m,
        },
    )


def _patch(a_set: np.ndarray, nearest: np.ndarray, k: int) -> np.ndarray:
    """Ensure every full ``(k, t)``-row contains a pivot (w.h.p. fix-up)."""
    chosen = set(int(a) for a in a_set)
    extra = []
    for v in range(nearest.shape[0]):
        finite = np.flatnonzero(np.isfinite(nearest[v]))
        if finite.size < k:
            continue
        if not any(int(u) in chosen for u in finite):
            order = np.lexsort((finite, nearest[v][finite]))
            pick = int(finite[order[0]]) if finite[order[0]] != v else int(
                finite[order[min(1, finite.size - 1)]]
            )
            chosen.add(pick)
            extra.append(pick)
    if extra:
        return np.asarray(sorted(chosen), dtype=np.int64)
    return a_set
