"""The w.h.p. size variant of the emulator (Theorem 31, Claim 30).

The base construction bounds the emulator size only *in expectation*.
Theorem 31 upgrades this to w.h.p.: simulate ``O(log n)`` independent
hierarchy draws (cheap — the draws share a single ``(k, d)``-nearest
computation), evaluate for each draw

1. the number of edges added by vertices outside ``S_r``,
2. ``|S_r| = O(sqrt n)``,
3. every heavy vertex finds an ``S_r`` member among its ``k``-nearest,

and run the full algorithm only for the best draw satisfying (2) and (3)
(minimum edge count, which by Markov is ``O(r n^{1+1/2^r})`` in at least a
constant fraction of draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cliquesim.ledger import RoundLedger
from ..graph.graph import Graph
from ..kernels import NearestRows
from ..kernels.config import reference_forced
from ..toolkit.nearest import kd_nearest_bfs
from .builder import EmulatorResult, edges_for_vertex
from .clique import build_emulator_cc
from .params import EmulatorParams
from .sampling import Hierarchy, sample_hierarchy

__all__ = ["DrawEvaluation", "evaluate_draw", "build_emulator_whp"]


@dataclass(frozen=True)
class DrawEvaluation:
    """Per-draw statistics used by the Theorem 31 selection rule."""

    non_sr_edges: int
    sr_size: int
    heavy_all_hit: bool

    def admissible(self, n: int, sr_bound_constant: float = 3.0) -> bool:
        """Events (2) and (3): small ``S_r`` and all heavy vertices hit."""
        return (
            self.sr_size <= sr_bound_constant * math.sqrt(max(n, 1))
            and self.heavy_all_hit
        )


def evaluate_draw(
    nearest: NearestRows,
    hierarchy: Hierarchy,
    params: EmulatorParams,
    k: int,
) -> DrawEvaluation:
    """Evaluate one hierarchy draw against the three Claim 30 events, using
    only the shared ``(k, delta_r)``-nearest rows (no new BFS).

    Rows are bucketed by level and counted in one pass over each level's
    CSR entries, as the batched emulator build reads them;
    ``force_backend("reference")`` routes to the original per-vertex loop.
    """
    r = params.r
    sr_mask = hierarchy.masks[r]
    if reference_forced():
        return _evaluate_draw_reference(nearest, hierarchy, params, k)
    edges = 0
    heavy_all_hit = True
    for level in range(r):
        rows = np.flatnonzero(hierarchy.levels == level)
        if rows.size == 0:
            continue
        radius = params.deltas[level]
        owner, cols, dists = nearest.take(rows)
        within = dists <= radius
        light = np.bincount(owner[within], minlength=rows.size) < k
        # Light rows: one edge if the ball meets S_{level+1}, else one per
        # S_level ball member at positive distance (the edge rule's count).
        dense = np.zeros(rows.size, dtype=bool)
        dense[owner[within & hierarchy.masks[level + 1][cols]]] = True
        light_dense = light & dense
        sparse = (
            within & (light & ~dense)[owner]
            & hierarchy.masks[level][cols] & (dists > 0)
        )
        edges += int(light_dense.sum()) + int(sparse.sum())
        # Heavy rows: one edge each; the Claim 30 hit event is checked.
        heavy = ~light
        edges += int(heavy.sum())
        hit = np.zeros(rows.size, dtype=bool)
        hit[owner[sr_mask[cols]]] = True
        if (heavy & ~hit).any():
            heavy_all_hit = False
    return DrawEvaluation(
        non_sr_edges=edges,
        sr_size=int(sr_mask.sum()),
        heavy_all_hit=heavy_all_hit,
    )


def _evaluate_draw_reference(
    nearest: NearestRows,
    hierarchy: Hierarchy,
    params: EmulatorParams,
    k: int,
) -> DrawEvaluation:
    """The original one-vertex-at-a-time Claim 30 evaluation loop,
    densifying one row at a time."""
    n = nearest.n
    r = params.r
    sr_mask = hierarchy.masks[r]
    edges = 0
    heavy_all_hit = True
    for v in range(n):
        level = int(hierarchy.levels[v])
        if level >= r:
            continue
        radius = params.deltas[level]
        row = nearest.dense_row(v)
        finite = np.flatnonzero(np.isfinite(row))
        order = np.lexsort((finite, row[finite]))
        finite = finite[order]
        within = finite[row[finite] <= radius]
        if within.size < k:
            is_dense, vertex_edges = edges_for_vertex(
                level, within, row[within], hierarchy
            )
            edges += len(vertex_edges)
        else:
            # Heavy vertex: one edge if hit; the hit event is checked.
            edges += 1
            if not sr_mask[finite].any():
                heavy_all_hit = False
    return DrawEvaluation(
        non_sr_edges=edges,
        sr_size=int(sr_mask.sum()),
        heavy_all_hit=heavy_all_hit,
    )


def build_emulator_whp(
    g: Graph,
    eps: float,
    r: int,
    rng: Optional[np.random.Generator] = None,
    num_draws: Optional[int] = None,
    rescale: bool = True,
    ledger: Optional[RoundLedger] = None,
) -> EmulatorResult:
    """Theorem 31: run ``O(log n)`` parallel hierarchy draws, pick a good
    one, then build via the clique pipeline.

    Returns the :class:`EmulatorResult` of the chosen draw; its stats gain
    ``num_draws``, ``chosen_draw`` and the per-draw evaluations.
    """
    if ledger is None:
        ledger = RoundLedger()
    if rng is None:
        rng = np.random.default_rng(0)
    params = (
        EmulatorParams.from_target_eps(eps, r)
        if rescale
        else EmulatorParams(eps=eps, r=r)
    )
    n = g.n
    if num_draws is None:
        num_draws = max(1, math.ceil(math.log2(max(n, 2))))

    # Shared (k, d)-nearest computation (Claim 30: one run serves all draws).
    k = min(n, max(1, math.ceil(n ** (2.0 / 3.0))))
    d = max(1, math.ceil(params.delta_r))
    nearest, _ = kd_nearest_bfs(g, k, d, ledger=ledger)
    # Announcing all O(log n) level vectors costs O(log log log n) rounds.
    ledger.charge(
        max(1.0, math.log2(max(math.log2(max(math.log2(max(n, 4)), 2)), 2))),
        "emulator-whp:announce-draws",
    )

    draws: List[Hierarchy] = [sample_hierarchy(n, r, rng) for _ in range(num_draws)]
    evals = [evaluate_draw(nearest, h, params, k) for h in draws]
    del nearest  # the chosen draw's build runs its own (k, d)-nearest
    ledger.charge(1, "emulator-whp:evaluate-and-agree")

    admissible = [i for i, e in enumerate(evals) if e.admissible(n)]
    pool = admissible if admissible else list(range(num_draws))
    chosen = min(pool, key=lambda i: evals[i].non_sr_edges)

    result = build_emulator_cc(
        g,
        eps=eps,
        r=r,
        rng=rng,
        hierarchy=draws[chosen],
        params=params,
        rescale=rescale,
        ledger=ledger,
    )
    result.stats["num_draws"] = num_draws
    result.stats["chosen_draw"] = chosen
    result.stats["draw_evaluations"] = evals
    result.stats["had_admissible_draw"] = bool(admissible)
    return result
