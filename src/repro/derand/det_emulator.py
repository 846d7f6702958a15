"""The deterministic emulator (Section 5.1).

The randomized construction samples the hierarchy ``S_1 ⊃ … ⊃ S_r``; the
deterministic one builds it level by level:

* ``S'_{i+1}`` is a **soft hitting set** (Lemma 43) for the family
  ``{T_v = B(v, delta_i, G) ∩ S'_i}`` over the *light* vertices
  ``v ∈ S'_i`` whose ``T_v`` has at least ``Delta = c / p_{i+1}``
  elements.  Property (i) gives ``|S'_{i+1}| <= |S'_i| p_{i+1}`` (the same
  decay as sampling, Claim 45); property (ii) bounds the edges added by
  missed sparse vertices (Claim 46) — a plain hitting set would inflate
  the emulator by a ``log n`` factor.
* ``A`` is a plain deterministic hitting set (Lemma 9) for the
  ``(k, delta_{i'})``-neighbourhoods of *heavy* vertices (``k = n^{2/3}``),
  making every heavy vertex dense.  ``S_i = S'_i ∪ A``.

The edge-adding stage and the ``S_r × S_r`` hopset stage then run exactly
as in the clique build with deterministic sub-procedures.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..cliquesim.costs import det_hitting_set_rounds, soft_hitting_set_rounds
from ..cliquesim.ledger import RoundLedger
from ..emulator.builder import EmulatorResult
from ..emulator.clique import build_emulator_cc
from ..emulator.params import EmulatorParams, sampling_probabilities
from ..emulator.sampling import Hierarchy
from ..graph.graph import Graph
from ..kernels.config import reference_forced
from ..toolkit.hitting import deterministic_hitting_set
from ..toolkit.nearest import kd_nearest_bfs
from .conditional import deterministic_soft_hitting_set
from .soft_hitting import SoftHittingInstance

__all__ = ["build_deterministic_hierarchy", "build_emulator_deterministic"]


def build_deterministic_hierarchy(
    g: Graph,
    params: EmulatorParams,
    ledger: Optional[RoundLedger] = None,
    c_soft: float = 2.0,
    use_soft: bool = True,
) -> Hierarchy:
    """Construct the Section 5.1 hierarchy ``S_i = S'_i ∪ A``.

    ``use_soft=False`` substitutes a *plain* derandomized hitting set for
    the soft one at every level — the ablation the paper argues against
    (it inflates each level, and hence the emulator, by a log factor)."""
    n = g.n
    r = params.r
    probs = sampling_probabilities(n, r)
    k = min(n, max(1, math.ceil(n ** (2.0 / 3.0))))
    d = max(1, math.ceil(params.delta_r))
    nearest, _ = kd_nearest_bfs(g, k, d, ledger=ledger)

    reference = reference_forced()
    if reference:
        # Sorted-by-distance finite entries per vertex (one lexsort each
        # over the densified row).
        finite_rows: List[np.ndarray] = []
        for v in range(n):
            row = nearest.dense_row(v)
            finite = np.flatnonzero(np.isfinite(row))
            order = np.lexsort((finite, row[finite]))
            finite_rows.append(finite[order])

    sprime = np.ones(n, dtype=bool)
    sprime_rows = [sprime.copy()]
    heavy_first_iteration = np.full(n, -1, dtype=np.int64)

    for i in range(r):
        radius = params.deltas[i]
        delta_bound = max(1, math.ceil(c_soft / probs[i + 1]))
        members: List[int] = []
        sets: List[np.ndarray] = []
        if reference:
            for v in np.flatnonzero(sprime):
                finite = finite_rows[v]
                row = nearest.dense_row(v)
                within = finite[row[finite] <= radius]
                heavy = within.size >= k
                if heavy:
                    if heavy_first_iteration[v] < 0:
                        heavy_first_iteration[v] = i
                    continue
                t_v = within[sprime[within]]
                if t_v.size >= delta_bound:
                    members.append(v)
                    sets.append(t_v)
        else:
            # Vectorized candidate preselection: ball sizes and
            # |T_v| = |ball ∩ S'_i| for every active row at once; only the
            # rows that actually join the instance extract their set.  Rows
            # are sorted by (distance, id), so a ball is a row prefix.
            active = np.flatnonzero(sprime)
            owner, cols, dists = nearest.take(active)
            within = dists <= radius
            within_counts = np.bincount(owner[within], minlength=active.size)
            heavy = within_counts >= k
            newly_heavy = active[heavy]
            newly_heavy = newly_heavy[heavy_first_iteration[newly_heavy] < 0]
            heavy_first_iteration[newly_heavy] = i
            t_counts = np.bincount(
                owner[within & sprime[cols]], minlength=active.size
            )
            cand = np.flatnonzero(~heavy & (t_counts >= delta_bound))
            for idx in cand.tolist():
                v = int(active[idx])
                start = nearest.indptr[v]
                ball = nearest.cols[start : start + int(within_counts[idx])]
                members.append(v)
                sets.append(ball[sprime[ball]])
        if sets:
            if use_soft:
                instance = SoftHittingInstance(
                    universe=np.flatnonzero(sprime),
                    sets=sets,
                    delta=delta_bound,
                )
                chosen = deterministic_soft_hitting_set(instance, n=n, ledger=ledger)
            else:
                from .dnf_hitting import dnf_hitting_set

                chosen = dnf_hitting_set(sets, n, delta=delta_bound, ledger=ledger)
        else:
            chosen = np.zeros(0, dtype=np.int64)
            if ledger is not None:
                ledger.charge(soft_hitting_set_rounds(n), "soft-hitting-set:empty-level")
        nxt = np.zeros(n, dtype=bool)
        nxt[chosen] = True
        sprime = sprime & nxt
        sprime_rows.append(sprime.copy())

    # The heavy-vertex hitting set A over A_v = N_{k, delta_{i'}}(v).
    heavy_vertices = np.flatnonzero(heavy_first_iteration >= 0)
    if heavy_vertices.size:
        heavy_sets = []
        for v in heavy_vertices:
            radius = params.deltas[heavy_first_iteration[v]]
            if reference:
                row = nearest.dense_row(v)
                finite = finite_rows[v]
                heavy_sets.append(finite[row[finite] <= radius][:k])
            else:
                lo, hi = nearest.indptr[v], nearest.indptr[v + 1]
                heavy_sets.append(nearest.cols[lo:hi][nearest.dists[lo:hi] <= radius])
        a_set = deterministic_hitting_set(heavy_sets, n, ledger=ledger)
    else:
        a_set = np.zeros(0, dtype=np.int64)
        if ledger is not None:
            ledger.charge(det_hitting_set_rounds(n), "hitting-set:empty-A")

    a_mask = np.zeros(n, dtype=bool)
    a_mask[a_set] = True
    masks = [np.ones(n, dtype=bool)]
    for i in range(1, r + 1):
        masks.append(sprime_rows[i] | a_mask)
    return Hierarchy.from_masks(np.vstack(masks))


def build_emulator_deterministic(
    g: Graph,
    eps: float,
    r: int,
    rescale: bool = True,
    ledger: Optional[RoundLedger] = None,
) -> EmulatorResult:
    """Theorem 50: the fully deterministic emulator —
    ``O(r n^{1+1/2^r})`` edges, stretch ``(1 + eps, beta)``, in
    ``O(log^2(beta)/eps + r (log log n)^3)`` rounds."""
    if ledger is None:
        ledger = RoundLedger()
    params = (
        EmulatorParams.from_target_eps(eps, r)
        if rescale
        else EmulatorParams(eps=eps, r=r)
    )
    hierarchy = build_deterministic_hierarchy(g, params, ledger=ledger)
    result = build_emulator_cc(
        g,
        eps=eps,
        r=r,
        hierarchy=hierarchy,
        params=params,
        rescale=rescale,
        ledger=ledger,
        deterministic_hopset=True,
    )
    result.stats["deterministic"] = True
    return result
