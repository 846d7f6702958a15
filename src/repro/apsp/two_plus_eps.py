"""``(2 + eps)``-approximate APSP (Theorem 34, Section 4.3).

The algorithm splits pairs ``(u, v)`` into regimes and combines (by
entrywise min) an estimate sound for each:

* ``d(u, v) >= t = Θ(beta/eps)`` — the emulator is a ``(1+eps)``-approx.
* short pairs whose shortest path has a **high-degree** vertex
  (``deg >= sqrt(n) log n``): route through a hitting set ``S`` of the
  high-degree neighbourhoods; ``d(u,s) + d(s,v) <= 2 d(u,v) + 2``.
* short pairs with all-low-degree paths — inside the sparsified graph
  ``G'`` (only edges incident to low-degree vertices):

  - Case 1: a common member of the two ``(k, t)``-nearest sets
    (``k = n^{1/4} log^2 n``) lies on the path — distance-through-sets.
  - Case 2: the path leaves both neighbourhoods — route through the
    pivot ``p_A(u)`` of a hitting set ``A`` of the ``(k, t)``-nearest.
  - Case 3: path = (u ⇝ u') + (u', v') + (v' ⇝ v) with
    ``u' ∈ N_{k,t}(u)``, ``v' ∈ N_{k,t}(v)``:
    high-degree-in-``G'`` ``u'`` routes via a neighbour in the hitting
    set ``A'`` (sets ``A'_u``, one sparse min-plus product);
    low-degree ``u'`` is handled exactly by the three-matrix product
    ``W1 · W2 · W3`` over ``E''`` (edges with a ``<= n/k^2``-degree
    endpoint).

All matrix products run through the sparse min-plus kernel with
Theorem 36 round charges; the densities are the ones the paper engineers
(``k``, ``|A'|``, ``n/k^2``), keeping every product ``O(1)`` rounds.
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
from ..derand.dnf_hitting import dnf_hitting_set
from ..matmul.sparse import sparse_minplus_with_cost
from ..toolkit.hitting import random_hitting_set
from ..toolkit.hopsets import build_bounded_hopset
from ..toolkit.nearest import kd_nearest_bfs
from ..toolkit.source_detection import source_detection
from ..toolkit.through_sets import distance_through_sets
from ..variants import emulator_construction
from .near_additive import build_emulator_variant, emulator_guarantee
from .result import DistanceResult

__all__ = ["apsp_two_plus_eps"]


def apsp_two_plus_eps(
    g: Graph,
    eps: float,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    variant: str = "cc",
    ledger: Optional[RoundLedger] = None,
    deterministic: bool = False,
) -> DistanceResult:
    """Theorem 34 / 53: ``(2 + eps)``-APSP in ``O(log^2(beta)/eps)``
    rounds.

    ``deterministic=True`` gives Theorem 53: the emulator, hopsets and all
    three hitting sets (``S``, ``A``, ``A'``) use their deterministic
    constructions (Lemma 9 via the DNF conditional-expectation
    derandomization), adding the ``O((log log n)^{3..4})`` terms."""
    if deterministic:
        variant = "deterministic"
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if ledger is None:
        ledger = RoundLedger()
    if rng is None:
        rng = np.random.default_rng(0)
    if r is None:
        r = EmulatorParams.default_r(g.n)
    n = g.n
    logn = max(1.0, math.log2(max(n, 2)))
    eps_half = eps / 2.0

    # ------------------------------------------------------------------
    # Long pairs: emulator with multiplicative term <= eps/2.
    # ------------------------------------------------------------------
    eps_emu = eps * emulator_construction(variant).eps_scale
    emu = build_emulator_variant(g, eps_emu, r, variant, rng, ledger)
    ledger.charge(learn_subgraph_rounds(emu.emulator.m, n), "apsp2:learn-emulator")
    delta = weighted_all_pairs(emu.emulator)
    mult_a, additive_b = emulator_guarantee(emu, variant)
    t = max(1, math.ceil(additive_b / (eps - (mult_a - 1.0))))

    # Own edges (Line 1 of the high-degree stage) and the diagonal.
    e = g.edges()
    kernels.fold_in_edges(delta, e[:, 0], e[:, 1])

    # ------------------------------------------------------------------
    # High-degree stage: hitting set S over N(v), deg(v) >= sqrt(n) log n.
    # ------------------------------------------------------------------
    degree_threshold = math.sqrt(n) * logn
    degrees = g.degrees()
    high = np.flatnonzero(degrees >= degree_threshold)
    if high.size == 0:
        s_set = np.zeros(0, dtype=np.int64)
    elif deterministic:
        s_set = dnf_hitting_set(
            [g.neighbors(int(v)).tolist() for v in high], n, ledger=ledger
        )
    else:
        s_set = random_hitting_set(
            n, max(1, math.ceil(degree_threshold)), rng, ledger=ledger
        )
        s_set = _patch_neighbour_hitting(g, s_set, high)

    hop = build_bounded_hopset(
        g, eps=eps_half, t=2 * t, rng=rng, ledger=ledger,
        deterministic=deterministic,
    )
    union = hop.union_with(g)
    if len(s_set):
        to_s, _ = source_detection(
            union, [int(s) for s in s_set], hop.beta, ledger=ledger,
            phase="apsp2:source-detection-S",
        )
        delta[:, s_set] = np.minimum(delta[:, s_set], to_s.T)
        delta[s_set, :] = np.minimum(delta[s_set, :], to_s)
        through, _ = distance_through_sets(
            delta[:, s_set].copy(), ledger=ledger, phase="apsp2:through-S"
        )
        np.minimum(delta, through, out=delta)

    # ------------------------------------------------------------------
    # Low-degree stage inside G'.
    # ------------------------------------------------------------------
    gp = g.subgraph_with_max_degree(int(degree_threshold))
    k = min(n, max(1, math.ceil(n ** 0.25 * logn**2)))

    # Line 2-3: (k, t)-nearest in G' and common-member routing.
    # Densified once: the estimates it is folded into are (n, n) anyway.
    nk = kd_nearest_bfs(gp, k, t, ledger=ledger)[0].dense()
    np.minimum(delta, nk, out=delta)
    np.minimum(delta, nk.T, out=delta)
    through_nk, _ = distance_through_sets(nk, ledger=ledger, phase="apsp2:through-Nkt")
    np.minimum(delta, through_nk, out=delta)

    # Line 4-7: pivots A over full (k, t)-neighbourhoods of G'.
    nk_finite = np.isfinite(nk)
    full_vertices = np.flatnonzero(nk_finite.sum(axis=1) >= k)
    full_rows = [np.flatnonzero(nk_finite[v]).tolist() for v in full_vertices]
    if not full_rows:
        a_set = np.zeros(0, dtype=np.int64)
    elif deterministic:
        a_set = dnf_hitting_set(full_rows, n, ledger=ledger)
    else:
        a_set = random_hitting_set(n, k, rng, ledger=ledger)
        a_set = _patch_nearest_hitting(a_set, nk, k)
    hop_gp = build_bounded_hopset(
        gp, eps=eps_half, t=2 * t, rng=rng, ledger=ledger,
        deterministic=deterministic,
    )
    union_gp = hop_gp.union_with(gp)
    if len(a_set):
        to_a, _ = source_detection(
            union_gp, [int(a) for a in a_set], hop_gp.beta, ledger=ledger,
            phase="apsp2:source-detection-A",
        )
        delta[:, a_set] = np.minimum(delta[:, a_set], to_a.T)
        delta[a_set, :] = np.minimum(delta[a_set, :], to_a)
        # Route through the *closest* pivot p_A(u) only (Line 7).
        pa = _closest_pivot(nk, a_set)
        has = pa >= 0
        if has.any():
            rows = np.flatnonzero(has)
            via = delta[rows, pa[rows]][:, None] + delta[pa[rows], :]
            delta[rows, :] = np.minimum(delta[rows, :], via)
            delta[:, rows] = np.minimum(delta[:, rows], via.T)

    # Lines 8-11: hitting set A' over G'-neighbourhoods of degree >= n/k^2.
    gp_degrees = np.zeros(n, dtype=np.int64)
    gpe = gp.edges()
    if len(gpe):
        gp_degrees = np.bincount(gpe.ravel(), minlength=n)
    low_thresh = n / (k * k)
    high_gp = np.flatnonzero(gp_degrees >= max(low_thresh, 1.0))
    if high_gp.size == 0:
        ap_set = np.zeros(0, dtype=np.int64)
    elif deterministic:
        ap_set = dnf_hitting_set(
            [gp.neighbors(int(v)).tolist() for v in high_gp], n, ledger=ledger
        )
    else:
        ap_set = random_hitting_set(
            n, max(1, math.ceil(low_thresh)), rng, ledger=ledger
        )
        ap_set = _patch_neighbour_hitting(gp, ap_set, high_gp)
    if len(ap_set):
        to_ap, _ = source_detection(
            union_gp, [int(a) for a in ap_set], hop_gp.beta, ledger=ledger,
            phase="apsp2:source-detection-Aprime",
        )
        delta[:, ap_set] = np.minimum(delta[:, ap_set], to_ap.T)
        delta[ap_set, :] = np.minimum(delta[ap_set, :], to_ap)
        # A'_u: one A'-neighbour per member of N_{k,t}(u) that has one.
        m1 = _build_m1(gp, nk, ap_set, delta)
        m2 = np.full((n, n), np.inf)
        m2[ap_set, :] = delta[ap_set, :]
        prod, _ = sparse_minplus_with_cost(
            m1, m2, n, ledger=ledger, phase="apsp2:matmul-Aprime"
        )
        np.minimum(delta, prod, out=delta)

    # Lines 12-14: exact three-matrix product over E''.
    w1 = nk  # distances u -> N_{k,t}(u)
    w2 = np.full((n, n), np.inf)
    if len(gpe):
        lo_mask = gp_degrees <= low_thresh
        eu, ev = gpe[:, 0], gpe[:, 1]
        from_lo = lo_mask[eu]
        w2[eu[from_lo], ev[from_lo]] = 1.0
        to_lo = lo_mask[ev]
        w2[ev[to_lo], eu[to_lo]] = 1.0
    prod12, _ = sparse_minplus_with_cost(
        w1, w2, n, ledger=ledger, phase="apsp2:matmul-W1W2"
    )
    prod123, _ = sparse_minplus_with_cost(
        prod12, w1.T, n, ledger=ledger, phase="apsp2:matmul-W12W3"
    )
    np.minimum(delta, prod123, out=delta)
    np.minimum(delta, prod123.T, out=delta)
    np.fill_diagonal(delta, 0.0)

    return DistanceResult(
        name=f"(2+eps)-APSP[{'deterministic' if deterministic else variant}]",
        estimates=delta,
        multiplicative=2.0 + eps,
        additive=0.0,
        ledger=ledger,
        stats={
            "t": t,
            "k": k,
            "|S|": int(len(s_set)),
            "|A|": int(len(a_set)),
            "|A'|": int(len(ap_set)),
            "emulator_edges": emu.emulator.m,
            "gp_edges": gp.m,
        },
    )


def _patch_neighbour_hitting(g: Graph, s_set: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Guarantee every listed vertex has a neighbour in the set (the
    deterministic w.h.p. fix-up)."""
    chosen = np.zeros(g.n, dtype=bool)
    chosen[s_set] = True
    for v in high:
        nbrs = g.neighbors(int(v))
        if nbrs.size and not chosen[nbrs].any():
            chosen[nbrs[0]] = True
    return np.flatnonzero(chosen).astype(np.int64)


def _patch_nearest_hitting(a_set: np.ndarray, nk: np.ndarray, k: int) -> np.ndarray:
    """Guarantee every full ``(k, t)``-row contains a pivot."""
    n = nk.shape[0]
    chosen = np.zeros(n, dtype=bool)
    chosen[a_set] = True
    finite_mask = np.isfinite(nk)
    for v in np.flatnonzero(finite_mask.sum(axis=1) >= k):
        finite = np.flatnonzero(finite_mask[v])
        if not chosen[finite].any():
            # argmin's first-hit rule = smallest column id on ties.
            chosen[finite[np.argmin(nk[v, finite])]] = True
    return np.flatnonzero(chosen).astype(np.int64)


def _closest_pivot(nk: np.ndarray, a_set: np.ndarray) -> np.ndarray:
    """``p_A(u)``: the closest ``A``-member within the ``(k, t)``-nearest
    of each vertex, or -1 (ties by vertex id)."""
    n = nk.shape[0]
    if len(a_set) == 0:
        return np.full(n, -1, dtype=np.int64)
    a_sorted = np.sort(np.asarray(a_set, dtype=np.int64))
    sub = nk[:, a_sorted]  # argmin's first-hit rule = id tie-break
    best = np.argmin(sub, axis=1)
    found = np.isfinite(sub[np.arange(n), best])
    return np.where(found, a_sorted[best], -1)


def _build_m1(
    gp: Graph, nk: np.ndarray, ap_set: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """The matrix ``M1[u, w] = delta(u, w)`` for ``w ∈ A'_u`` — one
    ``A'``-neighbour per ``(k, t)``-nearest member that has one."""
    n = gp.n
    ap_mask = np.zeros(n, dtype=bool)
    ap_mask[ap_set] = True
    # First (sorted) A'-neighbour per vertex (broadcast once in the real
    # algorithm), found over all CSR slabs at once: hit positions are
    # ascending, so the first hit per owner row is the entry np.unique keeps.
    ap_neighbour = np.full(n, -1, dtype=np.int64)
    hit_pos = np.flatnonzero(ap_mask[gp.indices])
    if hit_pos.size:
        owners = np.searchsorted(gp.indptr, hit_pos, side="right") - 1
        first_owner, first_idx = np.unique(owners, return_index=True)
        ap_neighbour[first_owner] = gp.indices[hit_pos[first_idx]]
    m1 = np.full((n, n), np.inf)
    u_idx, members = np.nonzero(np.isfinite(nk))
    ws = ap_neighbour[members]
    has = ws >= 0
    m1[u_idx[has], ws[has]] = delta[u_idx[has], ws[has]]
    return m1
