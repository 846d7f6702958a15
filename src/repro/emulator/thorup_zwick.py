"""The Thorup–Zwick emulator and bunch structures (Appendix A).

TZ [32]: given the sampled hierarchy ``S_0 ⊃ S_1 ⊃ … (S_{r+1} = ∅)``,
every vertex ``v`` at level ``i`` adds

* an edge to its *pivot* — the globally closest vertex of ``S_{i+1}``
  (if any), and
* edges to every ``u ∈ S_i`` that is **strictly closer** than the pivot
  (all of ``S_i`` when no pivot exists),

with exact-distance weights.  Unlike Section 3.2's construction the
exploration radius is unbounded ("global"), which is why TZ resists a
sub-logarithmic Congested Clique implementation — the very gap the
paper's local variant closes.

Appendix A's structural claim, which we reproduce as a test: **for any
eps, every edge of the Section 3.2 emulator is also a TZ edge** (under
the same hierarchy).  This is the sense in which the paper's emulator is
a "localized TZ", and it explains TZ's universality (one emulator, all
eps).

Beyond the emulator, :func:`build_tz_bunches` constructs the *classic*
TZ distance-oracle preprocessing — per-vertex pivots ``p_i(v)`` at every
level and the full multi-level bunches ``B(v) = ∪_i {w ∈ S_i \\ S_{i+1} :
d(v, w) < d(v, S_{i+1})}`` — the persistent structure the serving layer
(:mod:`repro.oracle`) snapshots and answers queries from with a 2-hop
bunch/cluster min-plus combine (stretch ``2k - 1`` for ``k = r + 1``
levels).

**The cluster pass.**  Both structures come from one pass over the
*clusters* ``C(w) = {v : d(w, v) < d(v, S_{i+1})}`` of the centres
``w ∈ S_i \\ S_{i+1}`` — the transpose of the bunch relation
(``v ∈ C(w)`` iff ``w ∈ B(v)``):

1. *Nearest members.*  For each level ``i = 1..r`` one multi-source
   search from ``S_i`` records ``d(·, S_i)`` and the pivot ``p_i(·)``
   (smallest id on ties): level-synchronous BFS waves whose new labels
   are the ``np.minimum.at`` of the parents' labels on an unweighted
   :class:`Graph`, a label-correcting relax over ``(distance, pivot)``
   pairs on a :class:`WeightedGraph`.
2. *Pruned growth.*  All centres of a level grow their clusters at once
   over one sparse frontier of ``(centre, vertex)`` keys; a key is
   settled only while ``d(w, v) < d(v, S_{i+1})``.  Unweighted graphs
   advance in BFS waves (in an undirected graph a candidate is new iff
   it is in neither of the previous two waves); weighted graphs relax
   the keys to a label-correcting fixpoint.

Clusters are closed under shortest-path prefixes (if ``v ∈ C(w)`` and
``u`` lies on a shortest ``w``–``v`` path, then ``d(w, u) = d(w, v) -
d(u, v) < d(v, S_{i+1}) - d(u, v) <= d(u, S_{i+1})``), so the pruned
search reaches every member and nothing else.  Its cost is
``Σ_w |C(w)| · deg`` — expected ``O(k n^{1/k} m)`` — instead of the
``Θ(n m)`` of exploring from every vertex.  Bunch arcs are
``(v → w, d(w, v))`` for ``v ∈ C(w), v ≠ w`` plus the pivot arcs; the
emulator keeps the cluster members ``v`` at level ``i`` plus each
vertex's pivot edge to ``p_{i+1}(v)``.

``force_backend("reference")`` selects the original per-vertex loop
(BFS, or Dijkstra for weighted graphs, from every vertex), kept as the
trusted oracle.  The cluster pass sums a path's weights from the centre's
end and the reference from the other end, so the two are bit-identical
whenever path sums are exact in float64 — every unweighted graph and
every integer (or dyadic, e.g. quarter-integer) weighting of moderate
size, which covers the integer weights ``--max-weight`` produces.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from ..graph.distances import bfs_distances, dijkstra, weighted_to_scipy_csr
from ..graph.graph import Graph, WeightedGraph
from ..kernels.config import reference_forced
from ..kernels.csr import _slab_positions
from .sampling import Hierarchy, sample_hierarchy

__all__ = [
    "TZEmulator",
    "TZBunches",
    "TZArcBlock",
    "build_tz_emulator",
    "build_tz_bunches",
    "iter_tz_bunch_arc_blocks",
]

AnyGraph = Union[Graph, WeightedGraph]


@dataclass
class TZEmulator:
    """Output of :func:`build_tz_emulator`."""

    emulator: WeightedGraph
    hierarchy: Hierarchy

    @property
    def num_edges(self) -> int:
        """Number of emulator edges."""
        return self.emulator.m


@dataclass
class TZBunches:
    """Classic TZ distance-oracle preprocessing (pivots + full bunches).

    ``srcs[i] -> dsts[i]`` (at exact distance ``dists[i]``) is the
    *directed* membership relation: one arc per bunch member
    ``w ∈ B(v)`` and per pivot ``p_i(v)``, ``i = 1..r``, deduplicated
    and sorted by ``(src, dst)``.  The oracle query intersects the
    out-stars of the two endpoints — the classic ``B(u) ∩ B(v)``
    combine, whose per-vertex work stays ``O(k n^{1/k})`` (clusters
    ``C(w)`` can be ``Θ(n)``-sized and are deliberately not consulted).
    The arc arrays are the whole structure: path expansion builds its
    own star from them (:mod:`repro.oracle.engine`).
    """

    hierarchy: Hierarchy
    srcs: np.ndarray
    dsts: np.ndarray
    dists: np.ndarray

    @property
    def k(self) -> int:
        """Number of oracle levels (``r + 1``)."""
        return self.hierarchy.r + 1

    @property
    def stretch(self) -> int:
        """The proven multiplicative stretch ``2k - 1`` of the 2-hop
        bunch query."""
        return 2 * self.k - 1

    @property
    def num_edges(self) -> int:
        """Number of stored bunch/pivot arcs."""
        return int(self.srcs.size)


# ----------------------------------------------------------------------
# The cluster pass: nearest members, then pruned cluster growth
# ----------------------------------------------------------------------

#: Most ``(centre, vertex)`` labels one group of cluster growth is sized
#: to hold: a level's centres grow in groups of
#: ``_GROUP_LABELS // (n / |S_{i+1}|)``, the expected cluster size.
_GROUP_LABELS = 1 << 22

#: The bunch arcs are spilled into this many source-range buckets.
_SPILL_RANGES = 64

_ARC_RECORD = np.dtype([("src", "<i8"), ("dst", "<i8"), ("dist", "<f8")])

# emit(level, srcs, dsts, dists): one batch of cluster arcs v -> w.
_ArcSink = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


def _global_distances_reference(g: AnyGraph, v: int) -> np.ndarray:
    """One vertex's global distances on the reference substrate."""
    if isinstance(g, WeightedGraph):
        return dijkstra(g, v)
    return bfs_distances(g, v)


def _adjacency(
    g: AnyGraph,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(indptr, indices, weights)`` of both edge orientations;
    ``weights`` is None for an unweighted :class:`Graph`."""
    if not isinstance(g, WeightedGraph):
        return g.indptr, g.indices, None
    csr = weighted_to_scipy_csr(g)  # keeps zero weights as stored entries
    return csr.indptr, csr.indices, csr.data


def _in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in the sorted array ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[idx] == keys


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by sorting (numpy's hashing ``unique`` is far slower
    on large int64 arrays)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _first_per_key(keys: np.ndarray, *tiebreaks: np.ndarray) -> np.ndarray:
    """Indices of the lexicographically smallest ``(tiebreaks…)`` entry
    of each distinct key, in ascending key order."""
    order = np.lexsort((*reversed(tiebreaks), keys))
    ks = keys[order]
    first = np.ones(ks.size, dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    return order[first]


def _nearest_members(
    adj, n: int, members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``d(·, S)`` and the nearest member ``p(·)`` with the smallest id on
    ties (``inf`` / ``-1`` where ``S`` is unreachable)."""
    indptr, indices, weights = adj
    dist = np.full(n, np.inf)
    pivot = np.full(n, -1, dtype=np.int64)
    frontier = np.flatnonzero(members)
    dist[frontier] = 0.0
    pivot[frontier] = frontier
    if weights is None:
        # Level-synchronous waves: every nearest member of a wave-d vertex
        # is a nearest member of one of its wave-(d-1) parents.
        d = 0
        while frontier.size:
            d += 1
            pos, counts = _slab_positions(indptr, frontier)
            nbrs = indices[pos]
            labels = np.repeat(pivot[frontier], counts)
            fresh = np.isinf(dist[nbrs])
            nbrs, labels = nbrs[fresh], labels[fresh]
            frontier = _sorted_unique(nbrs)
            dist[frontier] = d
            pivot[frontier] = n
            np.minimum.at(pivot, nbrs, labels)
        return dist, pivot
    # Label-correcting relax over (distance, pivot) pairs, compared
    # lexicographically — the order the reference's lexsort uses.
    while frontier.size:
        pos, counts = _slab_positions(indptr, frontier)
        nbrs = indices[pos]
        cand = np.repeat(dist[frontier], counts) + weights[pos]
        labels = np.repeat(pivot[frontier], counts)
        best = _first_per_key(nbrs, cand, labels)
        nbrs, cand, labels = nbrs[best], cand[best], labels[best]
        cur = dist[nbrs]
        better = (cand < cur) | ((cand == cur) & (labels < pivot[nbrs]))
        frontier = nbrs[better]
        dist[frontier] = cand[better]
        pivot[frontier] = labels[better]
    return dist, pivot


def _grow_waves(adj, n: int, centres: np.ndarray, thr: np.ndarray,
                emit: Callable[[np.ndarray, np.ndarray], None]) -> int:
    """Grow the clusters of ``centres`` in BFS waves over ``centre * n +
    vertex`` keys, settling ``v`` only at distances ``< thr[v]``; emits
    each wave's new keys with their distance.  Returns the most labels
    held at once."""
    indptr, indices, _ = adj
    prev = np.empty(0, dtype=np.int64)
    cur = centres * n + centres
    held = cur.size
    d = 0
    while cur.size:
        d += 1
        owner, verts = np.divmod(cur, n)
        pos, counts = _slab_positions(indptr, verts)
        nbrs = indices[pos]
        ok = thr[nbrs] > d
        keys = _sorted_unique(np.repeat(owner, counts)[ok] * n + nbrs[ok])
        # A neighbour of a wave-(d-1) vertex sits at distance d-2, d-1
        # or d, so it is new iff it is in neither of the last two waves.
        keys = keys[~(_in_sorted(keys, cur) | _in_sorted(keys, prev))]
        held = max(held, prev.size + cur.size + keys.size)
        if keys.size:
            emit(keys, np.full(keys.size, float(d)))
        prev, cur = cur, keys
    return held


def _grow_relax(adj, n: int, centres: np.ndarray, thr: np.ndarray,
                emit: Callable[[np.ndarray, np.ndarray], None]) -> int:
    """Weighted counterpart of :func:`_grow_waves`: relax the sorted
    ``(key, distance)`` labels to their fixpoint, admitting only
    candidates ``< thr[v]``, then emit them all.  Returns the most labels
    held at once."""
    indptr, indices, weights = adj
    keys = centres * n + centres
    vals = np.zeros(keys.size)
    act_keys, act_vals = keys, vals
    held = keys.size
    while act_keys.size:
        owner, verts = np.divmod(act_keys, n)
        pos, counts = _slab_positions(indptr, verts)
        nbrs = indices[pos]
        cand = np.repeat(act_vals, counts) + weights[pos]
        ok = cand < thr[nbrs]
        ckeys = np.repeat(owner, counts)[ok] * n + nbrs[ok]
        cand = cand[ok]
        best = _first_per_key(ckeys, cand)
        ckeys, cand = ckeys[best], cand[best]
        idx = np.searchsorted(keys, ckeys)
        found = np.zeros(ckeys.size, dtype=bool)
        hit = idx < keys.size
        found[hit] = keys[idx[hit]] == ckeys[hit]
        better = ~found
        better[found] = cand[found] < vals[idx[found]]
        upd = found & better
        vals[idx[upd]] = cand[upd]
        fresh = ~found
        keys = np.insert(keys, idx[fresh], ckeys[fresh])
        vals = np.insert(vals, idx[fresh], cand[fresh])
        act_keys, act_vals = ckeys[better], cand[better]
        held = max(held, keys.size + act_keys.size)
    emit(keys, vals)
    return held


def _cluster_pass(
    g: AnyGraph, hierarchy: Hierarchy, emit: _ArcSink
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Run the cluster pass (module docstring): ``emit(i, srcs, dsts,
    dists)`` receives the arcs ``v -> w`` at ``d(w, v)`` for every ``v ∈
    C(w), v ≠ w`` of every level-``i`` centre ``w``, in batches.

    Returns ``(near_dist, near_pivot, held)``: ``(r + 2, n)`` arrays
    whose row ``i`` is ``d(·, S_i)`` / ``p_i(·)`` (row 0 is ``V`` itself,
    row ``r + 1`` the empty set), and the most ``(centre, vertex)``
    labels cluster growth held in memory at once."""
    n = g.n
    masks = hierarchy.masks
    r = hierarchy.r
    adj = _adjacency(g)
    near_dist = np.full((r + 2, n), np.inf)
    near_pivot = np.full((r + 2, n), -1, dtype=np.int64)
    near_dist[0] = 0.0
    near_pivot[0] = np.arange(n)
    for i in range(1, r + 1):
        near_dist[i], near_pivot[i] = _nearest_members(adj, n, masks[i])
    grow = _grow_waves if adj[2] is None else _grow_relax
    sizes = hierarchy.sizes() + [0]
    held = 0
    for i in range(r + 1):
        thr = near_dist[i + 1]
        centres = np.flatnonzero(masks[i] & ~masks[i + 1])
        # A centre at distance 0 from S_{i+1} has an empty cluster.
        centres = centres[thr[centres] > 0]
        expected = -(-n // sizes[i + 1]) if sizes[i + 1] else n
        group = max(1, _GROUP_LABELS // max(1, expected))

        def level_emit(keys, dists, i=i):
            owner, verts = np.divmod(keys, n)
            other = owner != verts
            emit(i, verts[other], owner[other], dists[other])

        for lo in range(0, centres.size, group):
            held = max(held, grow(adj, n, centres[lo:lo + group], thr,
                                  level_emit))
    return near_dist, near_pivot, held


# ----------------------------------------------------------------------
# The TZ emulator (Appendix A's comparison construction)
# ----------------------------------------------------------------------

def build_tz_emulator(
    g: AnyGraph,
    r: int,
    rng: Optional[np.random.Generator] = None,
    hierarchy: Optional[Hierarchy] = None,
) -> TZEmulator:
    """Build the global Thorup–Zwick emulator over ``r`` sampled levels.

    The default path runs the cluster pass (module docstring) and keeps
    each level-``i`` cluster's members at level ``i`` plus every
    vertex's pivot edge; ``force_backend("reference")`` selects the
    original per-vertex loop (BFS / Dijkstra).  Both produce
    bit-identical emulators whenever path sums are exact.
    """
    if hierarchy is None:
        if rng is None:
            rng = np.random.default_rng(0)
        hierarchy = sample_hierarchy(g.n, r, rng)
    emulator = WeightedGraph(g.n)
    masks = hierarchy.masks
    if reference_forced():
        for v in range(g.n):
            level = int(hierarchy.levels[v])
            dist = _global_distances_reference(g, v)  # global exploration
            next_members = np.flatnonzero(masks[level + 1] & np.isfinite(dist))
            if next_members.size:
                order = np.lexsort((next_members, dist[next_members]))
                pivot = int(next_members[order[0]])
                pivot_dist = dist[pivot]
                emulator.add_edge(v, pivot, float(pivot_dist))
            else:
                pivot_dist = np.inf
            own = np.flatnonzero(
                masks[level] & np.isfinite(dist) & (dist < pivot_dist)
            )
            for u in own:
                if int(u) != v:
                    emulator.add_edge(v, int(u), float(dist[u]))
        return TZEmulator(emulator=emulator, hierarchy=hierarchy)

    levels = hierarchy.levels

    def keep_own_level(i, srcs, dsts, dists):
        # v's own-level peers strictly closer than its pivot are exactly
        # the level-i centres whose clusters contain v.
        own = levels[srcs] == i
        emulator.add_edges_arrays(srcs[own], dsts[own], dists[own])

    near_dist, near_pivot, _ = _cluster_pass(g, hierarchy, keep_own_level)
    verts = np.arange(g.n)
    pivots = near_pivot[levels + 1, verts]
    has = pivots >= 0
    emulator.add_edges_arrays(
        verts[has], pivots[has], near_dist[levels + 1, verts][has]
    )
    return TZEmulator(emulator=emulator, hierarchy=hierarchy)


# ----------------------------------------------------------------------
# Classic TZ bunches (the distance-oracle preprocessing)
# ----------------------------------------------------------------------

def build_tz_bunches(
    g: AnyGraph,
    r: int,
    rng: Optional[np.random.Generator] = None,
    hierarchy: Optional[Hierarchy] = None,
) -> TZBunches:
    """Classic TZ preprocessing over ``k = r + 1`` levels.

    For every vertex ``v`` and every level ``i = 0..r``:

    * **pivot** (``i >= 1``): one edge to the globally closest ``S_i``
      member ``p_i(v)`` (ties by smallest id);
    * **bunch**: edges to every ``w ∈ S_i \\ S_{i+1}`` with
      ``d(v, w) < d(v, S_{i+1})`` (all reachable level-``r`` members at
      the top, where ``S_{r+1} = ∅``).

    All weights are exact ``g``-distances, so every 2-hop combine
    ``d(v, w) + d(w, u)`` over the stored arcs is an upper bound on
    ``d(v, u)`` (soundness) and the classic pivot-walk argument bounds
    the best combine by ``(2k - 1) d(v, u)``.  The default path
    concatenates the blocks of :func:`iter_tz_bunch_arc_blocks`, which
    are canonical and cover disjoint ascending source ranges, so the
    result is canonical as it stands; ``force_backend("reference")``
    runs the per-vertex loop and canonicalizes its arcs.  Both are
    bit-identical whenever path sums are exact.
    """
    if hierarchy is None:
        if rng is None:
            rng = np.random.default_rng(0)
        hierarchy = sample_hierarchy(g.n, r, rng)
    masks = hierarchy.masks
    r = hierarchy.r
    arcs_s, arcs_d, arcs_w = [], [], []

    if reference_forced():
        for v in range(g.n):
            dist = _global_distances_reference(g, v)
            finite = np.isfinite(dist)
            for i in range(r + 1):
                nxt = np.flatnonzero(masks[i + 1] & finite)
                next_dist = dist[nxt].min() if nxt.size else np.inf
                if i >= 1:
                    own_set = np.flatnonzero(masks[i] & finite)
                    if own_set.size:
                        order = np.lexsort((own_set, dist[own_set]))
                        pivot = int(own_set[order[0]])
                        if pivot != v:
                            arcs_s.append(np.array([v], dtype=np.int64))
                            arcs_d.append(np.array([pivot], dtype=np.int64))
                            arcs_w.append(np.array([dist[pivot]]))
                bunch = np.flatnonzero(
                    masks[i] & ~masks[i + 1] & finite & (dist < next_dist)
                )
                bunch = bunch[bunch != v]
                if bunch.size:
                    arcs_s.append(np.full(bunch.size, v, dtype=np.int64))
                    arcs_d.append(bunch.astype(np.int64))
                    arcs_w.append(dist[bunch].astype(np.float64))
        return TZBunches(hierarchy, *_canonical_arcs(arcs_s, arcs_d, arcs_w))

    for _lo, _hi, bs, bd, bw in iter_tz_bunch_arc_blocks(g, hierarchy):
        arcs_s.append(bs)
        arcs_d.append(bd)
        arcs_w.append(bw)
    return TZBunches(hierarchy, *_concat_arcs(arcs_s, arcs_d, arcs_w))


class TZArcBlock(tuple):
    """One canonical source-range block ``(lo, hi, srcs, dsts, dists)``
    of :func:`iter_tz_bunch_arc_blocks` (it unpacks as that 5-tuple).

    ``pass_arcs`` is the most arcs the generator held in memory at once
    before its first block — cluster-growth labels or pending pivot
    arcs — so a consumer can add it to its own resident count."""

    def __new__(cls, lo, hi, srcs, dsts, dists, pass_arcs: int):
        block = super().__new__(cls, (lo, hi, srcs, dsts, dists))
        block.pass_arcs = int(pass_arcs)
        return block


class _ArcSpill:
    """Append-only arc buckets, one raw record file per source range of
    width ``ceil(n / _SPILL_RANGES)`` inside ``directory``."""

    def __init__(self, directory: str, n: int):
        self.directory = directory
        self.n = n
        self.width = max(1, -(-n // _SPILL_RANGES))
        self._files = {}

    def _path(self, bucket: int) -> str:
        return os.path.join(self.directory, f"range-{bucket:04d}.arcs")

    def write(self, srcs, dsts, dists) -> None:
        records = np.empty(srcs.size, dtype=_ARC_RECORD)
        records["src"], records["dst"], records["dist"] = srcs, dsts, dists
        buckets = srcs // self.width
        order = np.argsort(buckets, kind="stable")
        records, buckets = records[order], buckets[order]
        cuts = np.flatnonzero(np.diff(buckets)) + 1
        for chunk in np.split(records, cuts):
            if not chunk.size:
                continue
            bucket = int(chunk["src"][0]) // self.width
            fh = self._files.get(bucket)
            if fh is None:
                fh = self._files[bucket] = open(self._path(bucket), "ab")
            chunk.tofile(fh)

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()

    def ranges(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(lo, hi, records)`` per source range, ascending."""
        for bucket, lo in enumerate(range(0, self.n, self.width)):
            hi = min(lo + self.width, self.n)
            if bucket in self._files:
                yield lo, hi, np.fromfile(self._path(bucket), dtype=_ARC_RECORD)
            else:
                yield lo, hi, np.empty(0, dtype=_ARC_RECORD)


def iter_tz_bunch_arc_blocks(
    g: AnyGraph, hierarchy: Hierarchy
) -> Iterator[TZArcBlock]:
    """Stream the TZ bunch/pivot arcs as canonical per-source-range
    blocks ``(lo, hi, srcs, dsts, dists)`` with ``lo <= srcs < hi``.

    Ranges arrive in ascending source order and each block is already
    canonical (sorted by ``(src, dst)``, deduplicated), so concatenating
    the blocks *is* the canonical global arc array — source ranges are
    disjoint, so no cross-block sort or dedup is ever needed.  This is
    what lets the sharded artifact writer hold only one source range of
    arcs in memory at a time instead of all ``O(k n^{1+1/k})`` of them.

    The cluster pass emits arcs grouped by centre, not by source, so
    they are bucketed by source range and spilled to a temporary
    directory (removed on success and on failure) as they are found;
    each range is then read back and canonicalized on its own.
    """
    r = hierarchy.r
    with tempfile.TemporaryDirectory(prefix="repro-tz-arcs-") as directory:
        spill = _ArcSpill(directory, g.n)
        try:
            near_dist, near_pivot, held = _cluster_pass(
                g, hierarchy, lambda _i, s, d, w: spill.write(s, d, w)
            )
            verts = np.arange(g.n, dtype=np.int64)
            for i in range(1, r + 1):
                keep = (near_pivot[i] >= 0) & (near_pivot[i] != verts)
                spill.write(verts[keep], near_pivot[i][keep],
                            near_dist[i][keep])
            held = max(held, g.n)
        finally:
            spill.close()
        for lo, hi, records in spill.ranges():
            block = _canonical_arcs(
                [records["src"]], [records["dst"]], [records["dist"]]
            )
            del records
            yield TZArcBlock(lo, hi, *block, pass_arcs=held)


def _concat_arcs(
    arcs_s, arcs_d, arcs_w
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate arc fragments (empty int64 / int64 / float64 arrays
    when there are none)."""
    if not arcs_s:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return (
        np.concatenate(arcs_s), np.concatenate(arcs_d), np.concatenate(arcs_w)
    )


def _canonical_arcs(
    arcs_s, arcs_d, arcs_w
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate arc fragments into the canonical form: sorted by
    ``(src, dst)``, duplicates dropped (a pivot re-appearing as a bunch
    member carries the identical exact distance, so keep-first is
    value-stable)."""
    srcs, dsts, dists = _concat_arcs(arcs_s, arcs_d, arcs_w)
    order = np.lexsort((dsts, srcs))
    srcs, dsts, dists = srcs[order], dsts[order], dists[order]
    keep = np.ones(srcs.size, dtype=bool)
    keep[1:] = (srcs[1:] != srcs[:-1]) | (dsts[1:] != dsts[:-1])
    return srcs[keep], dsts[keep], dists[keep]


# ----------------------------------------------------------------------
# Variant registration: the classic TZ bunch oracle as a serving variant
# ----------------------------------------------------------------------

def _tz_summary(hierarchy: Hierarchy, arcs: int) -> Dict[str, object]:
    """The ``tz`` manifest fields only the algorithm knows — ``name``,
    ``multiplicative``, ``additive`` and ``stats`` — for a relation of
    ``arcs`` stored arcs over ``hierarchy``.  The in-memory build and
    the streamed sharded build both record these."""
    k = hierarchy.r + 1
    return {
        "name": f"TZ-bunches[k={k}]",
        "multiplicative": float(2 * k - 1),
        "additive": 0.0,
        "stats": {
            "bunch_edges": int(arcs),
            "k": int(k),
            "set_sizes": hierarchy.sizes(),
        },
    }


def _tz_build(g: AnyGraph, rng=None, r=None, **_):
    """Artifact payload for the ``tz`` variant (bunches kind)."""
    from ..variants import VariantBuild

    bunches = build_tz_bunches(g, r=r, rng=rng)
    return VariantBuild(
        arrays={
            "bunch_srcs": bunches.srcs,
            "bunch_dsts": bunches.dsts,
            "bunch_ds": bunches.dists,
            "tz_levels": np.asarray(bunches.hierarchy.levels, dtype=np.int64),
        },
        **_tz_summary(bunches.hierarchy, bunches.num_edges),
    )


def _register() -> None:
    from ..emulator.params import EmulatorParams
    from ..variants import ParamSpec, VariantSpec, register_variant

    register_variant(VariantSpec(
        name="tz",
        kind="bunches",
        summary="classic Thorup-Zwick pivot/bunch oracle (Appendix A; "
                "O(k n^{1+1/k}) space, 2-hop combine at query time)",
        guarantee="d <= est <= (2k - 1) * d  for k = r + 1",
        build=_tz_build,
        stretch=lambda n, r=None, **_: (
            2.0 * ((r if r is not None else EmulatorParams.default_r(n)) + 1)
            - 1.0,
            0.0,
        ),
        params=(ParamSpec(
            name="r", type=int, default=EmulatorParams.default_r, lo=1,
            doc="hierarchy levels; k = r + 1 bunch levels",
        ),),
        weighted=True,
    ))


_register()
