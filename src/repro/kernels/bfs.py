"""Vectorized frontier BFS kernels.

All kernels are level-synchronous BFS over an adjacency CSR
``(indptr, indices)``; no Python work per vertex.

:func:`multi_source_bfs` runs one wave.  :func:`batched_bfs` runs *many
independent* waves at once and returns the full ``(len(sources), n)``
matrix.  :func:`sharded_bfs` is its bounded-memory form: a generator that
processes sources in column shards of ``O(shard · n)`` memory, which is
what lets emulator construction run one radius-bounded BFS per hierarchy
level and scale to ``n >= 10^4``.
:func:`k_nearest_bfs` is the ``(k, d)``-nearest substrate (Theorem 10):
one wave per vertex, each stopped at the level of its ``k``-th vertex,
answered as CSR rows (:class:`repro.kernels.NearestRows`) in
``O(n · k)`` memory instead of an ``(n, n)`` matrix.

Many-wave expansion (:class:`_Waves`, shared by :func:`batched_bfs`,
:func:`sharded_bfs` and :func:`k_nearest_bfs`) keeps "visited" as
per-vertex bit rows and adaptively switches per level between a flat
``(vertex, wave)`` key space (cost ∝ frontier size) and a bit-packed
frontier advanced by a segmented ``bitwise_or.reduceat`` over the CSR
(cost ``nnz · waves / 64`` words — the winner when many deep waves
flood the graph together).  Both produce identical level maps.

Under ``force_backend("reference")`` every entry point runs the
per-source loops of :mod:`repro.kernels.reference` instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import reference_forced
from .csr import NearestRows, slab_gather, slab_gather_owners
from .reference import (
    batched_bfs_reference,
    k_nearest_bfs_reference,
    multi_source_bfs_reference,
)

__all__ = ["multi_source_bfs", "batched_bfs", "sharded_bfs", "k_nearest_bfs"]

# Flat (wave, vertex) key-space budget per batch of waves (~128 MB of
# transient boolean masks at the default).
_BATCH_KEY_BUDGET = 1 << 27

# Flat (wave, vertex) key-space budget per chunk of k-nearest waves
# (~4 MB of transient boolean marks; the visited bit rows are 1/8 that,
# and a chunk's kept pairs at most ``chunk * k``).
_NEAREST_KEY_BUDGET = 1 << 22

# Float budget for the live distance block of one shard (~64 MB at the
# default — the yielded block *is* the wave kernel's vertex-major
# working array, viewed transposed).
_SHARD_FLOAT_BUDGET = 1 << 23


def multi_source_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources,
    max_dist: float = np.inf,
) -> np.ndarray:
    """Distance to the nearest of ``sources``, truncated at ``max_dist``
    (vertices farther away report ``inf``).  BFS levels are integral, so a
    fractional bound is floored once here."""
    max_dist = np.floor(max_dist)
    if reference_forced():
        return multi_source_bfs_reference(indptr, indices, n, sources, max_dist)
    dist = np.full(n, np.inf)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    if frontier.size == 0:
        return dist
    dist[frontier] = 0.0
    level = 0
    while frontier.size and level < max_dist:
        level += 1
        nbrs = slab_gather(indptr, indices, frontier)
        if nbrs.size == 0:
            break
        mark = np.zeros(n, dtype=bool)
        mark[nbrs] = True
        mark &= np.isinf(dist)
        frontier = np.flatnonzero(mark)
        dist[frontier] = level
    return dist


def batched_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources,
    max_dist: float = np.inf,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """One truncated BFS per entry of ``sources``, all waves expanded
    together; returns the ``(len(sources), n)`` distance matrix.

    ``batch_size`` caps how many waves share one flat key space (memory
    control for huge graphs); ``None`` auto-sizes it.  A fractional
    ``max_dist`` is floored (BFS levels are integral).
    """
    max_dist = np.floor(max_dist)
    sources = np.asarray(list(sources), dtype=np.int64)
    if reference_forced():
        return batched_bfs_reference(indptr, indices, n, sources, max_dist)
    dist = np.full((sources.size, n), np.inf)
    if sources.size == 0 or n == 0:
        return dist
    if batch_size is None:
        batch_size = max(1, _BATCH_KEY_BUDGET // n)
    for lo in range(0, sources.size, batch_size):
        hi = min(sources.size, lo + batch_size)
        block = np.full((n, hi - lo), np.inf)
        _batched_wave(indptr, indices, n, sources[lo:hi], max_dist, block)
        # Cache-blocked transpose into the row-major output (a straight
        # `dist[lo:hi] = block.T` thrashes on large batches).
        for v0 in range(0, n, 64):
            dist[lo:hi, v0 : v0 + 64] = block[v0 : v0 + 64].T
    return dist


def sharded_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources,
    max_dist: float = np.inf,
    shard_size: Optional[int] = None,
):
    """Radius-bounded batched BFS over column shards of ``sources``.

    A generator yielding ``(lo, hi, block)`` triples where ``block`` is the
    ``(hi - lo, n)`` truncated-BFS distance matrix of ``sources[lo:hi]`` —
    row ``i`` is the wave of ``sources[lo + i]``.  Unlike
    :func:`batched_bfs` the full ``(len(sources), n)`` matrix is never
    materialized: peak memory is one ``O(shard_size · n)`` float block,
    which is what opens ``n >= 10^4`` emulator builds.

    The default path yields the wave kernel's vertex-major working array
    *transposed in place* — a Fortran-ordered ``(hi - lo, n)`` view, so
    per-vertex columns ``block[:, v]`` are contiguous (what
    ``edges_for_level``'s mask algebra reads) and the old end-of-wave
    blocked transpose is gone entirely.  Consumers must treat blocks as
    order-agnostic numpy arrays (all do) and must finish with a block
    before requesting the next one; blocks may be reused internally.

    A fractional ``max_dist`` is floored (BFS levels are integral).
    """
    max_dist = np.floor(max_dist)
    sources = np.asarray(list(sources), dtype=np.int64)
    if shard_size is None:
        # One live (n, shard) float block per shard (the yielded view is
        # the working array itself, so the whole budget buys shard rows).
        shard_size = max(1, _SHARD_FLOAT_BUDGET // max(n, 1))
    reference = reference_forced()
    for lo in range(0, sources.size, shard_size):
        hi = min(sources.size, lo + shard_size)
        if reference:
            block = np.full((hi - lo, n), np.inf)
            for i in range(lo, hi):
                block[i - lo] = multi_source_bfs_reference(
                    indptr, indices, n, [int(sources[i])], max_dist
                )
        else:
            work = np.full((n, hi - lo), np.inf)
            if n:
                _batched_wave(
                    indptr, indices, n, sources[lo:hi], max_dist, work
                )
            block = work.T  # Fortran-ordered (hi - lo, n) view, no copy
        yield lo, hi, block


def k_nearest_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    k: int,
    max_dist: float = np.inf,
) -> NearestRows:
    """The ``(k, d)``-nearest of every vertex as CSR rows: one truncated
    BFS wave per vertex, each row keeping the ``k`` first vertices in
    (distance, vertex id) order among those within ``max_dist`` (floored:
    BFS levels are integral).  Equals
    ``filter_rows(batched_bfs(..., arange(n), max_dist), k)`` entry for
    entry without its two ``(n, n)`` matrices.

    A wave leaves the shared frontier once it has finished the level at
    which it settled its ``k``-th vertex: every later vertex is farther
    than all ``k`` kept ones.  That last level is cut to the smallest
    vertex ids — exactly ``filter_rows``' tie-break by column id.  Waves
    run in chunks of ``_NEAREST_KEY_BUDGET // n``; per chunk the kernel
    holds visited bit rows and the kept ``(wave, vertex)`` pairs, never
    a float block.
    """
    max_dist = np.floor(max_dist)
    if reference_forced():
        return NearestRows(
            *k_nearest_bfs_reference(indptr, indices, n, k, max_dist)
        )
    counts = np.zeros(n, dtype=np.int64)
    # Rows hold at most k entries; pipelines fill every row, so the
    # output is written in place and only trimmed when rows fall short.
    capacity = n * min(max(k, 0), n)
    cols = np.empty(capacity, dtype=np.int64)
    dists = np.empty(capacity)
    total = 0
    chunk = max(1, _NEAREST_KEY_BUDGET // max(n, 1))
    for lo in range(0, n if k >= 1 else 0, chunk):
        src = np.arange(lo, min(n, lo + chunk), dtype=np.int64)
        wave, vert, level = _k_nearest_waves(indptr, indices, n, src, k, max_dist)
        # Pairs arrive level by level, each level in vertex order; a
        # stable sort by wave yields (distance, vertex id) rows.
        order = np.argsort(wave, kind="stable")
        counts[lo : lo + src.size] = np.bincount(wave, minlength=src.size)
        cols[total : total + order.size] = vert[order]
        dists[total : total + order.size] = level[order]
        total += order.size
    indptr_out = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_out[1:])
    if total < capacity:
        cols, dists = cols[:total].copy(), dists[:total].copy()
    return NearestRows(indptr_out, cols, dists)


# Below this many waves the bit-packed expansion is never worth its
# per-level full-CSR pass; above it, the mode is chosen per level.
_BITS_MIN_WAVES = 64

# A candidate (wave, vertex) frontier pair costs roughly this many bytes
# of int64 traffic in the flat-key expansion (positions, owners, keys,
# scatter); compared against the bit-packed pass's estimated byte traffic
# to pick the expansion scheme each level.
_KEY_PAIR_COST = 40


def _set_bits(bits, vert, wave) -> None:
    """Set bit ``wave`` of row ``vert`` in the ``(n, words)`` uint64
    bit rows, for every pair."""
    np.bitwise_or.at(
        bits, (vert, wave >> 6), np.uint64(1) << (wave & 63).astype(np.uint64)
    )


class _Waves:
    """``src.size`` simultaneous BFS waves, advanced one level at a time.

    The frontier is the pair arrays ``(vert, wave)``, sorted by (vertex,
    wave) after every level; "visited" is a per-vertex bit row (wave
    ``i`` = bit ``i``).  Each level is expanded by one of two
    interchangeable schemes (the reached pairs are identical):

    * **flat keys** — frontier members are ``vertex * waves + wave``
      values; a slab gather expands them.  Cost proportional to the
      frontier's degree sum, best for small or shallow frontiers.
    * **bit-packed** — one gather plus a segmented
      ``bitwise_or.reduceat`` over the frontier bit rows advances *every*
      wave at once for ``nnz · waves / 64`` words, best when many deep
      waves flood the graph together.

    The scheme is chosen per level from the frontier's degree sum, so a
    run can start bit-packed while waves flood the graph and finish on
    flat keys once only a few waves remain alive; the frontier bit rows
    are carried alongside the pairs only while the bit-packed scheme runs.
    """

    def __init__(self, indptr, indices, n, src):
        self.indptr, self.indices, self.n = indptr, indices, n
        self.waves = src.size
        words = (self.waves + 63) // 64
        self.visited = np.zeros((n, words), dtype=np.uint64)
        self.wave = np.arange(self.waves, dtype=np.int64)
        self.vert = src.copy()
        _set_bits(self.visited, self.vert, self.wave)
        self.deg = np.diff(indptr)
        nnz = int(indices.size)
        width = words * 8  # bit-row bytes
        self.use_bits = self.waves >= _BITS_MIN_WAVES and nnz > 0
        self.bits_level_cost = nnz * width // 4 + 4 * n * width
        self.frontier_bits = None  # valid iff the last level ran bit-packed
        self.row_has_nbrs = self.offsets = None

    def keep(self, alive: np.ndarray) -> None:
        """Drop every wave ``i`` with ``alive[i]`` false from the frontier."""
        sel = alive[self.wave]
        self.vert, self.wave = self.vert[sel], self.wave[sel]
        if self.frontier_bits is not None:
            mask = np.zeros(self.frontier_bits.shape[1] * 8, dtype=np.uint8)
            packed = np.packbits(alive, bitorder="little")
            mask[: packed.size] = packed
            self.frontier_bits &= mask.view(np.uint64)

    def advance(self) -> bool:
        """Expand the frontier by one level: it becomes the newly reached
        pairs, now marked visited.  False once no wave reaches a vertex."""
        n, waves = self.n, self.waves
        expanded = int(self.deg[self.vert].sum())
        if expanded == 0:
            return False
        if self.use_bits and expanded * _KEY_PAIR_COST > self.bits_level_cost:
            if self.row_has_nbrs is None:
                self.row_has_nbrs = np.flatnonzero(self.deg > 0)
                self.offsets = self.indptr[self.row_has_nbrs]
            if self.frontier_bits is None:
                self.frontier_bits = np.zeros_like(self.visited)
                _set_bits(self.frontier_bits, self.vert, self.wave)
            neigh = np.zeros_like(self.visited)
            neigh[self.row_has_nbrs] = np.bitwise_or.reduceat(
                self.frontier_bits[self.indices], self.offsets, axis=0
            )
            new = neigh & ~self.visited
            active = np.flatnonzero(new.any(axis=1))
            if active.size == 0:
                return False
            self.visited |= new
            # Unpack the full (padded) width and scan the contiguous
            # buffer — padding bits are never set, and flatnonzero on a
            # contiguous array is far faster than a strided 2-D nonzero.
            unpacked = np.unpackbits(
                new[active].view(np.uint8), axis=1, bitorder="little"
            )
            rows, self.wave = np.divmod(
                np.flatnonzero(unpacked.ravel()), np.int64(unpacked.shape[1])
            )
            self.vert = active[rows]
            self.frontier_bits = new
            return True
        self.frontier_bits = None
        owners, nbrs = slab_gather_owners(
            self.indptr, self.indices, self.vert, self.wave
        )
        keys = nbrs * np.int64(waves) + owners
        if keys.size * 16 < n * waves:
            # Sparse frontier: sort-dedup beats a full mark array.
            keys = np.unique(keys)
        else:
            mark = np.zeros(n * waves, dtype=bool)
            mark[keys] = True
            keys = np.flatnonzero(mark)
        vert, wave = np.divmod(keys, waves)
        word = self.visited[vert, wave >> 6]
        fresh = ((word >> (wave & 63).astype(np.uint64)) & np.uint64(1)) == 0
        self.vert, self.wave = vert[fresh], wave[fresh]
        _set_bits(self.visited, self.vert, self.wave)
        return self.vert.size > 0


def _k_nearest_waves(indptr, indices, n, src, k, max_dist):
    """Run one wave per ``src`` vertex until it has settled ``k``
    vertices (finishing that level) or passed ``max_dist``; returns the
    kept ``(wave, vertex, level)`` pairs, at most ``k`` per wave, level
    by level and each level sorted by vertex.  No float ``(n, waves)``
    block is ever allocated: "visited" lives in :class:`_Waves`' bit
    rows."""
    waves = src.size
    front = _Waves(indptr, indices, n, src)
    settled = np.ones(waves, dtype=np.int64)
    # Kept pairs in narrow ints (a chunk holds up to ``waves * k`` of
    # them); wave ids fit 16 bits at any sane budget, which also lets the
    # stable sorts by wave run as radix sorts.
    wave_t = np.min_scalar_type(max(waves - 1, 0))
    kept_wave = [front.wave.astype(wave_t)]
    kept_vert = [front.vert.astype(np.int32)]
    kept_level = [np.zeros(waves, dtype=np.int32)]
    front.keep(settled < k)

    level = 0
    while front.vert.size and level < max_dist and front.advance():
        level += 1
        # The level's pairs are sorted by (vertex, wave).  A wave whose
        # count passes k on this level keeps only its smallest new ids.
        total = settled + np.bincount(front.wave, minlength=waves)
        keep = np.ones(front.wave.size, dtype=bool)
        if ((total > k) & (settled < k)).any():
            over = np.flatnonzero((total > k)[front.wave])
            over = over[np.argsort(front.wave[over].astype(wave_t), kind="stable")]
            grp = front.wave[over]
            starts = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1]])
            rank = np.arange(over.size) - np.repeat(
                starts, np.diff(np.r_[starts, over.size])
            )
            keep[over[settled[grp] + rank >= k]] = False
        kept_wave.append(front.wave[keep].astype(wave_t))
        kept_vert.append(front.vert[keep].astype(np.int32))
        kept_level.append(np.full(int(keep.sum()), level, dtype=np.int32))
        if ((total >= k) & (settled < k)).any():
            front.keep(total < k)
        settled = total
    return (
        np.concatenate(kept_wave),
        np.concatenate(kept_vert),
        np.concatenate(kept_level),
    )


def _batched_wave(indptr, indices, n, src, radius, dist_t) -> None:
    """Run ``src.size`` simultaneous BFS waves (:class:`_Waves`), writing
    into the *vertex-major* ``(n, src.size)`` array ``dist_t`` (prefilled
    ``inf``; ``dist_t.T`` is the usual ``(waves, n)`` matrix — callers
    that need a row-major copy transpose it themselves, while
    :func:`sharded_bfs` yields the transposed view directly).  Every
    wave stops at level ``radius``."""
    waves = src.size
    # Vertex-major layout: the level writes touch contiguous memory.
    flat = dist_t.ravel()
    front = _Waves(indptr, indices, n, src)
    flat[front.vert * waves + front.wave] = 0.0

    level = 0
    while front.vert.size and level < radius:
        level += 1
        if not front.advance():
            break
        flat[front.vert * waves + front.wave] = level
