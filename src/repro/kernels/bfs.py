"""Vectorized frontier BFS kernels.

All kernels are level-synchronous BFS over an adjacency CSR
``(indptr, indices)``; no Python work per vertex.

:func:`multi_source_bfs` runs one wave.  :func:`batched_bfs` runs *many
independent* waves at once and returns the full ``(len(sources), n)``
matrix — the ``(k, d)``-nearest substrate (Theorem 10).
:func:`sharded_bfs` is its bounded-memory form: a generator that
processes sources in column shards of ``O(shard · n)`` memory and
supports per-source radii, which is what lets emulator construction
bucket vertices by hierarchy level and scale to ``n >= 10^4``.

Wave expansion (:func:`_batched_wave`) adaptively switches per level
between a flat ``(vertex, wave)`` key space (cost ∝ frontier size) and a
bit-packed frontier advanced by a segmented ``bitwise_or.reduceat`` over
the CSR (cost ``nnz · waves / 64`` words — the winner when many deep
waves flood the graph together).  Both produce identical level maps.

Under ``force_backend("reference")`` every entry point runs the
per-source loops of :mod:`repro.kernels.reference` instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import reference_forced
from .csr import slab_gather, slab_gather_owners
from .reference import batched_bfs_reference, multi_source_bfs_reference

__all__ = ["multi_source_bfs", "batched_bfs", "sharded_bfs"]

# Flat (wave, vertex) key-space budget per batch of waves (~128 MB of
# transient boolean masks at the default).
_BATCH_KEY_BUDGET = 1 << 27

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
    radii = np.full(sources.size, max_dist)
    dist = np.full((sources.size, n), np.inf)
    if sources.size == 0 or n == 0:
        return dist
    if batch_size is None:
        batch_size = max(1, _BATCH_KEY_BUDGET // n)
    for lo in range(0, sources.size, batch_size):
        hi = min(sources.size, lo + batch_size)
        block = np.full((n, hi - lo), np.inf)
        _batched_wave(indptr, indices, n, sources[lo:hi], radii[lo:hi], block)
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
    max_dist=np.inf,
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

    ``max_dist`` may be a scalar or a per-source array — each wave is
    spilled from the shared frontier as soon as its own radius is
    exhausted, so mixed-radius shards (vertices of different hierarchy
    levels) cost only as much as their deepest wave.  Fractional radii are
    floored (BFS levels are integral).
    """
    sources = np.asarray(list(sources), dtype=np.int64)
    radii = np.floor(np.broadcast_to(np.asarray(max_dist, dtype=np.float64),
                                     sources.shape)).copy()
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
                    indptr, indices, n, [int(sources[i])], radii[i]
                )
        else:
            work = np.full((n, hi - lo), np.inf)
            if n:
                _batched_wave(
                    indptr, indices, n, sources[lo:hi], radii[lo:hi], work
                )
            block = work.T  # Fortran-ordered (hi - lo, n) view, no copy
        yield lo, hi, block


# Below this many waves the bit-packed expansion is never worth its
# per-level full-CSR pass; above it, the mode is chosen per level.
_BITS_MIN_WAVES = 64

# A candidate (wave, vertex) frontier pair costs roughly this many bytes
# of int64 traffic in the flat-key expansion (positions, owners, keys,
# scatter); compared against the bit-packed pass's estimated byte traffic
# to pick the expansion scheme each level.
_KEY_PAIR_COST = 40


def _batched_wave(indptr, indices, n, src, radii, dist_t) -> None:
    """Run ``src.size`` simultaneous BFS waves, writing into the
    *vertex-major* ``(n, src.size)`` array ``dist_t`` (prefilled ``inf``;
    ``dist_t.T`` is the usual ``(waves, n)`` matrix — callers that need a
    row-major copy transpose it themselves, while :func:`sharded_bfs`
    yields the transposed view directly).  ``radii[i]`` truncates wave
    ``i``; its column stops expanding (is spilled from the frontier) once
    the level exceeds it.

    Each level is expanded by one of two interchangeable schemes (the
    output is identical — level-synchronous BFS):

    * **flat keys** — frontier members are ``vertex * waves + wave``
      values; a slab gather expands them.  Cost proportional to the
      frontier's degree sum, best for small or shallow frontiers.
    * **bit-packed** — wave ``i`` is bit ``i`` of a per-vertex bit row;
      one gather plus a segmented ``bitwise_or.reduceat`` (both through a
      ``uint64`` view) advances *every* wave at once for
      ``nnz · waves / 64`` words, best when many deep waves flood the
      graph together.

    The scheme is chosen per level from the measured frontier size, so a
    run can start bit-packed while waves flood the graph and finish on
    flat keys once only a few waves remain alive.  The frontier always
    exists as ``(fr_vert, fr_wave)`` pair arrays (they also drive the
    distance writes); the bit rows are carried alongside only while the
    bit-packed scheme runs.
    """
    waves = src.size
    # Vertex-major layout: bit rows, frontier keys and the level writes
    # all touch contiguous memory this way round.
    flat = dist_t.ravel()
    fr_wave = np.arange(waves, dtype=np.int64)
    fr_vert = src.copy()
    flat[fr_vert * waves + fr_wave] = 0.0

    deg = np.diff(indptr)
    nnz = int(indices.size)
    width64 = (waves + 63) // 64
    width = width64 * 8  # bit-row bytes, uint64-aligned
    use_bits_ever = waves >= _BITS_MIN_WAVES and nnz > 0
    bits_level_cost = nnz * width // 4 + 4 * n * width
    visited_bits = None
    frontier_bits = None  # valid iff the previous level ran bit-packed
    offsets = None
    row_has_nbrs = None

    # With one shared radius (every per-level / per-shard caller) the
    # spill check degenerates to a single scalar comparison per level.
    uniform_radius = bool(radii.min() == radii.max()) if waves else True

    level = 0
    while fr_vert.size:
        level += 1
        if uniform_radius:
            if radii[0] < level:
                break
        else:
            alive = radii[fr_wave] >= level
            if not alive.all():
                fr_wave = fr_wave[alive]
                fr_vert = fr_vert[alive]
                if fr_vert.size == 0:
                    break
                if frontier_bits is not None:
                    keep = np.zeros(width, dtype=np.uint8)
                    packed = np.packbits(radii >= level, bitorder="little")
                    keep[: packed.size] = packed
                    frontier_bits &= keep
        expanded = int(deg[fr_vert].sum())
        if expanded == 0:
            break

        if use_bits_ever and expanded * _KEY_PAIR_COST > bits_level_cost:
            if visited_bits is None:
                # First bit-packed level: build the visited bit rows from
                # the distances found so far (finite = visited).
                visited_bits = np.zeros((n, width), dtype=np.uint8)
                packed = np.packbits(
                    np.isfinite(dist_t), axis=1, bitorder="little"
                )
                visited_bits[:, : packed.shape[1]] = packed
                row_has_nbrs = np.flatnonzero(deg > 0)
                offsets = indptr[row_has_nbrs]
            if frontier_bits is None:
                frontier_bits = np.zeros((n, width), dtype=np.uint8)
                np.bitwise_or.at(
                    frontier_bits,
                    (fr_vert, fr_wave >> 3),
                    np.uint8(1) << (fr_wave & 7).astype(np.uint8),
                )
            gathered = frontier_bits.view(np.uint64)[indices]
            neigh = np.zeros((n, width64), dtype=np.uint64)
            neigh[row_has_nbrs] = np.bitwise_or.reduceat(
                gathered, offsets, axis=0
            )
            new = neigh & ~visited_bits.view(np.uint64)
            active = np.flatnonzero(new.any(axis=1))
            if active.size == 0:
                break
            visited_bits.view(np.uint64)[...] |= new
            new8 = new.view(np.uint8)
            # Unpack the full (padded) bit width and scan the contiguous
            # buffer — padding bits are never set, and flatnonzero on a
            # contiguous array is far faster than a strided 2-D nonzero.
            unpacked = np.unpackbits(new8[active], axis=1, bitorder="little")
            hits = np.flatnonzero(unpacked.ravel())
            rows, fr_wave = np.divmod(hits, np.int64(8 * width))
            fr_vert = active[rows]
            flat[fr_vert * waves + fr_wave] = level
            frontier_bits = new8
        else:
            frontier_bits = None
            owners, nbrs = slab_gather_owners(indptr, indices, fr_vert, fr_wave)
            if nbrs.size == 0:
                break
            keys = nbrs * np.int64(waves) + owners
            if keys.size * 16 < n * waves:
                # Sparse frontier: sort-dedup beats a full mark array.
                keys = np.unique(keys)
                keys = keys[np.isinf(flat[keys])]
            else:
                mark = np.zeros(n * waves, dtype=bool)
                mark[keys] = True
                mark &= np.isinf(flat)
                keys = np.flatnonzero(mark)
            flat[keys] = level
            fr_vert, fr_wave = np.divmod(keys, waves)
            if visited_bits is not None and fr_vert.size:
                np.bitwise_or.at(
                    visited_bits,
                    (fr_vert, fr_wave >> 3),
                    np.uint8(1) << (fr_wave & 7).astype(np.uint8),
                )
