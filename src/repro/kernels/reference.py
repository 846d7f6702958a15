"""Reference (pre-vectorization) kernel implementations.

These are the original Python-per-row implementations the repository
shipped with.  They are kept verbatim as the *semantic oracle*: every
vectorized kernel must agree with its reference bit-for-bit (including
``inf`` placement and tie-breaking), which the property tests in
``tests/test_kernels.py`` enforce, and :func:`repro.kernels.force_backend`
can route whole pipelines through them for regression comparison.

They are intentionally slow — do not call them from library code except
through the dispatchers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "minplus_reference",
    "filter_rows_reference",
    "multi_source_bfs_reference",
    "batched_bfs_reference",
    "k_nearest_bfs_reference",
]


def minplus_reference(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-sparse min-plus product, gathering per finite ``(i, k)`` with a
    Python double loop (the loop the vectorized kernels replaced)."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    out = np.full((s.shape[0], t.shape[1]), np.inf)
    finite_t_cols = [np.flatnonzero(np.isfinite(t[k])) for k in range(t.shape[0])]
    for i in range(s.shape[0]):
        ks = np.flatnonzero(np.isfinite(s[i]))
        if ks.size == 0:
            continue
        row = out[i]
        for k in ks:
            cols = finite_t_cols[k]
            if cols.size == 0:
                continue
            cand = s[i, k] + t[k, cols]
            np.minimum.at(row, cols, cand)
    return out


def filter_rows_reference(m: np.ndarray, rho: int) -> np.ndarray:
    """Keep the ``rho`` smallest finite entries per row (ties by column
    id) with a per-row lexsort loop (the original ``filter_rows`` body)."""
    m = np.asarray(m, dtype=np.float64)
    n_cols = m.shape[1]
    if rho >= n_cols:
        return m.copy()
    out = np.full_like(m, np.inf)
    if rho == 0:
        return out
    for i in range(m.shape[0]):
        row = m[i]
        finite = np.flatnonzero(np.isfinite(row))
        if finite.size == 0:
            continue
        order = np.lexsort((finite, row[finite]))
        keep = finite[order[:rho]]
        out[i, keep] = row[keep]
    return out


def multi_source_bfs_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources,
    max_dist: float = np.inf,
) -> np.ndarray:
    """Level-synchronous BFS whose frontier expansion concatenates CSR
    slabs with a per-vertex list comprehension (the original
    ``multi_source_bfs`` body)."""
    dist = np.full(n, np.inf)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    if frontier.size == 0:
        return dist
    dist[frontier] = 0.0
    level = 0
    while frontier.size and level < max_dist:
        level += 1
        nbr_chunks = [indices[indptr[v] : indptr[v + 1]] for v in frontier]
        cand = np.unique(np.concatenate(nbr_chunks))
        new = cand[np.isinf(dist[cand])]
        dist[new] = level
        frontier = new
    return dist


def batched_bfs_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources,
    max_dist: float = np.inf,
) -> np.ndarray:
    """One independent truncated BFS per source (the original
    ``kd_nearest_bfs`` substrate)."""
    sources = np.asarray(list(sources), dtype=np.int64)
    out = np.full((sources.size, n), np.inf)
    for i, s in enumerate(sources):
        out[i] = multi_source_bfs_reference(indptr, indices, n, [int(s)], max_dist)
    return out


def k_nearest_bfs_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    k: int,
    max_dist: float = np.inf,
):
    """Per-source truncated BFS, then the per-row top-``k`` filter, each
    kept row listed in (distance, vertex id) order; returns the CSR
    arrays ``(indptr, cols, dists)``."""
    cols, dists = [], []
    counts = np.zeros(n, dtype=np.int64)
    for s in range(n):
        dist = multi_source_bfs_reference(indptr, indices, n, [s], max_dist)
        row = filter_rows_reference(dist[None, :], k)[0]
        finite = np.flatnonzero(np.isfinite(row))
        finite = finite[np.lexsort((finite, row[finite]))]
        cols.append(finite)
        dists.append(row[finite])
        counts[s] = finite.size
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_ptr[1:])
    return (
        out_ptr,
        np.concatenate([np.zeros(0, dtype=np.int64)] + cols),
        np.concatenate([np.zeros(0)] + dists),
    )
