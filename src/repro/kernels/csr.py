"""CSR plumbing shared by the vectorized kernels.

Three representations are used:

* ``(indptr, indices)`` — the adjacency CSR a :class:`repro.graph.Graph`
  already carries; the BFS kernels consume it directly.
* :class:`CsrParts` — a CSR view of a dense min-plus matrix keeping only
  its *finite* entries.  We build the arrays ourselves rather than going
  through :class:`scipy.sparse.csr_matrix` because in the tropical
  semiring the missing element is ``inf`` while ``0.0`` is a perfectly
  valid stored value — scipy's implicit-zero convention would drop it.
* :class:`NearestRows` — the ``(k, d)``-nearest answer, one row per
  vertex holding at most ``k`` entries in (distance, vertex id) order,
  so a ball of any radius is a row prefix and the first entry of a row
  meeting a mask is that row's closest member under the library-wide
  tie-break.

The central primitive is :func:`slab_gather`: concatenate the CSR row
slabs of many rows at once with ``np.repeat`` arithmetic, no Python loop.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "CsrParts",
    "NearestRows",
    "dense_to_csr",
    "edges_to_csr",
    "slab_gather",
    "slab_gather_owners",
]


class CsrParts(NamedTuple):
    """CSR arrays of the finite entries of a dense min-plus matrix."""

    indptr: np.ndarray   # (rows + 1,) int64
    indices: np.ndarray  # (nnz,) int64, column ids, sorted within each row
    data: np.ndarray     # (nnz,) float64 finite values


class NearestRows(NamedTuple):
    """CSR rows of a ``(k, d)``-nearest answer over ``n`` vertices: row
    ``v`` is ``cols[indptr[v]:indptr[v + 1]]`` at distances
    ``dists[indptr[v]:indptr[v + 1]]``, sorted by (distance, vertex id).
    Absent entries are the ``inf`` entries of the dense form."""

    indptr: np.ndarray  # (n + 1,) int64
    cols: np.ndarray    # (nnz,) int64 vertex ids
    dists: np.ndarray   # (nnz,) float64 distances, non-decreasing per row

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def lengths(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.indptr)

    def take(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``rows`` as ``(owner, cols, dists)``: ``owner[i]``
        indexes ``rows``, and each row's entries keep their order."""
        rows = np.asarray(rows, dtype=np.int64)
        positions, counts = _slab_positions(self.indptr, rows)
        owner = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        return owner, self.cols[positions], self.dists[positions]

    def dense_row(self, v: int) -> np.ndarray:
        """Row ``v`` as a length-``n`` distance vector (``inf`` = absent)."""
        out = np.full(self.n, np.inf)
        lo, hi = self.indptr[v], self.indptr[v + 1]
        out[self.cols[lo:hi]] = self.dists[lo:hi]
        return out

    def dense(self) -> np.ndarray:
        """The ``(n, n)`` matrix :func:`repro.kernels.filter_rows` would
        return for the same answer."""
        out = np.full((self.n, self.n), np.inf)
        out[np.repeat(np.arange(self.n), self.lengths()), self.cols] = self.dists
        return out


def dense_to_csr(m: np.ndarray) -> CsrParts:
    """CSR view of the finite entries of ``m`` (row-major order).

    Works on flat indices throughout — one ``flatnonzero`` scan plus a
    ``divmod``, several times faster than a 2-D ``np.nonzero``.
    """
    m = np.asarray(m, dtype=np.float64)
    flat = np.flatnonzero(np.isfinite(m))
    rows, cols = np.divmod(flat, m.shape[1])
    indptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m.shape[0]), out=indptr[1:])
    return CsrParts(indptr, cols, m.ravel()[flat])


def edges_to_csr(
    n: int, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency CSR ``(indptr, indices)`` from undirected edge
    endpoint arrays: both orientations, rows ascending, columns sorted
    within each row — the invariant :class:`repro.graph.Graph` and the
    BFS kernels share."""
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=n))]
    ).astype(np.int64)
    return indptr, cols[order]


def _slab_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions into ``indices`` covering the slabs of ``rows``,
    plus the per-row slab lengths."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    seg_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
    return np.repeat(indptr[rows], counts) + within, counts


def slab_gather(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated CSR neighbour slabs of ``rows`` (with duplicates)."""
    positions, _ = _slab_positions(indptr, rows)
    return indices[positions]


def slab_gather_owners(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    owners: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`slab_gather` but also repeats ``owners`` (one label per
    row) across each slab — ``(repeated_owners, neighbours)``."""
    positions, counts = _slab_positions(indptr, rows)
    return np.repeat(owners, counts), indices[positions]
