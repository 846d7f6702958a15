"""Min-plus product kernels and their dispatcher.

Three backends compute the same product ``C[i, j] = min_k s[i, k] + t[k, j]``
over the tropical semiring (zero element ``inf``):

* ``dense`` — blocked dense broadcast (:func:`minplus_dense`); best when
  the operands have many finite entries per row.
* ``csr`` — segment-reduce gather (:func:`minplus_csr`): expand the
  candidate ``(i, k, j)`` triples of the product with ``np.repeat``
  arithmetic over the CSR slabs of ``t``, sort by output cell, and reduce
  with ``np.minimum.reduceat``.  Work is proportional to the number of
  candidate triples — the same count the congested-clique analysis of
  Theorem 36 charges — with no Python inner loop.
* ``reference`` — the original per-row Python loop
  (:func:`repro.kernels.reference.minplus_reference`), kept as the
  semantic oracle.

``min`` over floats is exact regardless of evaluation order and each
candidate value is computed by the same single addition in every backend,
so all backends agree bit-for-bit (a tested property).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import resolve_backend
from .csr import _slab_positions, dense_to_csr
from .reference import minplus_reference

__all__ = ["minplus", "minplus_csr", "minplus_dense", "auto_block", "finite_fraction"]

# Expanded-triple budget per csr chunk (~64 MB of transient arrays) and
# broadcast budget for the dense kernel's auto block size (~32 MB).
_CSR_CHUNK_TRIPLES = 1 << 22
_DENSE_BLOCK_BYTES = 1 << 25


def finite_fraction(m: np.ndarray) -> float:
    """Fraction of finite entries (the dispatcher's density measure)."""
    return float(np.isfinite(m).mean()) if m.size else 0.0


def auto_block(rows: int, cols: int) -> int:
    """Block size over the inner dimension sizing the dense kernel's
    ``(rows, block, cols)`` broadcast to roughly ``_DENSE_BLOCK_BYTES``
    (one inner slice, ``rows * cols * 8`` bytes, is the unavoidable floor)."""
    cells = max(1, rows * cols)
    return int(np.clip(_DENSE_BLOCK_BYTES // (cells * 8), 1, 4096))


def _validate(s: np.ndarray, t: np.ndarray) -> None:
    if s.ndim != 2 or t.ndim != 2 or s.shape[1] != t.shape[0]:
        raise ValueError(f"shape mismatch: {s.shape} x {t.shape}")


def minplus_dense(
    s: np.ndarray, t: np.ndarray, block: Optional[int] = None
) -> np.ndarray:
    """Blocked dense min-plus product.

    ``block`` bounds the ``O(rows · block · cols)`` broadcast memory;
    ``None`` auto-sizes it from the operand shape.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    _validate(s, t)
    rows, inner = s.shape
    cols = t.shape[1]
    if block is None:
        block = auto_block(rows, cols)
    out = np.full((rows, cols), np.inf)
    for k0 in range(0, inner, block):
        k1 = min(inner, k0 + block)
        # (rows, kb, 1) + (1, kb, cols) -> (rows, kb, cols), min over kb.
        chunk = s[:, k0:k1, None] + t[None, k0:k1, :]
        np.minimum(out, chunk.min(axis=1), out=out)
    return out


def minplus_csr(
    s: np.ndarray, t: np.ndarray, chunk_triples: int = _CSR_CHUNK_TRIPLES
) -> np.ndarray:
    """Segment-reduce sparse min-plus product.

    For every finite ``s[i, k]`` the candidates ``s[i, k] + t[k, j]`` over
    the finite row ``k`` of ``t`` are materialized in one gather; sorting
    the flat output keys ``i * n_out + j`` groups candidates per output
    cell so a single ``np.minimum.reduceat`` performs all the reductions.
    ``chunk_triples`` caps the transient arrays; chunks split only between
    ``(i, k)`` slabs, and the per-chunk results combine by entrywise min.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    _validate(s, t)
    n_out = t.shape[1]
    out = np.full((s.shape[0], n_out), np.inf)
    s_flat = np.flatnonzero(np.isfinite(s))
    if s_flat.size == 0:
        return out
    si, sk = np.divmod(s_flat, s.shape[1])
    sv = s.ravel()[s_flat]
    tp, tc, tv = dense_to_csr(t)
    counts = tp[sk + 1] - tp[sk]
    nonempty = counts > 0
    si, sk, sv, counts = si[nonempty], sk[nonempty], sv[nonempty], counts[nonempty]
    if si.size == 0:
        return out
    ends = np.cumsum(counts)
    start, consumed = 0, 0
    while start < si.size:
        stop = int(np.searchsorted(ends, consumed + chunk_triples, side="right"))
        stop = min(max(stop, start + 1), si.size)
        sl = slice(start, stop)
        _csr_chunk(out, si[sl], sk[sl], sv[sl], counts[sl], tp, tc, tv, n_out)
        consumed = int(ends[stop - 1])
        start = stop
    return out


def _csr_chunk(out, si, sk, sv, counts, tp, tc, tv, n_out) -> None:
    gather, _ = _slab_positions(tp, sk)
    vals = np.repeat(sv, counts) + tv[gather]
    keys = np.repeat(si, counts) * np.int64(n_out) + tc[gather]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    group_starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    mins = np.minimum.reduceat(vals, group_starts)
    cells = keys[group_starts]
    rows, cols = np.divmod(cells, n_out)
    out[rows, cols] = np.minimum(out[rows, cols], mins)


def minplus(
    s: np.ndarray,
    t: np.ndarray,
    backend: Optional[str] = None,
    block: Optional[int] = None,
    dense_threshold: float = 0.25,
) -> np.ndarray:
    """Min-plus product through the backend dispatcher.

    ``backend=None`` defers to :mod:`repro.kernels.config` (default
    ``"auto"``: ``dense`` when the finite fraction of ``s`` exceeds
    ``dense_threshold``, else ``csr``).  ``"reference"`` reproduces the
    original code paths exactly: the Python gather loop, with the same
    density fallback to the dense kernel.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    _validate(s, t)
    resolved = resolve_backend(backend)
    if resolved == "auto":
        resolved = "dense" if finite_fraction(s) > dense_threshold else "csr"
    if resolved == "dense":
        return minplus_dense(s, t, block=block)
    if resolved == "csr":
        return minplus_csr(s, t)
    # reference: the original row_sparse_minplus, dense fallback included.
    if finite_fraction(s) > dense_threshold:
        return minplus_dense(s, t, block=block)
    return minplus_reference(s, t)
