"""Row-wise top-``rho`` selection (the *filter* of Theorem 58).

Keep, in every row, only the ``rho`` smallest finite entries, ties broken
by column id; everything else becomes ``inf``.  The vectorized kernel is
selection, not sorting: one ``np.partition`` finds each row's ``rho``-th
order statistic, entries strictly below it are kept outright, and the
boundary ties are kept left-to-right (a row-wise ``cumsum``) — exactly
the deterministic column-id tie-break the reference per-row lexsort
implements, in ``O(n^2)`` instead of ``O(n^2 log n)``.
"""

from __future__ import annotations

import numpy as np

from .config import reference_forced
from .reference import filter_rows_reference

__all__ = ["filter_rows", "first_per_row", "masked_row_argmin"]


def masked_row_argmin(values, mask):
    """Per-row minimum over the ``True`` entries of ``mask``: returns
    ``(rows, cols, vals)`` covering exactly the rows with at least one
    masked entry.  The first minimum wins, i.e. ties resolve to the
    smallest column id — the library-wide tie-break every batched
    construction (closest next-level member, pivot, S_2 representative)
    must share with its per-vertex reference loop."""
    rows = np.flatnonzero(mask.any(axis=1))
    masked = np.where(mask[rows], values[rows], np.inf)
    cols = masked.argmin(axis=1)
    vals = masked[np.arange(rows.size), cols]
    return rows, cols, vals


def first_per_row(owner, flag):
    """Per-row first ``True`` entry of ``flag`` over entries grouped by a
    non-decreasing ``owner`` array: returns ``(rows, positions)`` covering
    exactly the rows with a flagged entry.  Over rows in (distance, vertex
    id) order (:class:`repro.kernels.NearestRows`) that entry is the one
    :func:`masked_row_argmin` picks from the dense row."""
    positions = np.flatnonzero(flag)
    rows = owner[positions]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return rows[first], positions[first]


def filter_rows(m: np.ndarray, rho: int) -> np.ndarray:
    """Keep only the ``rho`` smallest finite entries in each row
    (ties by column id); everything else becomes ``inf``."""
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    m = np.asarray(m, dtype=np.float64)
    if reference_forced():
        return filter_rows_reference(m, rho)
    n_cols = m.shape[1]
    if rho >= n_cols:
        return m.copy()
    if rho == 0 or m.size == 0:
        return np.full_like(m, np.inf)
    # Only finite entries are selectable (the reference semantics): mask
    # -inf/nan to +inf so they can never displace a finite value.  Distance
    # matrices never contain them, so only pay for the copy when present.
    if np.isneginf(m).any() or np.isnan(m).any():
        work = np.where(np.isfinite(m), m, np.inf)
    else:
        work = m
    # Row-wise rho-th smallest value.  When it is inf the row has fewer
    # than rho finite entries and the strict `<` mask alone keeps them all.
    thr = np.partition(work, rho - 1, axis=1)[:, rho - 1 : rho]
    keep = work < thr
    ties = (work == thr) & np.isfinite(thr)
    need = rho - keep.sum(axis=1, keepdims=True)
    keep |= ties & (np.cumsum(ties, axis=1) <= need)
    return np.where(keep, work, np.inf)
