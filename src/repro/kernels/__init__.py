"""Vectorized CSR compute kernels — the library's hot-path substrate.

Every per-row / per-vertex Python loop the algorithms used to run bottoms
out here instead, in one of three kernel families, each with a
dispatcher (see DESIGN.md for the layer's contract and fidelity policy):

* :func:`minplus` — sparse/dense/reference min-plus products (Theorem 36);
* :func:`filter_rows` — row-wise top-``rho`` filtering (Theorem 58);
* :func:`multi_source_bfs` / :func:`batched_bfs` / :func:`sharded_bfs` /
  :func:`k_nearest_bfs` — frontier BFS: one wave, many simultaneous
  waves, the memory-bounded sharded form (the batched emulator
  construction substrate), and the ``(k, d)``-nearest
  substrate whose waves stop at their ``k``-th vertex and answer CSR rows
  (:class:`NearestRows`);
* :func:`hop_limited_relax` — the Bellman–Ford relaxation core of
  ``(S, d)``-source detection, for the rows where the hop bound may bind.

Every kernel runs in-process and picks its implementation from its
operands: :func:`minplus` runs the dense kernel when more than a quarter
of ``s`` is finite, else the csr kernel.  The one other route is
``with force_backend("reference")``, which runs a whole pipeline on the
original Python loops — how tests prove the vectorized kernels are
bit-identical to them.
"""

from .bfs import batched_bfs, k_nearest_bfs, multi_source_bfs, sharded_bfs
from .config import force_backend
from .csr import (
    CsrParts,
    NearestRows,
    dense_to_csr,
    edges_to_csr,
    slab_gather,
    slab_gather_owners,
)
from .minplus import auto_block, finite_fraction, minplus, minplus_csr, minplus_dense
from .parallel import ParallelFallback, shutdown_pool
from .postprocess import fold_in_edges
from .relax import hop_limited_relax
from .topk import filter_rows, first_per_row, masked_row_argmin

__all__ = [
    "CsrParts",
    "NearestRows",
    "ParallelFallback",
    "auto_block",
    "batched_bfs",
    "dense_to_csr",
    "edges_to_csr",
    "filter_rows",
    "finite_fraction",
    "first_per_row",
    "fold_in_edges",
    "force_backend",
    "hop_limited_relax",
    "k_nearest_bfs",
    "masked_row_argmin",
    "minplus",
    "minplus_csr",
    "minplus_dense",
    "multi_source_bfs",
    "shutdown_pool",
    "sharded_bfs",
    "slab_gather",
    "slab_gather_owners",
]
