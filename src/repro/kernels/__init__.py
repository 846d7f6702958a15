"""Vectorized CSR compute kernels — the library's hot-path substrate.

Every per-row / per-vertex Python loop the algorithms used to run bottoms
out here instead, in one of three kernel families, each with a backend
dispatcher (see DESIGN.md for the layer's contract and fidelity policy):

* :func:`minplus` — sparse/dense/reference min-plus products (Theorem 36);
* :func:`filter_rows` — row-wise top-``rho`` filtering (Theorem 58);
* :func:`multi_source_bfs` / :func:`batched_bfs` / :func:`sharded_bfs` —
  frontier BFS: one wave, many simultaneous waves (the ``(k, d)``-nearest
  substrate), and the memory-bounded sharded form with per-source radii
  (the batched emulator/hopset construction substrate);
* :func:`hop_limited_relax` — the Bellman–Ford relaxation core
  (``(S, d)``-source detection).

Backends are selected per call (``backend=``), per process
(:func:`set_default_backend` or the ``REPRO_KERNEL_BACKEND`` environment
variable), or forced for a whole pipeline (:func:`force_backend` — how
tests prove the vectorized kernels are bit-identical to the original
implementations).  Every kernel runs in-process; ``"auto"`` picks the
dense or csr min-plus kernel by operand density.
"""

from .bfs import batched_bfs, multi_source_bfs, sharded_bfs
from .config import (
    BACKENDS,
    ENV_BACKEND_VAR,
    force_backend,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from .csr import (
    CsrParts,
    dense_to_csr,
    edges_to_csr,
    slab_gather,
    slab_gather_owners,
)
from .minplus import auto_block, finite_fraction, minplus, minplus_csr, minplus_dense
from .parallel import ParallelFallback, shutdown_pool
from .postprocess import fold_in_edges
from .relax import hop_limited_relax
from .topk import filter_rows, masked_row_argmin

__all__ = [
    "BACKENDS",
    "CsrParts",
    "ENV_BACKEND_VAR",
    "ParallelFallback",
    "auto_block",
    "batched_bfs",
    "dense_to_csr",
    "edges_to_csr",
    "filter_rows",
    "finite_fraction",
    "fold_in_edges",
    "force_backend",
    "get_default_backend",
    "hop_limited_relax",
    "masked_row_argmin",
    "minplus",
    "minplus_csr",
    "minplus_dense",
    "multi_source_bfs",
    "resolve_backend",
    "shutdown_pool",
    "set_default_backend",
    "sharded_bfs",
    "slab_gather",
    "slab_gather_owners",
]
