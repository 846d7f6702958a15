"""Sparse min-plus products (Theorem 36, Censor-Hillel–Leitersdorf–Turner).

The congested-clique cost of a min-plus product depends on the *densities*
``rho_S, rho_T`` (average finite entries per row).  We represent sparse
min-plus matrices as dense float arrays whose zero element is ``inf`` —
at library scale (``n`` up to a few thousand) the dense representation is
the fastest substrate in numpy — and exploit row sparsity algorithmically:
the product gathers, for each finite ``(i, k)``, only the finite entries of
row ``k`` of ``T``, so the work is ``O(sum_i sum_{k in row i} |T_k|)``
rather than ``n^3``.  The gather itself runs on the vectorized CSR
kernel layer (:mod:`repro.kernels`, see DESIGN.md).

Round accounting is :func:`repro.cliquesim.costs.sparse_matmul_rounds`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..cliquesim.costs import sparse_matmul_rounds
from ..cliquesim.ledger import RoundLedger
from ..kernels import minplus
from .semiring import density

__all__ = ["sparse_minplus_with_cost"]


def sparse_minplus_with_cost(
    s: np.ndarray,
    t: np.ndarray,
    n: int,
    ledger: Optional[RoundLedger] = None,
    phase: str = "sparse-matmul",
) -> Tuple[np.ndarray, float]:
    """Product plus its Theorem 36 round cost
    ``O((rho_S rho_T)^{1/3} / n^{1/3} + 1)``.

    ``n`` is the clique size (the matrices may be rectangular slices of the
    full ``n x n`` operands).  Returns ``(product, rounds)``.
    """
    product = minplus(s, t)
    rounds = sparse_matmul_rounds(n, density(s), density(t))
    if ledger is not None:
        ledger.charge(rounds, phase)
    return product, rounds
