"""Filtered min-plus products (Theorem 58 / Appendix B.2).

Given a density budget ``rho``, the *filter* of a matrix keeps, in each
row, only the ``rho`` smallest finite entries (ties broken by column id,
so filtering is deterministic).  The filtered product problem asks for
``filter(S · T)`` — the congested-clique algorithm of [3] computes it in
``O((rho_S rho_T rho)^{1/3} / n^{2/3} + log W)`` rounds, where ``W`` bounds
the number of distinct semiring values (for hop-bounded unweighted
distances, ``W = O(d)``, which is where the ``log d`` factors of
Theorem 10 come from).

These semantics power the ``(k, d)``-nearest algorithm: iterate
``A_{i+1} = filter(A_i · A_i)`` for ``log d`` steps (Claim 59).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..cliquesim.costs import filtered_matmul_rounds
from ..cliquesim.ledger import RoundLedger
from ..kernels import filter_rows, minplus
from .semiring import density

__all__ = ["filtered_product", "filtered_product_with_cost"]


def filtered_product(s: np.ndarray, t: np.ndarray, rho: int) -> np.ndarray:
    """``filter_rows(S · T, rho)`` computed sparsely."""
    return filter_rows(minplus(s, t), rho)


def filtered_product_with_cost(
    s: np.ndarray,
    t: np.ndarray,
    rho: int,
    n: int,
    num_values: float,
    ledger: Optional[RoundLedger] = None,
    phase: str = "filtered-matmul",
) -> Tuple[np.ndarray, float]:
    """Filtered product plus its Theorem 58 round cost.

    ``num_values`` is the bound ``W`` on distinct semiring values (``O(d)``
    for distances bounded by ``d``).
    """
    product = filtered_product(s, t, rho)
    rounds = filtered_matmul_rounds(n, density(s), density(t), rho, num_values)
    if ledger is not None:
        ledger.charge(rounds, phase)
    return product, rounds
