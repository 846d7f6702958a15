"""Distance-through-sets (Theorem 35).

Every vertex ``v`` holds a set ``W_v`` with distance estimates
``delta(v, w)`` for ``w ∈ W_v``; the task computes, for every pair
``(u, v)``::

    min_{w ∈ W_u ∩ W_v}  delta(u, w) + delta(w, v)

This is exactly the min-plus product ``M · M^T`` of the masked estimate
matrix ``M[v, w] = delta(v, w) if w ∈ W_v else inf``, so both the
semantics and the ``O(rho^{2/3} / n^{1/3} + 1)`` round cost (``rho`` the
average ``|W_v|``) reduce to sparse matrix multiplication.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..cliquesim.costs import distance_through_sets_rounds
from ..cliquesim.ledger import RoundLedger
from ..kernels import minplus
from ..matmul.semiring import density

__all__ = ["distance_through_sets"]


def distance_through_sets(
    masked_estimates: np.ndarray,
    ledger: Optional[RoundLedger] = None,
    phase: str = "distance-through-sets",
) -> Tuple[np.ndarray, float]:
    """Compute all-pairs minima through shared set members.

    Parameters
    ----------
    masked_estimates:
        ``(n, q)`` matrix with ``[v, w] = delta(v, w)`` when ``w ∈ W_v`` and
        ``inf`` otherwise (``q`` may be smaller than ``n`` when the ``W_v``
        live inside a named subset, e.g. a hitting set).

    Returns
    -------
    ``(D, rounds)`` where ``D[u, v] = min_w M[u, w] + M[v, w]``.
    """
    m = np.asarray(masked_estimates, dtype=np.float64)
    product = minplus(m, m.T)
    rounds = distance_through_sets_rounds(m.shape[0], density(m))
    if ledger is not None:
        ledger.charge(rounds, phase)
    return product, rounds
