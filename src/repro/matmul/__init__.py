"""Min-plus (tropical) matrix products: dense, sparse, and filtered."""

from .semiring import (
    MINPLUS_ZERO,
    apsp_by_squaring,
    density,
    minplus_power,
    minplus_product,
    minplus_square,
)
from .sparse import sparse_minplus_with_cost
from .filtered import filtered_product, filtered_product_with_cost

__all__ = [
    "MINPLUS_ZERO",
    "apsp_by_squaring",
    "density",
    "minplus_power",
    "minplus_product",
    "minplus_square",
    "sparse_minplus_with_cost",
    "filtered_product",
    "filtered_product_with_cost",
]
