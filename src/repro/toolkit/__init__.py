"""Distance-sensitive toolkit (Section 2 and Appendix B of the paper)."""

from .hitting import (
    deterministic_hitting_set,
    hits_all,
    random_hitting_set,
    unhit_sets,
)
from .nearest import kd_nearest_bfs, kd_nearest_matrix
from .source_detection import source_detection, source_detection_k
from .hopsets import BoundedHopset, build_bounded_hopset, hopset_beta
from .through_sets import distance_through_sets

__all__ = [
    "deterministic_hitting_set",
    "hits_all",
    "random_hitting_set",
    "unhit_sets",
    "kd_nearest_bfs",
    "kd_nearest_matrix",
    "source_detection",
    "source_detection_k",
    "BoundedHopset",
    "build_bounded_hopset",
    "hopset_beta",
    "distance_through_sets",
]
