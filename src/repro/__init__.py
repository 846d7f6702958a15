"""repro — reproduction of Dory & Parter, *Exponentially Faster Shortest
Paths in the Congested Clique* (PODC 2020, arXiv:2003.03058).

The public API re-exports the main entry points:

* graphs and workloads: :class:`Graph`, :mod:`repro.graph.generators`;
* emulators (Section 3): :func:`build_emulator`, :func:`build_emulator_cc`,
  :func:`build_emulator_whp`, :func:`build_warmup_emulator`,
  :func:`build_emulator_deterministic`;
* applications (Section 4): :func:`apsp_near_additive`, :func:`mssp`,
  :func:`apsp_two_plus_eps`, :func:`apsp_three_plus_eps`;
* toolkit (Appendix B): :func:`source_detection`,
  :func:`build_bounded_hopset`, :func:`distance_through_sets` (the
  ``(k, d)``-nearest solvers are in :mod:`repro.toolkit`);
* derandomization (Section 5): :func:`deterministic_soft_hitting_set`;
* baselines: :func:`exact_apsp`, :func:`apsp_squaring`, :func:`spanner_apsp`;
* hot-path substrate: :mod:`repro.kernels` — the vectorized CSR compute
  layer every min-plus product, BFS, and top-``k`` filter runs on
  (see DESIGN.md);
* serving layer: :mod:`repro.oracle` — preprocess-once / query-forever
  distance oracles (on-disk artifacts, batched query engine, HTTP front
  end; DESIGN.md §6).
"""

# Defined before the submodule imports below: the serving/telemetry
# layers import it from here (the single source of truth) while this
# package is still initializing.
__version__ = "1.0.0"

from . import kernels
from .graph import Graph, WeightedGraph, generators
from .cliquesim import CongestedClique, RoundLedger, costs
from .emulator import (
    EmulatorParams,
    Hierarchy,
    build_emulator,
    build_emulator_cc,
    build_emulator_whp,
    build_warmup_emulator,
    sample_hierarchy,
)
from .toolkit import (
    build_bounded_hopset,
    distance_through_sets,
    source_detection,
)
from .derand import (
    SoftHittingInstance,
    build_emulator_deterministic,
    deterministic_soft_hitting_set,
)
from .apsp import (
    DistanceResult,
    EmulatorPathOracle,
    apsp_near_additive,
    apsp_squaring,
    apsp_three_plus_eps,
    apsp_two_plus_eps,
    apsp_weighted,
    exact_apsp,
    mssp,
    mssp_weighted,
    spanner_apsp,
    sssp,
)
from .emulator import build_tz_bunches, build_tz_emulator, emulator_to_spanner
from .analysis import StretchReport, evaluate_stretch
from . import oracle
from . import telemetry

__all__ = [
    "kernels",
    "Graph",
    "WeightedGraph",
    "generators",
    "CongestedClique",
    "RoundLedger",
    "costs",
    "EmulatorParams",
    "Hierarchy",
    "build_emulator",
    "build_emulator_cc",
    "build_emulator_whp",
    "build_warmup_emulator",
    "sample_hierarchy",
    "build_bounded_hopset",
    "distance_through_sets",
    "source_detection",
    "SoftHittingInstance",
    "build_emulator_deterministic",
    "deterministic_soft_hitting_set",
    "DistanceResult",
    "apsp_near_additive",
    "apsp_squaring",
    "apsp_three_plus_eps",
    "apsp_two_plus_eps",
    "exact_apsp",
    "mssp",
    "mssp_weighted",
    "apsp_weighted",
    "spanner_apsp",
    "sssp",
    "EmulatorPathOracle",
    "build_tz_bunches",
    "build_tz_emulator",
    "emulator_to_spanner",
    "oracle",
    "telemetry",
    "StretchReport",
    "evaluate_stretch",
    "__version__",
]
