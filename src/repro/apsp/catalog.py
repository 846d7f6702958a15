"""The APSP-family variant catalog: self-registration into the registry.

Every Section 4 application and baseline declares itself here as one
:class:`~repro.variants.VariantSpec` — name, artifact kind, parameter
schema, proven stretch formula, weighted-graph support, round-ledger
phases, and the two callables every consumer dispatches through
(``run`` for one-shot CLI/benchmark execution, ``build`` for oracle
artifact payloads).  The CLI derives its ``--algo`` / ``--variant``
choices and help text from these records, ``repro.oracle`` builds and
validates artifacts through them, and the benchmark harness iterates
them — adding a variant here is the *only* step needed to make it
reachable everywhere (DESIGN.md §1 "Adding a variant").

The classic Thorup–Zwick ``tz`` variant registers itself in
:mod:`repro.emulator.thorup_zwick`; the emulator-construction axis
(``ideal`` / ``cc`` / ``whp`` / ``deterministic``) registers in
:mod:`repro.apsp.near_additive`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..cliquesim.ledger import RoundLedger
from ..emulator.params import EmulatorParams
from ..graph.distances import weighted_all_pairs
from ..graph.graph import WeightedGraph
from ..variants import (
    ParamSpec,
    VariantBuild,
    VariantSpec,
    emulator_construction,
    register_variant,
)
from .baselines import apsp_squaring, exact_apsp, spanner_apsp
from .mssp import mssp
from .near_additive import apsp_near_additive, near_additive_labels
from .result import DistanceResult
from .three_plus_eps import apsp_three_plus_eps
from .two_plus_eps import apsp_two_plus_eps
from .weighted import (
    apsp_weighted,
    mssp_weighted,
    near_additive_labels_weighted,
)

__all__ = ["default_mssp_sources"]


# Shared parameter schemas.  The applications require eps in (0, 1)
# (they raise on anything else) and at least one hierarchy level; the
# default r is the paper's r = log log n (EmulatorParams.default_r).
_EPS = ParamSpec(
    name="eps", type=float, default=0.5, lo=0.0, hi=1.0,
    lo_open=True, hi_open=True, doc="target stretch parameter",
)
_R = ParamSpec(
    name="r", type=int, default=EmulatorParams.default_r, lo=1,
    doc="hierarchy levels (default: the paper's r = log log n)",
)


def _matrix_build(result: DistanceResult) -> VariantBuild:
    """Adapt a full-APSP :class:`DistanceResult` to an artifact payload."""
    return VariantBuild(
        arrays={"estimates": np.asarray(result.estimates, dtype=np.float64)},
        name=result.name,
        multiplicative=float(result.multiplicative),
        additive=float(result.additive),
        rounds_total=float(result.ledger.total),
        rounds_breakdown=result.ledger.breakdown(),
        stats=result.stats,
    )


def _near_additive_run(g, rng=None, eps=0.5, r=None, **_):
    if isinstance(g, WeightedGraph):
        return apsp_weighted(g, eps=eps, r=r, rng=rng)
    return apsp_near_additive(g, eps=eps, r=r, rng=rng)


def _near_additive_build(g, rng=None, eps=0.5, r=None, **_):
    """The ``core``-kind payload: the emulator's all-pairs in label form
    (``apsp/near_additive.py``), never the ``(n, n)`` matrix.  Its arrays
    are the core distances ``core_dist``, the per-vertex tree labels
    ``root`` / ``depth`` / ``parent`` / ``hops`` (over the subdivided
    graph's vertices for a weighted ``g``) and ``edge_keys``, the
    ``G``-edges the weight-1 fold-in lowers (``oracle/engine.py`` answers
    from them)."""
    if isinstance(g, WeightedGraph):
        res = near_additive_labels_weighted(g, eps=eps, r=r, rng=rng)
    else:
        res = near_additive_labels(g, eps=eps, r=r, rng=rng)
    labels = res.labels
    return VariantBuild(
        arrays={
            "core_dist": res.core_dist,
            "root": labels.root,
            "depth": labels.depth,
            "parent": labels.parent,
            "hops": labels.hops,
            "edge_keys": res.edge_keys(g.n),
        },
        name=res.name,
        multiplicative=float(res.multiplicative),
        additive=float(res.additive),
        rounds_total=float(res.ledger.total),
        rounds_breakdown=res.ledger.breakdown(),
        stats=dict(res.stats, core_vertices=int(res.core_dist.shape[0])),
    )


def _near_additive_stretch(n, eps=0.5, r=None):
    if r is None:
        r = EmulatorParams.default_r(n)
    # The default CLI/oracle build uses the "cc" construction.
    return emulator_construction("cc").guarantee(
        EmulatorParams.from_target_eps(eps, r)
    )


def _exact_run(g, rng=None, **_):
    if isinstance(g, WeightedGraph):
        ledger = RoundLedger()
        ledger.charge(max(1.0, g.n ** 0.158), "oracle:exact-weighted-apsp")
        return DistanceResult(
            name="exact-APSP[weighted]",
            estimates=weighted_all_pairs(g),
            multiplicative=1.0,
            additive=0.0,
            ledger=ledger,
        )
    return exact_apsp(g)


def default_mssp_sources(n: int) -> np.ndarray:
    """The CLI's evenly spaced ``sqrt(n)``-source rule, shared by the
    MSSP artifact builder."""
    num = max(1, int(math.sqrt(max(n, 1))))
    return np.asarray(
        list(range(0, n, max(1, n // num)))[:num], dtype=np.int64
    )


def _mssp_run(g, rng=None, sources=None, eps=0.5, r=None, **_):
    if sources is None:
        sources = default_mssp_sources(g.n)
    if isinstance(g, WeightedGraph):
        return mssp_weighted(g, sources, eps=eps, r=r, rng=rng)
    return mssp(g, sources, eps=eps, r=r, rng=rng)


def _sources_build(result: DistanceResult) -> VariantBuild:
    """Adapt an MSSP result (``(len(sources), n)`` estimates) to a
    ``sources``-kind artifact payload."""
    build = _matrix_build(result)
    build.arrays["sources"] = np.asarray(result.sources, dtype=np.int64)
    return build


register_variant(VariantSpec(
    name="near-additive",
    kind="core",
    summary="(1+eps, beta)-APSP via the sparse emulator (Thm 32; "
            "weighted graphs via subdivision)",
    guarantee="d <= est <= (1 + 4*eps) * d + 2*beta",
    build=_near_additive_build,
    run=_near_additive_run,
    stretch=_near_additive_stretch,
    params=(_EPS, _R),
    weighted=True,
    cli_algo=True,
    headline=True,
))

register_variant(VariantSpec(
    name="2eps",
    kind="matrix",
    summary="(2+eps)-APSP: emulator + hopset + hitting sets (Thm 34)",
    guarantee="d <= est <= (2 + eps) * d",
    build=lambda g, rng=None, **p: _matrix_build(
        apsp_two_plus_eps(g, rng=rng, **p)),
    run=lambda g, rng=None, eps=0.5, r=None, **_: apsp_two_plus_eps(
        g, eps=eps, r=r, rng=rng),
    stretch=lambda n, eps=0.5, **_: (2.0 + eps, 0.0),
    params=(_EPS, _R),
    cli_algo=True,
    headline=True,
))

register_variant(VariantSpec(
    name="3eps",
    kind="matrix",
    summary="(3+eps)-APSP: emulator + (k,t)-nearest + pivots",
    guarantee="d <= est <= (3 + eps) * d",
    build=lambda g, rng=None, **p: _matrix_build(
        apsp_three_plus_eps(g, rng=rng, **p)),
    run=lambda g, rng=None, eps=0.5, r=None, **_: apsp_three_plus_eps(
        g, eps=eps, r=r, rng=rng),
    stretch=lambda n, eps=0.5, **_: (3.0 + eps, 0.0),
    params=(_EPS, _R),
    cli_algo=True,
))

register_variant(VariantSpec(
    name="exact",
    kind="matrix",
    summary="exact APSP baseline (BFS / Dijkstra oracle)",
    guarantee="est == d",
    build=lambda g, rng=None, **p: _matrix_build(_exact_run(g, rng, **p)),
    run=_exact_run,
    stretch=lambda n, **_: (1.0, 0.0),
    weighted=True,
    cli_algo=True,
))

register_variant(VariantSpec(
    name="squaring",
    kind="matrix",
    summary="exact APSP by min-plus matrix squaring (round model only)",
    guarantee="est == d",
    build=lambda g, rng=None, **p: _matrix_build(apsp_squaring(g)),
    run=lambda g, rng=None, **_: apsp_squaring(g),
    stretch=lambda n, **_: (1.0, 0.0),
    cli_algo=True,
))

register_variant(VariantSpec(
    name="spanner",
    kind="matrix",
    summary="(2k-1)-APSP from a Baswana-Sen spanner (log-stretch baseline)",
    guarantee="d <= est <= (2k - 1) * d",
    build=lambda g, rng=None, **p: _matrix_build(
        spanner_apsp(g, rng=rng, **p)),
    run=lambda g, rng=None, k=None, **_: spanner_apsp(g, k=k, rng=rng),
    stretch=lambda n, k=None, **_: (
        2.0 * (k or max(1, math.ceil(math.log2(max(n, 2))))) - 1.0, 0.0),
    params=(ParamSpec(
        name="k", type=int, default=None, lo=1,
        doc="spanner parameter (default: log2 n)",
    ),),
    cli_algo=True,
))

def _emulator_sssp_build(g, rng=None, eps=0.5, r=None, **_):
    """The emulator-SSSP payload: the union ``H ∪ G`` of the
    near-additive emulator's edges and ``G``'s own unit edges,
    min-merged so each edge is stored once — O(m + |H|) storage instead
    of the O(n^2) matrix.  Queries run Dijkstra over it, on a CSR
    decoded once at load (``oracle/engine.py``, ``edges`` kind, at most
    64 sources per call).  ``G`` is a subgraph of the union and every
    emulator weight dominates the true distance, so every answer is
    exactly ``d_G``; the manifest records ``near-additive``'s stretch
    formula, which the answers meet trivially."""
    if r is None:
        r = EmulatorParams.default_r(g.n)
    ledger = RoundLedger()
    construction = emulator_construction("cc")
    res = construction.build(g, eps, r, rng, ledger)
    eu, ev, ew = res.emulator.edge_arrays()
    ge = g.edges()
    union = WeightedGraph(g.n)
    union.add_edges_arrays(eu, ev, ew)
    union.add_edges_arrays(ge[:, 0], ge[:, 1], np.ones(ge.shape[0]))
    us, vs, ws = union.edge_arrays()
    mult, add = construction.guarantee(res.params)
    return VariantBuild(
        arrays={"emu_us": us, "emu_vs": vs, "emu_ws": ws},
        name="emulator-SSSP",
        multiplicative=float(mult),
        additive=float(add),
        rounds_total=float(ledger.total),
        rounds_breakdown=ledger.breakdown(),
        stats={
            "emulator_edges": int(eu.size),
            "graph_edges": int(ge.shape[0]),
        },
    )


register_variant(VariantSpec(
    name="emulator-sssp",
    kind="edges",
    summary="oracle storing the emulator's edges together with G's own "
            "(O(m + |H|) space); SSSP at query time answers exact "
            "distances",
    guarantee="d <= est <= (1 + 4*eps) * d + 2*beta",
    build=_emulator_sssp_build,
    stretch=_near_additive_stretch,
    params=(_EPS, _R),
))

register_variant(VariantSpec(
    name="mssp",
    kind="sources",
    summary="(1+eps)-MSSP from O(sqrt n) sources (Thm 33; artifact "
            "answers pairs touching a source)",
    guarantee="d <= est <= (1 + eps) * d  (pairs with a source endpoint)",
    build=lambda g, rng=None, sources=None, **p: _sources_build(
        _mssp_run(g, rng, sources=sources, **p)),
    run=_mssp_run,
    stretch=lambda n, eps=0.5, **_: (1.0 + eps, 0.0),
    params=(_EPS, _R),
    weighted=True,
    headline=True,
))
