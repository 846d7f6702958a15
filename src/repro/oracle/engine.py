"""The query side of the serving layer: :class:`DistanceOracle`.

Answers point-to-point distance and path queries from an
:class:`~repro.oracle.artifact.OracleArtifact`:

* **matrix artifacts** — a batched query is one fancy-index gather
  ``estimates[us, vs]``, widened to float64 (a loaded artifact's
  gather reads straight from the memory-mapped ``estimates.npy``, which
  stays in its stored float32 or float64);
* **sources artifacts** — an MSSP snapshot: ``estimates[i, v]``
  approximates ``d(sources[i], v)``, so a query is answerable when
  either endpoint is a source (the ``u`` row wins when both are);
  uncovered pairs fail loudly instead of answering without
  information;
* **edges artifacts** — the emulator-SSSP representation: the artifact
  stores the near-additive emulator's edge list merged with the source
  graph's own unit edges (``H ∪ G``).  :func:`edges_csr` decodes it
  once, at load, into a symmetric weighted CSR (duplicate edges
  min-merged), and a query runs exact SSSP *at query time* —
  ``scipy.sparse.csgraph.dijkstra`` from each distinct source in the
  batch, 64 sources per call so the dense ``(64, n)`` result stays
  bounded whatever the batch size, then a gather.  O(m + |H|) storage
  instead of O(n^2); since ``G``'s edges are stored, every answer is
  exactly ``d_G``; query cost paid per distinct source;
* **core artifacts** — the near-additive all-pairs in label form:
  :func:`core_labels` widens the per-vertex tree labels and the sorted
  ``edge_keys`` once, at load (the emulator's 2-core distances
  ``core_dist`` stay mapped in their stored dtype), and
  :func:`core_label_batch` answers a batch exactly as the ``(n, n)``
  matrix it replaces would: ``core_dist[root u, root v] + depth u +
  depth v``, the tree distance through the lowest common ancestor for
  pairs that share a root (a batched walk up ``parent``, as many steps
  as the deepest queried tree; 0 when ``u == v``), then 1 on a
  ``G``-edge found in ``edge_keys``.  Every term is an integer below
  ``2**53`` added in float64, so answers are bit-identical to the
  matrix;
* **bunches artifacts** — the classic 2-hop Thorup–Zwick combine
  ``min_w d(u, w) + d(v, w)`` over the common members
  ``w ∈ B(u) ∩ B(v)`` of the two *directed* bunch out-stars (the pivot
  walk's witness ``p_i`` always lies in both stars, which yields the
  ``2k - 1`` stretch and finiteness on connected pairs; the
  ``Θ(n)``-sized clusters ``C(w)`` are never touched, keeping per-query
  work ``O(k n^{1/k})``).  Vectorized for a batch by grouping queries on
  the source vertex: each group scatters ``B(u)`` into a reused dense
  ``(n,)`` distance vector, then one flat gather/add over the group's
  ``B(v)`` CSR slabs plus one ``np.minimum.reduceat`` per group answers
  every query (non-members read ``inf`` and drop out of the min — no
  per-query search structures).  Value ties resolve to the **smallest
  witness id** (the library-wide tie-break), and a stored direct arc
  ``u -> v`` or ``v -> u`` participates as witness ``v``.

A single query is a one-pair batch through the same kind kernel, so it
answers bit-identically to ``query_batch``.
:meth:`DistanceOracle.certificate` returns the per-query stretch
certificate implied by the artifact's proven
``(multiplicative, additive)`` guarantee, and
:meth:`DistanceOracle.stretch_report` scores any answered batch against
exact distances via :func:`repro.analysis.stretch.evaluate_stretch`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..analysis.stretch import StretchReport, evaluate_stretch
from ..graph.distances import TreeLabels, bfs_path, weighted_to_scipy_csr
from ..graph.graph import Graph, WeightedGraph
from ..telemetry import instruments as _instr
from .artifact import ArtifactError, OracleArtifact, load_artifact
from .faults import FAULTS

__all__ = [
    "DistanceOracle",
    "QueryCertificate",
    "CoreLabels",
    "combine_bunch_slabs",
    "core_label_batch",
    "core_labels",
    "edges_csr",
    "edges_sssp_batch",
]

#: Distinct sources per Dijkstra call on an ``edges`` artifact — bounds
#: the dense ``(shard, n)`` result regardless of batch size (a service
#: batch of 8192 distinct sources would be 65 MB at ``n = 1000``).
_EDGES_SSSP_SHARD = 64


@dataclass(frozen=True)
class QueryCertificate:
    """What the artifact *proves* about one answered query.

    The estimate is sound (``d_G(u, v) <= estimate``) and within the
    preprocessing's guarantee (``estimate <= mult * d + add``), so the
    true distance is bracketed::

        (estimate - additive) / multiplicative  <=  d_G(u, v)  <=  estimate

    ``witness`` is the combine vertex for bunches artifacts (smallest id
    at the minimum; ``None`` for matrix artifacts and unreachable pairs).
    """

    u: int
    v: int
    estimate: float
    multiplicative: float
    additive: float
    witness: Optional[int] = None

    @property
    def lower_bound(self) -> float:
        """Proven lower bound on the true distance."""
        if not np.isfinite(self.estimate):
            return np.inf
        return max(0.0, (self.estimate - self.additive) / self.multiplicative)

    @property
    def upper_bound(self) -> float:
        """Proven upper bound on the true distance (the estimate)."""
        return self.estimate

    def holds_for(self, exact: float, atol: float = 1e-9) -> bool:
        """Whether a known exact distance satisfies the certificate."""
        if not np.isfinite(self.estimate):
            return not np.isfinite(exact)
        return self.lower_bound - atol <= exact <= self.upper_bound + atol


class DistanceOracle:
    """Serves distance / path queries from a preprocessing artifact."""

    def __init__(self, artifact: OracleArtifact):
        self._init_common(artifact)
        # Arrays keep their stored dtype (int32/int64 ids, float32/
        # float64 distances): each query path widens what it gathers.
        if self.kind == "matrix":
            self._est = np.asarray(artifact.arrays["estimates"])
            if self._est.shape != (self.n, self.n):
                raise ArtifactError(
                    f"matrix artifact has estimates of shape {self._est.shape}, "
                    f"expected {(self.n, self.n)}"
                )
        elif self.kind == "sources":
            self._est = np.asarray(artifact.arrays["estimates"])
            self._sources = np.asarray(artifact.arrays["sources"])
            if self._est.shape != (self._sources.size, self.n):
                raise ArtifactError(
                    f"sources artifact has estimates of shape "
                    f"{self._est.shape}, expected "
                    f"{(self._sources.size, self.n)}"
                )
            self._source_row = np.full(self.n, -1, dtype=np.int64)
            self._source_row[self._sources] = np.arange(
                self._sources.size, dtype=np.int64
            )
        elif self.kind == "bunches":
            self._indptr, self._cols, self._ds = _directed_csr(
                self.n,
                artifact.arrays["bunch_srcs"],
                artifact.arrays["bunch_dsts"],
                artifact.arrays["bunch_ds"],
            )
        elif self.kind == "edges":
            self._csr = edges_csr(self.n, artifact.arrays)
        elif self.kind == "core":
            self._core = core_labels(self.n, artifact.arrays)
        else:
            raise ArtifactError(f"unknown artifact kind {self.kind!r}")

    def _init_common(self, artifact: OracleArtifact) -> None:
        """The half of construction that parses no kind arrays — shared
        with :class:`~repro.oracle.sharded.ShardedOracle`, which must
        never materialize the merged payload in the parent."""
        self.artifact = artifact
        self.n = artifact.n
        self.kind = artifact.kind
        self.multiplicative = artifact.multiplicative
        self.additive = artifact.additive
        self._lock = threading.Lock()
        self._queries = 0
        self._batched = 0
        self._singles = 0
        self._graph: Optional[object] = None
        self._path_oracle = None

    @classmethod
    def load(cls, path: str, expected_graph=None) -> "DistanceOracle":
        """Load an artifact directory and wrap it in an oracle.

        A format-2 estimate matrix is memory-mapped
        (:func:`repro.oracle.artifact.load_artifact`): the payload stays
        on disk and pages in on demand."""
        return cls(load_artifact(path, expected_graph=expected_graph))

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """One point-to-point distance estimate."""
        return self._query_full(u, v)[0]

    def _query_full(self, u: int, v: int) -> Tuple[float, Optional[int]]:
        u, v = self._check_pair(u, v)
        with self._lock:
            self._queries += 1
            self._singles += 1
        values, witnesses = self._answer_batch(
            np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
        )
        wit = int(witnesses[0]) if witnesses[0] >= 0 else None
        return float(values[0]), wit

    def query_batch(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> np.ndarray:
        """Vectorized distances for parallel index arrays ``us`` / ``vs``
        (one kernel pass for the whole batch)."""
        FAULTS.fire("engine.query_batch")
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError("us and vs must be equal-length 1-D arrays")
        if us.size and (
            us.min() < 0 or us.max() >= self.n
            or vs.min() < 0 or vs.max() >= self.n
        ):
            raise IndexError(f"query vertex out of range for n={self.n}")
        with self._lock:
            self._queries += us.size
            self._batched += us.size
        gather_start = time.perf_counter()
        try:
            values, _ = self._answer_batch(us, vs, want_witness=False)
        finally:
            _instr.ENGINE_GATHER_SECONDS.observe(
                time.perf_counter() - gather_start
            )
        return values

    def certificate(self, u: int, v: int) -> QueryCertificate:
        """The stretch certificate for one query."""
        estimate, witness = self._query_full(u, v)
        return QueryCertificate(
            u=int(u),
            v=int(v),
            estimate=estimate,
            multiplicative=self.multiplicative,
            additive=self.additive,
            witness=witness,
        )

    def stretch_report(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        exact: Sequence[float],
    ) -> StretchReport:
        """Score a batch of queries against known exact distances via
        :func:`repro.analysis.stretch.evaluate_stretch`."""
        estimates = self.query_batch(us, vs)
        return evaluate_stretch(
            estimates, np.asarray(exact, dtype=np.float64),
            additive=self.additive,
        )

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------
    def path(self, u: int, v: int) -> Optional[List[int]]:
        """A concrete ``G``-path for the query, or ``None`` if
        unreachable.

        Requires the artifact to embed its (unweighted) source graph.
        Bunches artifacts expand the shortest bunch-star path edge by
        edge (each star edge is an exact distance, so the expansion
        certifies the 2-hop estimate from above); matrix artifacts answer
        with an exact BFS path of the embedded graph (its length is a
        lower-bound certificate for the served estimate).
        """
        u, v = self._check_pair(u, v)
        g = self._embedded_graph()
        if isinstance(g, WeightedGraph):
            raise ArtifactError(
                "path queries are supported for unweighted source graphs"
            )
        if u == v:
            return [u]
        if self.kind == "bunches":
            oracle = self._bunch_path_oracle(g)
            return oracle.graph_path(u, v)
        return bfs_path(g, u, v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters: queries answered and the batched share."""
        with self._lock:
            return {
                "queries": self._queries,
                "batched_queries": self._batched,
                # There is no result cache.  perfbench/run.py still reads
                # these two keys (``engine.cache_hit_ratio`` and the
                # cross-shard fraction), and only a benchmark change may
                # edit perfbench: hits are always 0, and misses count the
                # single queries (``query``/``certificate``) answered.
                "cache_hits": 0,
                "cache_misses": self._singles,
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_pair(self, u, v) -> Tuple[int, int]:
        u, v = int(u), int(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"query ({u}, {v}) out of range for n={self.n}")
        return u, v

    def _answer_batch(
        self, us: np.ndarray, vs: np.ndarray, want_witness: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, witnesses)`` for a validated batch (witness -1 when
        none applies).  ``want_witness=False`` skips the witness
        reductions — the values are identical either way, and plain
        ``query_batch`` traffic (the serving hot path) only needs them."""
        if self.kind == "matrix":
            values = np.asarray(self._est[us, vs], dtype=np.float64)
            return values, np.full(us.size, -1, dtype=np.int64)
        if self.kind == "sources":
            return self._sources_batch(us, vs)
        if self.kind == "edges":
            return edges_sssp_batch(self._csr, us, vs)
        if self.kind == "core":
            return core_label_batch(self._core, us, vs)
        return self._combine_batch(us, vs, want_witness)

    def _sources_batch(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather for a ``sources``-kind (MSSP) artifact.

        ``estimates[i, v]`` approximates ``d(sources[i], v)``, so a
        query is answerable when either endpoint is a source.  When both
        are, the ``u`` row wins (a deterministic rule — the two rows may
        disagree within the stretch).  Identical endpoints answer 0
        unconditionally; any other pair touching no source raises (the
        artifact has no information about it)."""
        values = np.zeros(us.size, dtype=np.float64)
        same = us == vs
        urow = self._source_row[us]
        vrow = self._source_row[vs]
        use_u = (urow >= 0) & ~same
        use_v = (urow < 0) & (vrow >= 0) & ~same
        uncovered = (urow < 0) & (vrow < 0) & ~same
        if uncovered.any():
            bad = int(np.flatnonzero(uncovered)[0])
            raise ArtifactError(
                f"query ({int(us[bad])}, {int(vs[bad])}) touches no source "
                f"of this MSSP artifact ({int(uncovered.sum())} of "
                f"{us.size} queried pairs uncovered; "
                f"{self._sources.size} sources)"
            )
        values[use_u] = self._est[urow[use_u], vs[use_u]]
        values[use_v] = self._est[vrow[use_v], us[use_v]]
        return values, np.full(us.size, -1, dtype=np.int64)

    def _combine_batch(
        self, us: np.ndarray, vs: np.ndarray, want_witness: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The vectorized 2-hop ``B(u) ∩ B(v)`` combine (see module doc).

        Delegates to :func:`combine_bunch_slabs` with both sides read
        from the oracle's own CSR — the same function the sharded
        engine's workers call with a *local* u-side CSR and v's shard's
        CSR on the v side, which is what keeps sharded answers
        bit-identical to this path.
        """
        return combine_bunch_slabs(
            self.n,
            us,
            vs,
            self._indptr,
            self._cols,
            self._ds,
            self._indptr[vs],
            self._indptr[vs + 1],
            self._cols,
            self._ds,
            want_witness=want_witness,
        )

    def _payload_artifact(self) -> OracleArtifact:
        """The artifact with its payload arrays (path queries read it); a
        sharded oracle loads them on first use: the merged bunches, or
        only the shared arrays (the embedded graph) of any other kind."""
        return self.artifact

    def _embedded_graph(self):
        if self._graph is None:
            g = self._payload_artifact().graph()
            if g is None:
                raise ArtifactError(
                    "path queries need an artifact built with "
                    "include_graph=True (this one has no embedded graph)"
                )
            self._graph = g
        return self._graph

    def _bunch_path_oracle(self, g: Graph):
        if self._path_oracle is None:
            from ..apsp.paths import EmulatorPathOracle

            arrays = self._payload_artifact().arrays
            star = WeightedGraph(self.n)
            star.add_edges_arrays(
                arrays["bunch_srcs"], arrays["bunch_dsts"], arrays["bunch_ds"]
            )
            self._path_oracle = EmulatorPathOracle(g, star)
        return self._path_oracle


# ----------------------------------------------------------------------
# Kind kernels (shared with the sharded engine)
# ----------------------------------------------------------------------

def combine_bunch_slabs(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    u_indptr: np.ndarray,
    u_cols: np.ndarray,
    u_ds: np.ndarray,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
    v_cols: np.ndarray,
    v_ds: np.ndarray,
    want_witness: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """The vectorized 2-hop ``B(u) ∩ B(v)`` combine with injectable
    sides (the bit-identity anchor of the whole serving layer).

    The u side is a CSR indexed by vertex id (``u_indptr`` over the full
    ``n + 1`` rows — a shard's local CSR clamps out-of-range rows to
    empty slabs); the v side is given as *per-query* slab bounds
    ``[v_lo[q], v_hi[q])`` into ``v_cols`` / ``v_ds``.  The unsharded
    engine passes its own CSR on both sides (``v_lo = indptr[vs]``);
    a sharded worker passes its local CSR on the u side and, on the v
    side, the clamped local CSR of v's shard — its own for a same-shard
    pair, the peer shard's mapped files for a cross-shard pair.  The
    candidate set — common members, the two direct-arc conventions, the
    ``u == v`` zero — is identical either way, and ``min`` over float64
    candidates plus the smallest-witness-id tie-break are
    order-independent, so every caller produces bit-identical answers.
    Ids may be int32 or int64 and distances float32 or float64, on
    either side: both are widened to float64 (the dense scatter target
    and the gathered ``B(v)`` distances) before the one addition, so the
    stored dtypes never change an answer.

    Queries are grouped by source: each group scatters ``B(u)`` into a
    reused float64 ``(n,)`` distance vector once, then one flat gather/add
    over the group's ``B(v)`` slabs produces every candidate
    ``d(u, w) + d(v, w)`` (non-members read ``inf`` from the dense
    vector and drop out of the min), and one ``np.minimum.reduceat`` per
    group reduces each query.  Work is ``O(sum |B(v)|)`` gathers — no
    per-query search structures.
    """
    q = us.size
    out = np.full(q, np.inf)
    # Sentinel n = "no witness yet": keeps the smallest-id reduction
    # branch-free; converted to -1 before returning.
    wit = np.full(q, n, dtype=np.int64)
    if q == 0:
        return out, np.full(0, -1, dtype=np.int64)

    order = np.argsort(us, kind="stable")
    sus, svs = us[order], vs[order]
    bounds = np.flatnonzero(
        np.concatenate([[True], sus[1:] != sus[:-1]])
    )
    # Every slab is widened as it is read — ids to intp, distances to
    # float64 — before any fancy index or addition: the stored dtype
    # never reaches the arithmetic, and numpy's own per-call casts of
    # int32 indices and float32 values cost more than one astype.
    v_lo = v_lo.astype(np.intp, copy=False)
    v_hi = v_hi.astype(np.intp, copy=False)
    dense = np.full(n, np.inf)  # reused B(u) scatter target
    for gi in range(bounds.size):
        start = bounds[gi]
        end = bounds[gi + 1] if gi + 1 < bounds.size else q
        u = int(sus[start])
        qidx = order[start:end]  # original positions of this group
        gvs = svs[start:end]
        u_a, u_b = int(u_indptr[u]), int(u_indptr[u + 1])
        ucols = u_cols[u_a:u_b].astype(np.intp, copy=False)
        dense[ucols] = u_ds[u_a:u_b].astype(np.float64, copy=False)

        v_pos, owners = _flat_ranges(v_lo[qidx], v_hi[qidx])
        if v_pos.size:
            vcols = v_cols[v_pos].astype(np.intp, copy=False)
            vds = v_ds[v_pos].astype(np.float64, copy=False)
            cand = dense[vcols] + vds
            starts = np.flatnonzero(
                np.concatenate([[True], owners[1:] != owners[:-1]])
            )
            gowners = owners[starts]
            mins = np.minimum.reduceat(cand, starts)
            fin = np.isfinite(mins)  # inf = empty intersection
            rows_min = qidx[gowners[fin]]
            out[rows_min] = mins[fin]
            if want_witness:
                # Smallest witness achieving the minimum: witness
                # ids ascend inside a slab, so the min over ids at
                # the minimum value is the first one.
                seg_sizes = np.diff(np.append(starts, cand.size))
                at_min = cand == np.repeat(mins, seg_sizes)
                wmin = np.minimum.reduceat(
                    np.where(at_min, vcols, n), starts
                )
                wit[rows_min] = wmin[fin]
            # Direct arc v -> u: competes as witness v (the 2-hop
            # u -> v -> v with d(v, v) = 0).  A value tie leaves the
            # distance unchanged, so the tie branch only matters
            # when witnesses are wanted.
            dmask = vcols == u
            if dmask.any():
                dpos = np.flatnonzero(dmask)
                rows_d = qidx[owners[dpos]]
                w_d = gvs[owners[dpos]]
                dval = vds[dpos]
                take = dval < out[rows_d]
                if want_witness:
                    take |= (dval == out[rows_d]) & (w_d < wit[rows_d])
                out[rows_d[take]] = dval[take]
                wit[rows_d[take]] = w_d[take]
        # Direct arc u -> v: same witness-v convention (the arc
        # weight equals the exact distance in either direction).
        aval = dense[gvs]
        afin = np.isfinite(aval)
        if afin.any():
            rows_a = qidx[afin]
            w_a = gvs[afin]
            av = aval[afin]
            take = av < out[rows_a]
            if want_witness:
                take |= (av == out[rows_a]) & (w_a < wit[rows_a])
            out[rows_a[take]] = av[take]
            wit[rows_a[take]] = w_a[take]
        dense[ucols] = np.inf  # reset only the touched entries
    # Identical endpoints: distance 0, witness the vertex itself.
    same = us == vs
    out[same] = 0.0
    wit[same] = us[same]
    wit[~np.isfinite(out)] = -1
    wit[wit == n] = -1
    return out, wit


def edges_csr(n: int, arrays: Dict[str, np.ndarray]) -> csr_matrix:
    """Decode an ``edges`` artifact's ``emu_us``/``emu_vs``/``emu_ws``
    into the symmetric weighted CSR its queries run Dijkstra over — the
    one decoder of the plain and the sharded engines.

    Raises :class:`ArtifactError` on a missing array, mismatched shapes,
    vertex ids outside ``range(n)`` and negative or NaN weights.
    Duplicate edges
    (older builds stored every ``G`` edge next to the emulator's) are
    min-merged by :meth:`WeightedGraph.add_edges_arrays` first:
    ``csr_matrix`` would *sum* them."""
    try:
        eu = np.asarray(arrays["emu_us"], dtype=np.int64)
        ev = np.asarray(arrays["emu_vs"], dtype=np.int64)
        ew = np.asarray(arrays["emu_ws"], dtype=np.float64)
    except KeyError as exc:
        raise ArtifactError(f"edges artifact has no {exc} array")
    if not (eu.shape == ev.shape == ew.shape) or eu.ndim != 1:
        raise ArtifactError(
            "edges artifact needs equal-length 1-D "
            "emu_us/emu_vs/emu_ws arrays"
        )
    if eu.size and (
        min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n
    ):
        raise ArtifactError(
            f"edges artifact references vertices out of range for n={n}"
        )
    if not (ew >= 0).all():
        raise ArtifactError("edges artifact has negative or NaN weights")
    merged = WeightedGraph(n)
    merged.add_edges_arrays(eu, ev, ew)
    return weighted_to_scipy_csr(merged)


def edges_sssp_batch(
    csr: csr_matrix, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """SSSP-at-query-time over an :func:`edges_csr` graph (``edges``
    kind).

    One ``dijkstra`` call per shard of at most ``_EDGES_SSSP_SHARD``
    *distinct* sources, then a row gather answers every query on those
    sources: cost scales with distinct sources, not batch size.  Each
    source's row is exact and independent of the others, so any
    partition of a batch by source — in particular the sharded engine's
    route-by-``u`` sub-batches — produces bit-identical values.
    """
    sources, inverse = np.unique(us, return_inverse=True)
    values = np.empty(us.size, dtype=np.float64)
    for start in range(0, int(sources.size), _EDGES_SSSP_SHARD):
        shard = sources[start:start + _EDGES_SSSP_SHARD]
        dist = dijkstra(csr, indices=shard)
        in_shard = (inverse >= start) & (inverse < start + shard.size)
        values[in_shard] = dist[inverse[in_shard] - start, vs[in_shard]]
    return values, np.full(us.size, -1, dtype=np.int64)


class CoreLabels(NamedTuple):
    """A decoded ``core`` artifact (:func:`core_labels`)."""

    labels: TreeLabels
    core_dist: np.ndarray
    edge_keys: np.ndarray


def core_labels(n: int, arrays: Dict[str, np.ndarray]) -> CoreLabels:
    """Decode a ``core`` artifact — the one decoder of the plain and the
    sharded engines.  The ``O(n)`` labels and the ``O(m)`` keys are
    widened to int64/float64 here; ``core_dist`` keeps its stored dtype
    and is widened as it is gathered.

    Raises :class:`ArtifactError` on a missing array, label arrays of
    unequal length or covering fewer than ``n`` vertices, and a
    ``core_dist`` that is not square over the core."""
    try:
        labels = TreeLabels(
            root=arrays["root"], depth=arrays["depth"],
            parent=arrays["parent"], hops=arrays["hops"],
        ).widened()
        core_dist = np.asarray(arrays["core_dist"])
        edge_keys = np.asarray(arrays["edge_keys"], dtype=np.int64)
    except KeyError as exc:
        raise ArtifactError(f"core artifact has no {exc} array")
    size = labels.root.shape
    if not (
        len(size) == 1 and size[0] >= n
        and labels.depth.shape == labels.parent.shape == labels.hops.shape
        == size
    ):
        raise ArtifactError(
            f"core artifact needs equal-length 1-D label arrays over at "
            f"least n={n} vertices"
        )
    c = int(np.count_nonzero(labels.parent < 0))
    if core_dist.shape != (c, c):
        raise ArtifactError(
            f"core artifact has core_dist of shape {core_dist.shape}, "
            f"expected {(c, c)}"
        )
    return CoreLabels(labels, core_dist, edge_keys)


def core_label_batch(
    core: CoreLabels, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Answer a batch from a :func:`core_labels` decode (``core`` kind).

    The emulator distance comes from the labels
    (:meth:`~repro.graph.distances.TreeLabels.distances`); a pair whose
    :meth:`~repro.graph.distances.TreeLabels.pair_keys` key is in
    ``edge_keys`` is a ``G``-edge the fold-in lowers to 1.  A pair
    ``u == v`` shares its root and walks no step, so it answers 0, as
    the matrix's zeroed diagonal does.  Every pair is answered on its
    own, so any split of a batch (the sharded route-by-``u``) answers
    the same."""
    values = core.labels.distances(core.core_dist, us, vs)
    keys = core.edge_keys
    if keys.size:
        pair = core.labels.pair_keys(us, vs)
        at = np.minimum(np.searchsorted(keys, pair), keys.size - 1)
        values[keys[at] == pair] = 1.0
    return values, np.full(us.size, -1, dtype=np.int64)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _directed_csr(
    n: int, srcs: np.ndarray, dsts: np.ndarray, ds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted CSR over the directed bunch relation, columns sorted per
    row (what the key-space intersection relies on).  The artifact arrays
    are already in canonical ``(src, dst)`` order; the lexsort makes the
    invariant independent of who produced them.  ``cols`` and ``vals``
    keep the stored dtypes; ``indptr`` is int64."""
    srcs, cols, vals = np.asarray(srcs), np.asarray(dsts), np.asarray(ds)
    order = np.lexsort((cols, srcs))
    srcs, cols, vals = srcs[order], cols[order], vals[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    return indptr, cols, vals


def _flat_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated positions of the half-open ranges ``[lo[i], hi[i])``
    plus the owning query index per position — the
    :func:`repro.kernels.csr._slab_positions` idiom generalized to
    explicit per-query bounds (a CSR row is the special case
    ``lo = indptr[rows]``, ``hi = indptr[rows + 1]``)."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Position p of range i is lo[i] + (p - start of range i's run).
    shift = lo - (np.cumsum(counts) - counts)
    positions = np.arange(total, dtype=np.int64) + np.repeat(shift, counts)
    owners = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    return positions, owners
