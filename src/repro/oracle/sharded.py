"""Sharded multi-process oracle serving (the scale-out layer).

One :class:`~repro.oracle.engine.DistanceOracle` answers every query
from one process over one resident artifact — fine at ``n = 10^4``,
hopeless at ``n = 10^5+`` where even the ``O(k n^{1+1/k})``
Thorup–Zwick bunch relation is hundreds of megabytes and a matrix
artifact is out of the question.  This module splits both the *storage*
and the *serving* across vertex ranges:

**Sharded artifact layout** (``save_sharded_artifact`` /
``build_sharded_oracle``)::

    <path>/
      manifest.json          # ordinary manifest + "shard_map"
      shared/arrays.npz      # non-sharded arrays (tz_levels, graph_*)
      shard-0000/            # vertex range [bounds[0], bounds[1])
        indptr.npy           # bunches: full (n+1) *clamped local* CSR
        cols.npy ds.npy      #   — rows outside the range read empty
      shard-0001/ ...

Every file holds the dtype the one dtype rule
(:func:`~repro.oracle.artifact._narrow`) gives it — int32 ``indptr`` and
``cols``, float32 ``ds`` and ``estimates`` when lossless.

The shard map (``{"layout_version": 1, "shards": S, "bounds": [...]}``)
lives in the manifest; ``bounds`` comes from
:func:`repro.kernels.parallel.shard_edges`, the *canonical* vertex
split — the writer, the router, and every worker derive their ranges
from the same array, so they always agree.  ``matrix`` artifacts shard
the estimate matrix by row range (``shard-XXXX/estimates.npy``);
``edges`` artifacts keep their whole (small) edge list in ``shared/``
and shard only the query routing (every shard answers over the same
load-time CSR); ``sources`` artifacts cannot be
sharded (either endpoint may answer, so no id-range owns a query).

Every layout is written by :func:`_write_sharded`, which takes the
per-shard array dicts as an iterator and writes through the one staged
writer, :func:`~repro.oracle.artifact._write_staged` — the same
``<path>.tmp-<pid>`` staging, file *and* directory fsyncs (the staging
dir, each ``shard-XXXX/`` and ``shared/``), manifest-last rule, atomic
swap and ``artifact.save`` fault-point stages as ``save_artifact``.  It
stages each shard as it arrives, then records as ``checksums`` the
digests of the *logical* arrays (``bunch_srcs``/``bunch_dsts``/
``bunch_ds``, ...), streamed from the staged shard files under the
shards' common dtype — so a merged
load verifies with the ordinary
:meth:`~repro.oracle.artifact.OracleArtifact.verify`, and a sharded
save of an artifact round-trips bit-identically through
:func:`~repro.oracle.artifact.load_artifact` (which detects the layout
and merges transparently).  ``save_sharded_artifact`` feeds it
:func:`_partition_arrays` of an in-memory artifact.

**Streaming build** — ``build_sharded_oracle(g, path, shards)`` for the
``tz`` variant feeds it :func:`_tz_shard_parts`, which cuts the
per-source-range blocks of
:func:`repro.emulator.thorup_zwick.iter_tz_bunch_arc_blocks` (already
canonical) at the shard bounds and yields each shard as soon as its
vertex range is complete: peak resident arc memory is
``O(n^{1+1/k} / S)`` plus one in-flight block, not the whole relation,
or the generator's cluster-pass working set if that is larger (the
manifest records ``stats.peak_resident_arcs``).  Its front half and its
manifest summary are the unsharded build's, so ``name``, the stretch,
``params`` and ``stats`` (``bunch_edges`` counts stored arcs in both)
agree with ``build_oracle``.  Other variants build in memory and
re-partition.

**ShardedOracle** — routes batched queries by vertex id to a persistent
pool of forked worker processes, one per shard (the parent never loads
shard payloads while the pool is healthy).  Every query of every kind
is owned by the shard of its source ``u`` and answered in **one** pool
round.  For the ``bunches`` kind the u-owner runs the dense-scatter
combine with its local ``B(u)`` CSR against ``B(v)`` read straight from
``v``'s shard — its own arrays for a same-shard pair, else the peer
shard's read-only files, which the worker mmaps on first use (shard
files are immutable and on the same host, so no slab travels through
the parent).  Every backend holds the whole shard list and the bounds;
forked workers inherit them and serial degrade uses the same objects.

Each pair is combined once by
:func:`repro.oracle.engine.combine_bunch_slabs` — the same kernel the
single-process engine uses — with the identical candidate set, and min
over float64 plus the smallest-witness-id tie-break are
order-independent, so sharded answers are **bit-identical** to the
unsharded oracle, pool or no pool.  Dispatch is pipelined (send to
every shard, then collect), so a coalesced flush fans its sub-batches
to all shards concurrently.

**Failure semantics** (DESIGN.md §10, consistent with §7): a worker
that dies or stops making progress within the ``REPRO_POOL_TIMEOUT``
budget (read once, when the oracle starts its pool) tears the pool
down; the batch is retried on a rebuilt pool **once** (a
:class:`ParallelFallback` warning), and a second failure degrades
permanently to in-process serial backends over
the same mmap'd shard files — same routing code, same kernel, still
bit-identical, just slower.  ``repro_shard_up`` drops to 0 on degrade.
The ``sharded.worker`` fault point fires inside each worker per
received request, which is how the chaos suite kills one mid-burst.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import multiprocessing

import numpy as np

from ..kernels.parallel import (
    ParallelFallback,
    fork_available,
    pool_timeout,
    shard_edges,
)
from ..telemetry import instruments as _instr
from ..telemetry import metrics as _metrics
from .artifact import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMismatch,
    OracleArtifact,
    _array_digest,
    _check_dtypes,
    _embed_graph,
    _manifest_base,
    _manifest_finish,
    _narrow,
    _resolve_build,
    _streamed_digest,
    _validate_manifest,
    _write_staged,
    build_oracle,
    graph_fingerprint,
)
from .engine import (
    DistanceOracle,
    _directed_csr,
    combine_bunch_slabs,
    edges_csr,
    edges_sssp_batch,
)
from .faults import FAULTS

__all__ = [
    "SHARD_LAYOUT_VERSION",
    "SHARD_MAP_KEY",
    "ShardBackend",
    "ShardedOracle",
    "build_sharded_oracle",
    "is_sharded_artifact",
    "load_sharded_artifact",
    "save_sharded_artifact",
    "shard_of",
]

SHARD_MAP_KEY = "shard_map"
SHARD_LAYOUT_VERSION = 1
SHARED_DIR = "shared"

#: Kinds that can be sharded (``sources`` cannot: either endpoint may
#: answer a query, so no vertex range owns it).
_SHARDABLE_KINDS = ("bunches", "matrix", "edges")

#: Worker liveness poll while waiting on a shard reply.
_POLL = 0.05

#: Streamed-digest chunk size (bytes hashed per read).
_DIGEST_CHUNK = 1 << 24


def _shard_dir(index: int) -> str:
    return f"shard-{index:04d}"


def _shard_bounds(n: int, shards: int) -> np.ndarray:
    """The canonical vertex split (``shard_edges``); ``len - 1`` is the
    *effective* shard count (clamped to ``n``)."""
    if shards < 1:
        raise ArtifactError(f"shards must be >= 1, got {shards}")
    return shard_edges(n, int(shards))


def shard_of(bounds: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Owning shard index for each vertex id under ``bounds``."""
    return np.searchsorted(bounds, ids, side="right") - 1


def is_sharded_artifact(path: str) -> bool:
    """Whether ``path`` holds the sharded layout (a manifest with a
    shard map)."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        return False
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(manifest, dict) and SHARD_MAP_KEY in manifest


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def _local_bunch_csr(
    n: int, lo: int, hi: int, srcs: np.ndarray,
) -> np.ndarray:
    """The shard's full ``(n + 1)`` *clamped local* indptr for canonical
    arcs whose sources all lie in ``[lo, hi)`` — rows outside the range
    read as empty slabs, rows inside index the shard-local arrays
    directly, so no offset bookkeeping exists anywhere downstream."""
    counts = np.bincount(srcs - lo, minlength=hi - lo)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[lo + 1:hi + 1])
    indptr[hi + 1:] = indptr[hi]
    return indptr


def _shard_srcs(lo: int, hi: int, indptr: np.ndarray, dtype) -> np.ndarray:
    """One bunches shard's slice of the logical ``bunch_srcs``: each
    source of ``[lo, hi)`` repeated over its row of the clamped indptr.

    ``bunch_srcs`` is not stored in a sharded layout, so it takes the
    stored dtype of the ids that are (``cols``): int32 from a writer
    with the dtype rule — what an unsharded save narrows ``bunch_srcs``
    to — and int64 in layouts written before it, whose checksums hash
    int64 sources."""
    counts = np.diff(np.asarray(indptr[lo:hi + 1], dtype=np.int64))
    return np.repeat(np.arange(lo, hi, dtype=dtype), counts)


def _logical_checksums(
    staged: str, kind: str, bounds: np.ndarray
) -> Dict[str, str]:
    """The digests of the logical arrays a sharded layout splits,
    streamed shard by shard over the staged (mmap'd) shard files.

    Concatenating the shards in bound order *is* the canonical array
    (``bunch_srcs`` is each shard's clamped CSR expanded over its own
    range, :func:`_shard_srcs`), and the dtype rule is decided value by
    value, so hashing the shards' values under their common dtype
    reproduces ``_array_digest`` of the merged array — and of an
    unsharded save — exactly."""
    n = int(bounds[-1])
    files = [
        _load_shard_files(staged, kind, i) for i in range(bounds.size - 1)
    ]

    def digest(shape, chunks: List[np.ndarray]) -> str:
        return _streamed_digest(np.result_type(*chunks), shape, chunks)

    if kind == "matrix":
        return {"estimates": digest((n, n), [f["estimates"] for f in files])}
    if kind != "bunches":
        return {}
    cols = [f["cols"] for f in files]
    shape = (sum(int(c.size) for c in cols),)
    ids = np.result_type(*cols)
    return {
        # Each shard's sources are expanded only as the hash reaches it.
        "bunch_srcs": _streamed_digest(ids, shape, (
            _shard_srcs(int(bounds[i]), int(bounds[i + 1]), f["indptr"], ids)
            for i, f in enumerate(files)
        )),
        "bunch_dsts": digest(shape, cols),
        "bunch_ds": digest(shape, [f["ds"] for f in files]),
    }


def _partition_arrays(
    kind: str, n: int, arrays: Dict[str, np.ndarray], bounds: np.ndarray
) -> Tuple[List[Dict[str, np.ndarray]], Dict[str, np.ndarray]]:
    """Split an artifact's arrays into one dict per shard (the
    ``shard-XXXX/<name>.npy`` files) plus the arrays every shard shares
    (``shared/arrays.npz``).

    ``bunches`` becomes each shard's clamped local CSR of the canonical
    relation (``_directed_csr`` is a stable sort, so canonical input —
    every builder's output — passes through unchanged) and ``matrix``
    each shard's row range; an ``edges`` shard holds nothing of its own.
    The save writes these dicts and the in-memory
    :class:`ShardedOracle` attaches them, so both serve the same
    arrays."""
    shared = {k: np.asarray(v) for k, v in arrays.items()}
    eff = bounds.size - 1
    parts: List[Dict[str, np.ndarray]] = [{} for _ in range(eff)]
    if kind == "bunches":
        indptr, cols, ds = _directed_csr(
            n,
            shared.pop("bunch_srcs"),
            shared.pop("bunch_dsts"),
            shared.pop("bunch_ds"),
        )
        for i in range(eff):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            a, b = int(indptr[lo]), int(indptr[hi])
            parts[i] = {
                "indptr": np.clip(indptr, a, b) - a,
                "cols": cols[a:b],
                "ds": ds[a:b],
            }
    elif kind == "matrix":
        est = shared.pop("estimates")
        if est.shape != (n, n):
            raise ArtifactError(
                f"matrix artifact has estimates of shape {est.shape}, "
                f"expected {(n, n)}"
            )
        for i in range(eff):
            parts[i] = {"estimates": est[bounds[i]:bounds[i + 1]]}
    return parts, shared


def _write_sharded(
    path: str,
    kind: str,
    bounds: np.ndarray,
    parts: Iterable[Dict[str, np.ndarray]],
    shared: Dict[str, np.ndarray],
    manifest: Callable[[], Dict[str, object]],
) -> Dict[str, object]:
    """Write the sharded layout through the one staged writer
    (:func:`~repro.oracle.artifact._write_staged`); returns the written
    manifest.

    ``parts`` yields one dict of arrays per shard (the
    :func:`_partition_arrays` shape), each staged as
    ``shard-XXXX/<name>.npy`` as soon as it arrives and popped from its
    dict, so a streaming producer never holds a finished shard.
    ``shared`` becomes ``shared/arrays.npz`` (when non-empty).  Every
    array is stored as :func:`~repro.oracle.artifact._narrow` gives it.
    ``manifest()`` is called once every part is staged, so a producer's
    stats are complete; the written manifest adds the logical-array
    ``checksums`` (streamed from the staged shard files, plus the shared
    arrays' digests) and the shard map."""
    shared = {k: _narrow(v) for k, v in shared.items()}

    def shard_files() -> Iterator[Tuple[str, np.ndarray]]:
        for i, part in enumerate(parts):
            for name in list(part):
                rel = os.path.join(_shard_dir(i), f"{name}.npy")
                yield rel, _narrow(part.pop(name))

    def finish(staged: str) -> Dict[str, object]:
        out = dict(manifest())
        out["format_version"] = FORMAT_VERSION
        checksums = _logical_checksums(staged, kind, bounds)
        checksums.update({k: _array_digest(v) for k, v in shared.items()})
        out["checksums"] = checksums
        out[SHARD_MAP_KEY] = {
            "layout_version": SHARD_LAYOUT_VERSION,
            "shards": int(bounds.size - 1),
            "bounds": [int(b) for b in bounds],
        }
        return out

    npz = {os.path.join(SHARED_DIR, ARRAYS_NAME): shared} if shared else {}
    return _write_staged(path, shard_files(), npz, finish)


def save_sharded_artifact(
    artifact: OracleArtifact, path: str, shards: int
) -> Dict[str, object]:
    """Re-partition an in-memory artifact into the sharded layout
    (:func:`_partition_arrays`, written by :func:`_write_sharded`).

    The recorded ``checksums`` are the canonical logical-array digests,
    so a merged :func:`~repro.oracle.artifact.load_artifact` of the
    result verifies and serves bit-identically to the original.  Returns
    the written manifest."""
    kind = artifact.kind
    if kind not in _SHARDABLE_KINDS:
        raise ArtifactError(
            f"artifact kind {kind!r} cannot be sharded; supported kinds: "
            f"{list(_SHARDABLE_KINDS)}"
        )
    bounds = _shard_bounds(artifact.n, shards)
    parts, shared = _partition_arrays(
        kind, artifact.n, artifact.arrays, bounds
    )
    return _write_sharded(
        path, kind, bounds, parts, shared, lambda: artifact.manifest
    )


def _tz_shard_parts(
    g, hierarchy, bounds: np.ndarray, stats: Dict[str, object]
) -> Iterator[Dict[str, np.ndarray]]:
    """The canonical TZ arc blocks
    (:func:`~repro.emulator.thorup_zwick.iter_tz_bunch_arc_blocks`) cut
    at the shard bounds: one bunches part per shard (the
    :func:`_partition_arrays` shape), yielded as soon as the blocks have
    passed its vertex range.  Block sources are sorted, so a
    searchsorted cut is exact.

    Once exhausted it has filled ``stats`` with ``shard_arcs`` (arcs per
    shard) and ``peak_resident_arcs``: the most arcs held at once — the
    current shard's buffer plus the in-flight block, or the generator's
    cluster-pass working set (``pass_arcs``) if that is larger."""
    # Looked up per call, so a tracer that wraps the module's generator
    # sees this build.
    from ..emulator import thorup_zwick

    n = int(g.n)
    ends = [int(b) for b in bounds[1:]]
    shard_arcs: List[int] = []
    # The current shard's srcs / dsts / dists slices.
    pending: Tuple[List[np.ndarray], ...] = ([], [], [])
    cur = buffered = peak = 0

    def take(block, a: int, b: Optional[int] = None) -> None:
        for buf, arcs in zip(pending, block[2:]):
            buf.append(arcs[a:b])

    def part() -> Dict[str, np.ndarray]:
        srcs, cols, ds = thorup_zwick._concat_arcs(*pending)
        for buf in pending:
            buf.clear()
        shard_arcs.append(int(srcs.size))
        return {
            "indptr": _local_bunch_csr(n, int(bounds[cur]), ends[cur], srcs),
            "cols": cols,
            "ds": ds,
        }

    for block in thorup_zwick.iter_tz_bunch_arc_blocks(g, hierarchy):
        hi, bs = block[1], block[2]
        # The generator holds its cluster pass before the first block and
        # only the block it yields afterwards.
        peak = max(peak, block.pass_arcs, buffered + bs.size)
        start = 0
        while cur < len(ends) - 1 and hi > ends[cur]:
            cut = int(np.searchsorted(bs, ends[cur], side="left"))
            take(block, start, cut)
            yield part()
            buffered, cur, start = 0, cur + 1, cut
        take(block, start)
        buffered += bs.size - start
    while cur < len(ends):
        yield part()
        cur += 1
    stats["shard_arcs"] = shard_arcs
    stats["peak_resident_arcs"] = int(peak)


def build_sharded_oracle(
    g,
    path: str,
    shards: int,
    variant: str = "tz",
    eps: Optional[float] = None,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    include_graph: bool = True,
    params: Optional[Dict[str, object]] = None,
    **extra,
) -> Dict[str, object]:
    """Build a sharded artifact directly at ``path``; returns the
    manifest.

    For the ``tz`` variant this **streams**: :func:`_tz_shard_parts`
    cuts the canonical blocks of
    :func:`~repro.emulator.thorup_zwick.iter_tz_bunch_arc_blocks` at the
    shard bounds and :func:`_write_sharded` stages each shard as soon as
    its range completes — peak resident arc memory is one shard plus one
    in-flight block, or the generator's cluster-pass working set if
    larger, recorded in the manifest as ``stats.peak_resident_arcs``.
    The front half (:func:`~repro.oracle.artifact._resolve_build`), the
    hierarchy sampling, the per-range arc rule, the canonical ordering
    and the manifest summary are :func:`build_oracle`'s, so the merged
    load and the manifest's ``name``, stretch, ``params`` and ``stats``
    equal an unsharded build with the same seed.  Any other variant
    builds in memory via :func:`build_oracle` and re-partitions."""
    bounds = _shard_bounds(g.n, shards)  # a bad count fails before the build
    if variant != "tz":
        artifact = build_oracle(
            g, variant=variant, eps=eps, r=r, rng=rng,
            include_graph=include_graph, params=params, **extra,
        )
        return save_sharded_artifact(artifact, path, shards)
    extra.pop("profile", None)  # the streamed build is not profiled

    from ..emulator.sampling import sample_hierarchy
    from ..emulator.thorup_zwick import _tz_summary

    spec, resolved, rng = _resolve_build(g, variant, eps, r, params, rng)
    hierarchy = sample_hierarchy(g.n, int(resolved["r"]), rng)
    shared: Dict[str, np.ndarray] = {
        "tz_levels": np.asarray(hierarchy.levels, dtype=np.int64),
    }
    if include_graph:
        _embed_graph(g, shared)
    stream: Dict[str, object] = {}

    def manifest() -> Dict[str, object]:
        summary = _tz_summary(hierarchy, sum(stream["shard_arcs"]))
        summary["stats"].update(streamed=True, **stream)
        return _manifest_finish(
            _manifest_base(g, spec.name, resolved, include_graph),
            kind=spec.kind, **summary,
        )

    return _write_sharded(
        path, spec.kind, bounds,
        _tz_shard_parts(g, hierarchy, bounds, stream), shared, manifest,
    )


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def _read_sharded_manifest(path: str) -> Tuple[Dict[str, object], np.ndarray]:
    """The validated manifest and shard bounds of a sharded layout."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise ArtifactError(
            f"{path!r} is not an oracle artifact (no {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"unreadable manifest in {path!r}: {exc}")
    _validate_manifest(manifest, path)
    smap = manifest.get(SHARD_MAP_KEY)
    if not isinstance(smap, dict):
        raise ArtifactError(f"{path!r} has no shard map; not sharded")
    try:
        layout = int(smap["layout_version"])
        shards = int(smap["shards"])
        bounds = np.asarray(smap["bounds"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed shard map in {path!r}: {exc}")
    if layout > SHARD_LAYOUT_VERSION:
        raise ArtifactError(
            f"shard layout version {layout} is newer than this library "
            f"supports ({SHARD_LAYOUT_VERSION}); rebuild the artifact"
        )
    n = int(manifest["n"])
    if (
        shards < 1 or bounds.size != shards + 1
        or int(bounds[0]) != 0 or int(bounds[-1]) != n
        or not bool(np.all(np.diff(bounds) > 0))
    ):
        raise ArtifactError(
            f"shard map bounds in {path!r} do not partition "
            f"range({n}) into {shards} shards"
        )
    kind = str(manifest["kind"])
    if kind not in _SHARDABLE_KINDS:
        raise ArtifactError(
            f"sharded artifact {path!r} has unshardable kind {kind!r}"
        )
    return manifest, bounds


def _load_shared_arrays(path: str) -> Dict[str, np.ndarray]:
    npz = os.path.join(path, SHARED_DIR, ARRAYS_NAME)
    arrays: Dict[str, np.ndarray] = {}
    if not os.path.isfile(npz):
        return arrays
    try:
        with np.load(npz, allow_pickle=False) as data:
            for key in data.files:
                arrays[key] = data[key]
    except Exception as exc:
        raise ArtifactCorrupt(
            f"unreadable shared array payload {npz!r} ({exc}); "
            "rebuild the artifact"
        )
    _check_dtypes(arrays, npz)
    return arrays


def _load_shard_files(
    path: str, kind: str, index: int, mmap: bool = True
) -> Dict[str, np.ndarray]:
    """The per-shard arrays of one shard directory (mmap'd by default),
    in their stored dtypes."""
    d = os.path.join(path, _shard_dir(index))
    names = {
        "bunches": ("indptr", "cols", "ds"),
        "matrix": ("estimates",),
        "edges": (),
    }[kind]
    out: Dict[str, np.ndarray] = {}
    for name in names:
        fp = os.path.join(d, f"{name}.npy")
        try:
            out[name] = np.load(
                fp, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except Exception as exc:
            raise ArtifactCorrupt(
                f"shard array {fp!r} is missing, truncated, or corrupted "
                f"({exc}); rebuild the artifact"
            )
    _check_dtypes(out, d)
    return out


def load_sharded_artifact(
    path: str,
    expected_graph=None,
    mmap: bool = False,
    verify: bool = False,
) -> OracleArtifact:
    """Merge a sharded layout back into one logical
    :class:`~repro.oracle.artifact.OracleArtifact`.

    Concatenating the shards in bound order *is* the canonical array
    layout (source ranges are disjoint and each shard is locally
    canonical), so the merged artifact is bit-identical to an unsharded
    save — including its ``checksums``, which is what ``verify=True``
    (the ``repro verify-artifact`` path) recomputes."""
    manifest, bounds = _read_sharded_manifest(path)
    kind = str(manifest["kind"])
    shards = bounds.size - 1
    arrays = _load_shared_arrays(path)
    # A validated shard map has at least one shard, so every concatenate
    # below has a part; it promotes mixed stored dtypes to their common
    # one, as the checksums do (_logical_checksums).
    files = [_load_shard_files(path, kind, i) for i in range(shards)]
    if kind == "bunches":
        arrays["bunch_dsts"] = np.concatenate([f["cols"] for f in files])
        arrays["bunch_srcs"] = np.concatenate([
            _shard_srcs(int(bounds[i]), int(bounds[i + 1]), f["indptr"],
                        arrays["bunch_dsts"].dtype)
            for i, f in enumerate(files)
        ])
        arrays["bunch_ds"] = np.concatenate([f["ds"] for f in files])
    elif kind == "matrix":
        arrays["estimates"] = np.concatenate(
            [f["estimates"] for f in files], axis=0
        )
    artifact = OracleArtifact(manifest=manifest, arrays=arrays)
    if verify:
        artifact.verify()
    if expected_graph is not None:
        artifact.check_graph(expected_graph)
    return artifact


# ----------------------------------------------------------------------
# The per-shard compute backend
# ----------------------------------------------------------------------

class ShardBackend:
    """One shard's answer engine — the same object runs inside a forked
    pool worker and in the parent's serial-degrade mode.

    Arrays arrive either eagerly (the in-memory partition of a plain
    artifact) or lazily from a shard directory (``ensure_loaded`` mmaps
    on first use — inside the forked child in pool mode, so the parent
    never pages the payload in while the pool is healthy).  A bunches
    worker also loads, on first use, each peer shard it reads ``B(v)``
    slabs from."""

    def __init__(
        self,
        n: int,
        kind: str,
        lo: int,
        hi: int,
        index: int,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        path: Optional[str] = None,
        csr=None,
    ):
        self.n = int(n)
        self.kind = kind
        self.lo = int(lo)
        self.hi = int(hi)
        self.index = int(index)
        self._path = path
        self._requests = 0
        self._queries = 0
        self._loaded = False
        # The whole shard set, wired by ShardedOracle._finish_init: a
        # bunches gather reads B(v) from ``peers[shard_of(bounds, v)]``.
        self.bounds: Optional[np.ndarray] = None
        self.peers: Sequence["ShardBackend"] = ()
        # An edges shard answers over the whole graph: the one
        # load-time CSR (``edges_csr``), shared by every backend.
        self.csr = csr
        if arrays is not None:
            self._attach(arrays)

    # -- loading -------------------------------------------------------
    def _attach(self, arrays: Dict[str, np.ndarray]) -> None:
        # Arrays keep their stored dtype; gather widens what it reads.
        if self.kind == "bunches":
            self.indptr = arrays["indptr"]
            self.cols = arrays["cols"]
            self.ds = arrays["ds"]
        elif self.kind == "matrix":
            self.est = arrays["estimates"]
            if self.est.shape != (self.hi - self.lo, self.n):
                raise ArtifactError(
                    f"shard {self.index} has estimates of shape "
                    f"{self.est.shape}, expected "
                    f"{(self.hi - self.lo, self.n)}"
                )
        self._loaded = True

    def ensure_loaded(self) -> None:
        if self._loaded:
            return
        if self._path is None:
            raise ArtifactError(
                f"shard backend {self.index} has neither arrays nor a "
                "path to load them from"
            )
        self._attach(_load_shard_files(self._path, self.kind, self.index))

    # -- dispatch ------------------------------------------------------
    def handle(self, op: Tuple) -> object:
        """Run one routed operation (the pipe protocol's payload)."""
        self.ensure_loaded()
        self._requests += 1
        name = op[0]
        if name == "gather":
            _, us, vs, want_witness = op
            self._queries += us.size
            return self.gather(us, vs, want_witness)
        if name == "stats":
            return self.stats()
        raise ArtifactError(f"unknown shard op {name!r}")

    # -- the routed operation -----------------------------------------
    def gather(
        self, us: np.ndarray, vs: np.ndarray, want_witness: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer pairs whose source ``u`` this shard owns."""
        if self.kind == "matrix":
            values = np.asarray(
                self.est[us - self.lo, vs], dtype=np.float64
            )
            return values, np.full(us.size, -1, dtype=np.int64)
        if self.kind == "edges":
            return edges_sssp_batch(self.csr, us, vs)
        # bunches: B(u) is local; B(v) is read from v's shard — this
        # backend when v is local, else the peer's (lazily mmap'd) files.
        values = np.empty(us.size, dtype=np.float64)
        wits = np.empty(us.size, dtype=np.int64)
        for s, qidx in _groups(shard_of(self.bounds, vs)):
            peer = self.peers[s]
            peer.ensure_loaded()
            gvs = vs[qidx]
            values[qidx], wits[qidx] = combine_bunch_slabs(
                self.n, us[qidx], gvs,
                self.indptr, self.cols, self.ds,
                peer.indptr[gvs], peer.indptr[gvs + 1], peer.cols, peer.ds,
                want_witness=want_witness,
            )
        return values, wits

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "shard": self.index,
            "lo": self.lo,
            "hi": self.hi,
            "requests": int(self._requests),
            "queries": int(self._queries),
            "pid": os.getpid(),
        }
        try:
            import resource

            out["maxrss_kb"] = int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
        except Exception:
            pass
        return out


def _worker_main(conn, backend: ShardBackend) -> None:
    """The forked shard worker's loop: receive a list of ops, fire the
    chaos point, answer.  A clean per-request error is replied (the
    worker stays up); death or a hang is the parent supervisor's
    problem."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg == "stop":
            break
        try:
            FAULTS.fire("sharded.worker")
            out = [backend.handle(op) for op in msg]
        except BaseException as exc:
            try:
                conn.send(("error", exc))
            except Exception:
                break
            continue
        try:
            conn.send(("ok", out))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except Exception:
        pass


class _PoolBroken(Exception):
    """Internal: a shard worker died, hung, or its pipe tore — the
    supervision ladder handles it (never escapes ShardedOracle)."""


class _ShardPool:
    """A persistent pool of forked workers, one per shard, each bound to
    its own :class:`ShardBackend` over a dedicated pipe."""

    def __init__(self, backends: Sequence[ShardBackend], timeout: float):
        self._timeout = timeout
        ctx = multiprocessing.get_context("fork")
        self._procs = []
        self._conns = []
        for backend in backends:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child, backend), daemon=True
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def roundtrip(
        self, requests: Dict[int, List[Tuple]]
    ) -> Tuple[Dict[int, List], Dict[int, float]]:
        """Pipelined dispatch: send to every requested shard, then
        collect replies in completion order — shards compute
        concurrently.  Returns the replies and, per shard, the seconds
        from the send to its reply's arrival.  Worker death, a torn
        pipe, or no progress within the pool's hung-worker budget
        raises :class:`_PoolBroken`; a clean ``("error", exc)`` reply is
        re-raised after all replies are drained (the pool stays
        consistent)."""
        # Imported here, as ``Pipe`` does: unsharded serving never loads it.
        from multiprocessing.connection import wait

        start = time.perf_counter()
        try:
            for s, ops in requests.items():
                self._conns[s].send(ops)
        except (BrokenPipeError, OSError) as exc:
            raise _PoolBroken(f"shard pipe send failed: {exc}")
        deadline = time.monotonic() + self._timeout
        pending = {self._conns[s]: s for s in requests}
        results: Dict[int, List] = {}
        seconds: Dict[int, float] = {}
        error: Optional[BaseException] = None
        while pending:
            ready = wait(list(pending), timeout=_POLL)
            for conn in ready:
                s = pending.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError) as exc:
                    raise _PoolBroken(f"shard {s} reply pipe tore: {exc}")
                seconds[s] = time.perf_counter() - start
                if status == "error":
                    if error is None:
                        error = payload
                else:
                    results[s] = payload
            if ready:
                continue
            for s in pending.values():
                proc = self._procs[s]
                if not proc.is_alive():
                    raise _PoolBroken(
                        f"shard {s} worker died (exit code {proc.exitcode})"
                    )
            if time.monotonic() >= deadline:
                raise _PoolBroken(
                    f"shard {min(pending.values())} worker made no "
                    f"progress within {self._timeout}s (REPRO_POOL_TIMEOUT)"
                )
        if error is not None:
            raise error
        return results, seconds

    def alive(self) -> bool:
        return all(p.is_alive() for p in self._procs)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send("stop")
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# The sharded oracle
# ----------------------------------------------------------------------

class ShardedOracle(DistanceOracle):
    """A :class:`DistanceOracle` whose answers are computed by per-shard
    backends — forked pool workers when available, in-process serial
    otherwise — behind the exact public query surface (``query`` /
    ``query_batch`` / ``certificate`` / ``path``), and always
    bit-identical to the single-process engine.  See the module
    docstring for routing and failure semantics."""

    def __init__(
        self,
        artifact: OracleArtifact,
        shards: int,
        pool: Optional[bool] = None,
    ):
        """In-memory mode: partition a loaded artifact into ``shards``
        vertex ranges (fork-inherited by pool workers, copy-on-write).
        For the on-disk sharded layout use :meth:`load`."""
        self._init_common(artifact)
        if self.kind not in _SHARDABLE_KINDS:
            raise ArtifactError(
                f"artifact kind {self.kind!r} cannot be sharded; "
                f"supported kinds: {list(_SHARDABLE_KINDS)}"
            )
        bounds = _shard_bounds(self.n, shards)
        parts, shared = _partition_arrays(
            self.kind, self.n, artifact.arrays, bounds
        )
        csr = edges_csr(self.n, shared) if self.kind == "edges" else None
        backends = [
            ShardBackend(
                self.n, self.kind, int(bounds[i]), int(bounds[i + 1]), i,
                arrays=part, csr=csr,
            )
            for i, part in enumerate(parts)
        ]
        self._sharded_dir: Optional[str] = None
        self._merged: Optional[OracleArtifact] = artifact
        self._finish_init(bounds, backends, pool)

    # -- construction --------------------------------------------------
    def _finish_init(
        self,
        bounds: np.ndarray,
        backends: List[ShardBackend],
        pool: Optional[bool],
    ) -> None:
        self._bounds = bounds
        self._backends = backends
        for b in backends:  # forked workers inherit the wiring
            b.bounds, b.peers = bounds, backends
        self.shards = bounds.size - 1
        self._mount = "default"
        self._route_lock = threading.Lock()
        self._pool: Optional[_ShardPool] = None
        self._pool_finalizer = None
        self._rebuilds_left = 1
        self._rebuilds = 0
        self._degraded = False
        self._closed = False
        self._shard_query_counts = np.zeros(self.shards, dtype=np.int64)
        self._metric_children: Dict = {}
        want_pool = (
            pool if pool is not None
            else (self.shards > 1 and fork_available())
        )
        if want_pool and not fork_available():
            raise ArtifactError(
                "sharded pool serving needs the 'fork' start method; "
                "pass pool=False for in-process serial sharding"
            )
        if want_pool:
            # Read once: a rebuilt pool reuses this budget, and a bad
            # value fails the load instead of every later batch.
            self._pool_timeout = pool_timeout()
            self._start_pool()
        else:
            self._degraded = self.shards > 1 and pool is not False
        self._sync_up_gauge()

    @classmethod
    def load(
        cls,
        path: str,
        shards: Optional[int] = None,
        expected_graph=None,
        mmap: bool = True,
        pool: Optional[bool] = None,
    ) -> "ShardedOracle":
        """Open a sharded artifact directory, or partition a plain one.

        A sharded layout is served *as stored*: each worker mmaps its
        own shard directory, plus the peer shards it reads ``B(v)``
        slabs from (bunches kind), and the parent loads nothing but the
        manifest — and, for the edges kind, the shared edge list, which
        it decodes once (:func:`~repro.oracle.engine.edges_csr`) for
        every worker to inherit (``shards=`` must match the layout when
        given).  A
        plain artifact directory is loaded and partitioned in memory
        into ``shards`` ranges (pool workers inherit the partition over
        fork, copy-on-write)."""
        if is_sharded_artifact(path):
            manifest, bounds = _read_sharded_manifest(path)
            stored = bounds.size - 1
            if shards is not None and int(shards) != stored:
                raise ArtifactError(
                    f"artifact {path!r} is stored with {stored} shards; "
                    f"shards={shards} does not match (re-save to "
                    "re-partition)"
                )
            if expected_graph is not None:
                got = graph_fingerprint(expected_graph)
                if got != str(manifest["graph_hash"]):
                    raise ArtifactMismatch(
                        f"artifact was built for graph "
                        f"{str(manifest['graph_hash'])[:12]}…, queried "
                        f"graph hashes to {got[:12]}… — rebuild the "
                        "artifact before serving this graph"
                    )
            self = cls.__new__(cls)
            self._init_common(OracleArtifact(manifest=manifest, arrays={}))
            if self.kind not in _SHARDABLE_KINDS:
                raise ArtifactError(
                    f"artifact kind {self.kind!r} cannot be sharded"
                )
            self._sharded_dir = os.path.abspath(path)
            self._merged = None
            csr = (
                edges_csr(self.n, _load_shared_arrays(path))
                if self.kind == "edges" else None
            )
            backends = [
                ShardBackend(
                    self.n, self.kind, int(bounds[i]), int(bounds[i + 1]),
                    i, path=self._sharded_dir, csr=csr,
                )
                for i in range(stored)
            ]
            self._finish_init(bounds, backends, pool)
            return self
        if shards is None:
            raise ArtifactError(
                f"{path!r} is not a sharded artifact; pass shards=N to "
                "partition a plain artifact in memory"
            )
        from .artifact import load_artifact

        artifact = load_artifact(
            path, expected_graph=expected_graph, mmap=mmap
        )
        return cls(artifact, shards=int(shards), pool=pool)

    # -- lifecycle -----------------------------------------------------
    def _start_pool(self) -> None:
        import weakref

        pool = _ShardPool(self._backends, self._pool_timeout)
        self._pool = pool
        # Finalize the *pool*, not the oracle: workers die with the
        # parent even when close() is never called.
        self._pool_finalizer = weakref.finalize(self, pool.close)

    def _drop_pool(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Stop the worker pool (idempotent; serial serving keeps
        working afterwards — the backends stay loaded)."""
        with self._route_lock:
            self._drop_pool()
            self._closed = True
            self._sync_up_gauge()

    # -- routing -------------------------------------------------------
    def _answer_batch(
        self, us: np.ndarray, vs: np.ndarray, want_witness: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        with self._route_lock:
            while True:
                try:
                    return self._route(us, vs, want_witness)
                except _PoolBroken as exc:
                    self._handle_pool_failure(exc)

    def _handle_pool_failure(self, exc: _PoolBroken) -> None:
        self._drop_pool()
        if self._rebuilds_left > 0:
            self._rebuilds_left -= 1
            self._rebuilds += 1
            warnings.warn(
                f"sharded oracle pool failed ({exc}); rebuilding the "
                "worker pool once and retrying the batch",
                ParallelFallback,
                stacklevel=4,
            )
            self._start_pool()
        else:
            warnings.warn(
                f"sharded oracle pool failed again ({exc}); degrading "
                "permanently to in-process serial shard backends "
                "(answers stay bit-identical)",
                ParallelFallback,
                stacklevel=4,
            )
            self._degraded = True
        self._sync_up_gauge()

    def _route(
        self, us: np.ndarray, vs: np.ndarray, want_witness: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every query is owned by ``shard(u)``, whatever the kind: a
        matrix shard holds its row range whole, an edges shard's SSSP
        rows reach their fixpoints independently of how the batch is
        split, and a bunches shard reads ``B(v)`` from the peer shard's
        files itself (:meth:`ShardBackend.gather`) — one pool round."""
        values = np.empty(us.size, dtype=np.float64)
        wits = np.full(us.size, -1, dtype=np.int64)
        if us.size == 0:
            return values, wits
        requests: Dict[int, List[Tuple]] = {}
        meta: Dict[int, np.ndarray] = {}
        for s, qidx in _groups(shard_of(self._bounds, us)):
            requests[s] = [("gather", us[qidx], vs[qidx], want_witness)]
            meta[s] = qidx
        results = self._dispatch(requests)
        for s, qidx in meta.items():
            val, wit = results[s][0]
            values[qidx] = val
            wits[qidx] = wit
        return values, wits

    def _dispatch(
        self, requests: Dict[int, List[Tuple]]
    ) -> Dict[int, List]:
        """One pipelined round against the pool (or the in-process
        serial backends after degrade), with per-shard telemetry: each
        shard that ran a ``gather`` observes its own time — its reply's
        arrival in pool mode, its own backend loop in serial mode."""
        if self._pool is not None:
            # may raise _PoolBroken
            results, seconds = self._pool.roundtrip(requests)
        else:
            results, seconds = {}, {}
            for s, ops in requests.items():
                start = time.perf_counter()
                results[s] = [self._backends[s].handle(op) for op in ops]
                seconds[s] = time.perf_counter() - start
        enabled = _metrics.ENABLED
        for s, ops in requests.items():
            routed = sum(int(op[1].size) for op in ops if op[0] == "gather")
            if not routed:  # a stats round: nothing was gathered
                continue
            self._shard_query_counts[s] += routed
            if enabled:
                counter, histogram = self._shard_children(s)
                counter.inc(routed)
                histogram.observe(seconds[s])
        return results

    # -- telemetry -----------------------------------------------------
    def set_mount(self, name: str) -> None:
        """Label this oracle's per-shard metric series with its mount
        name (the service layer calls this when mounting)."""
        self._mount = str(name)
        self._metric_children.clear()
        self._sync_up_gauge()

    def _shard_children(self, s: int):
        child = self._metric_children.get(s)
        if child is None:
            child = (
                _instr.SHARD_QUERIES.labels(self._mount, str(s)),
                _instr.SHARD_GATHER_SECONDS.labels(str(s)),
            )
            self._metric_children[s] = child
        return child

    def _sync_up_gauge(self) -> None:
        if not _metrics.ENABLED:
            return
        up = 1.0 if self._pool is not None else 0.0
        for s in range(self.shards):
            _instr.SHARD_UP.labels(self._mount, str(s)).set(up)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        base = super().stats()
        self._sync_up_gauge()
        base.update({
            "shards": int(self.shards),
            "shard_bounds": [int(b) for b in self._bounds],
            "shard_mode": "pool" if self._pool is not None else "serial",
            "shard_degraded": bool(self._degraded),
            "pool_rebuilds": int(self._rebuilds),
            "shard_queries": [
                int(c) for c in self._shard_query_counts
            ],
        })
        return base

    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-shard worker introspection (pid, request counters, and —
        on POSIX — peak RSS in kB; the E22 benchmark's memory probe).
        Served by the live pool when one exists, else by the in-process
        backends."""
        with self._route_lock:
            while True:
                try:
                    results = self._dispatch(
                        {s: [("stats",)] for s in range(self.shards)}
                    )
                    break
                except _PoolBroken as exc:
                    self._handle_pool_failure(exc)
        return [results[s][0] for s in range(self.shards)]

    # -- path queries ------------------------------------------------
    def _payload_artifact(self) -> OracleArtifact:
        if self._merged is None:
            self._merged = load_sharded_artifact(self._sharded_dir)
        return self._merged


def _groups(sid: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(shard, positions)`` per distinct shard id in ``sid`` (stable
    order inside each group)."""
    if sid.size == 0:
        return
    order = np.argsort(sid, kind="stable")
    ssid = sid[order]
    starts = np.flatnonzero(
        np.concatenate([[True], ssid[1:] != ssid[:-1]])
    )
    for gi in range(starts.size):
        a = starts[gi]
        b = starts[gi + 1] if gi + 1 < starts.size else sid.size
        yield int(ssid[a]), order[a:b]
