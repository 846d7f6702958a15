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

The shard map (``{"layout_version": 1, "shards": S, "bounds": [...]}``)
lives in the manifest; ``bounds`` comes from
:func:`repro.kernels.parallel.shard_edges`, the *canonical* vertex
split — the writer, the router, and every worker derive their ranges
from the same array, so they always agree.  ``matrix`` artifacts shard
the estimate matrix by row range (``shard-XXXX/estimates.npy``);
``edges`` artifacts keep their whole (small) edge list in ``shared/``
and shard only the query routing; ``sources`` artifacts cannot be
sharded (either endpoint may answer, so no id-range owns a query).

The manifest's ``checksums`` are the digests of the *logical* arrays
(``bunch_srcs``/``bunch_dsts``/``bunch_ds``, ...), computed by
streaming over the shard files — so a merged load verifies with the
ordinary :meth:`~repro.oracle.artifact.OracleArtifact.verify`, and a
sharded save of an artifact round-trips bit-identically through
:func:`~repro.oracle.artifact.load_artifact` (which detects the layout
and merges transparently).  Writes stage in a ``<path>.tmp-<pid>``
sibling and commit with the same atomic swap as ``save_artifact``,
firing the same ``artifact.save`` fault-point stages.

**Streaming build** — ``build_sharded_oracle(g, path, shards)`` for the
``tz`` variant consumes
:func:`repro.emulator.thorup_zwick.iter_tz_bunch_arc_blocks`, whose
per-source-range blocks are already canonical, and writes each shard as
soon as its vertex range is complete: peak resident arc memory is
``O(n^{1+1/k} / S)`` plus one in-flight block, not the whole relation,
or the generator's cluster-pass working set if that is larger (the
manifest records ``stats.peak_resident_arcs``).  Other variants build
in memory and re-partition.

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

import hashlib
import json
import os
import shutil
import threading
import time
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from .. import variants as variants_registry
from ..kernels.parallel import (
    ParallelFallback,
    fork_available,
    pool_timeout,
    shard_edges,
)
from ..telemetry import instruments as _instr
from ..telemetry import metrics as _metrics
from ..variants import UnknownVariantError
from .artifact import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMismatch,
    OracleArtifact,
    _array_digest,
    _commit_staged,
    _embed_graph,
    _fsync_fh,
    _manifest_base,
    _manifest_finish,
    _reap_workdirs,
    _validate_manifest,
    build_oracle,
    graph_fingerprint,
)
from .engine import (
    DistanceOracle,
    _directed_csr,
    combine_bunch_slabs,
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

class _StagedWriter:
    """Crash-safe sharded-artifact writer: every file lands in a
    ``<path>.tmp-<pid>`` sibling, the manifest is written last, and
    ``finish`` promotes the staging atomically (same swap + fault-point
    stages as ``save_artifact``)."""

    def __init__(self, path: str):
        self.final = os.path.abspath(path)
        _reap_workdirs(self.final)
        self.tmp = f"{self.final}.tmp-{os.getpid()}"
        os.makedirs(self.tmp)
        FAULTS.fire("artifact.save", stage="begin")

    def _ensure_parent(self, rel: str) -> str:
        full = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def save_array(self, rel: str, arr: np.ndarray) -> None:
        """One uncompressed, mmap-able ``.npy`` under the staging."""
        with open(self._ensure_parent(rel), "wb") as fh:
            np.save(fh, np.ascontiguousarray(arr))
            _fsync_fh(fh)

    def save_npz(self, rel: str, arrays: Dict[str, np.ndarray]) -> None:
        with open(self._ensure_parent(rel), "wb") as fh:
            np.savez_compressed(fh, **arrays)
            _fsync_fh(fh)

    def staged(self, rel: str) -> str:
        """Path of an already-staged file (the digest pass re-reads
        shard files from the staging before the manifest is written)."""
        return os.path.join(self.tmp, rel)

    def finish(self, manifest: Dict[str, object]) -> None:
        try:
            FAULTS.fire("artifact.save", stage="arrays")
            with open(os.path.join(self.tmp, MANIFEST_NAME), "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
                _fsync_fh(fh)
            FAULTS.fire("artifact.save", stage="manifest")
        except BaseException:
            self.abort()
            raise
        _commit_staged(self.tmp, self.final)

    def abort(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


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


def _streamed_digest(dtype: np.dtype, shape: Tuple[int, ...], chunks) -> str:
    """The :func:`~repro.oracle.artifact._array_digest` of a logical
    array whose bytes arrive as a sequence of contiguous chunks —
    what lets the streaming builder record canonical checksums without
    ever materializing the merged array."""
    h = hashlib.sha256()
    h.update(np.dtype(dtype).str.encode())
    h.update(repr(tuple(int(s) for s in shape)).encode())
    for chunk in chunks:
        a = np.ascontiguousarray(chunk)
        try:
            h.update(memoryview(a).cast("B"))
        except (TypeError, ValueError):
            h.update(a.tobytes())
    return h.hexdigest()


def _bunch_shard_checksums(
    n: int, bounds: np.ndarray, shard_files
) -> Dict[str, str]:
    """Canonical ``bunch_*`` digests computed shard-at-a-time.

    ``shard_files(i)`` returns ``(indptr, cols, ds)`` arrays (typically
    mmap'd) for shard ``i``; concatenating shards in order *is* the
    canonical global array, so streaming each shard's bytes through one
    hash per logical array reproduces ``_array_digest`` of the merged
    arrays exactly."""
    shards = bounds.size - 1
    total = 0
    srcs_chunks: List[np.ndarray] = []
    cols_chunks: List[np.ndarray] = []
    ds_chunks: List[np.ndarray] = []

    def _chunks(kind: str) -> Iterator[np.ndarray]:
        for i in range(shards):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            indptr, cols, ds = shard_files(i)
            if kind == "srcs":
                counts = np.diff(indptr[lo:hi + 1])
                yield np.repeat(
                    np.arange(lo, hi, dtype=np.int64), counts
                )
            elif kind == "cols":
                yield np.asarray(cols, dtype=np.int64)
            else:
                yield np.asarray(ds, dtype=np.float64)

    for i in range(shards):
        _, cols, _ = shard_files(i)
        total += int(np.asarray(cols).size)
    shape = (total,)
    return {
        "bunch_srcs": _streamed_digest(np.int64, shape, _chunks("srcs")),
        "bunch_dsts": _streamed_digest(np.int64, shape, _chunks("cols")),
        "bunch_ds": _streamed_digest(np.float64, shape, _chunks("ds")),
    }


def save_sharded_artifact(
    artifact: OracleArtifact, path: str, shards: int
) -> Dict[str, object]:
    """Re-partition an in-memory artifact into the sharded layout.

    The bunch relation is first brought to the same canonical CSR the
    engine builds (``_directed_csr`` is a stable sort, so artifacts that
    are already canonical — every builder's output — pass through
    unchanged), then sliced by source range; the recorded ``checksums``
    are the canonical logical-array digests, so a merged
    :func:`~repro.oracle.artifact.load_artifact` of the result verifies
    and serves bit-identically to the original.  Returns the written
    manifest."""
    if shards < 1:
        raise ArtifactError(f"shards must be >= 1, got {shards}")
    kind = artifact.kind
    if kind not in _SHARDABLE_KINDS:
        raise ArtifactError(
            f"artifact kind {kind!r} cannot be sharded; supported kinds: "
            f"{list(_SHARDABLE_KINDS)}"
        )
    n = artifact.n
    bounds = _shard_bounds(n, shards)
    eff = bounds.size - 1
    manifest = dict(artifact.manifest)
    manifest["format_version"] = FORMAT_VERSION
    arrays = dict(artifact.arrays)
    checksums: Dict[str, str] = {}

    writer = _StagedWriter(path)
    try:
        if kind == "bunches":
            indptr, cols, ds = _directed_csr(
                n,
                arrays.pop("bunch_srcs"),
                arrays.pop("bunch_dsts"),
                arrays.pop("bunch_ds"),
            )
            for i in range(eff):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                a, b = int(indptr[lo]), int(indptr[hi])
                local = np.clip(indptr, a, b) - a
                d = _shard_dir(i)
                writer.save_array(os.path.join(d, "indptr.npy"), local)
                writer.save_array(os.path.join(d, "cols.npy"), cols[a:b])
                writer.save_array(os.path.join(d, "ds.npy"), ds[a:b])
            checksums.update({
                "bunch_srcs": _array_digest(
                    np.repeat(
                        np.arange(n, dtype=np.int64), np.diff(indptr)
                    )
                ),
                "bunch_dsts": _array_digest(np.asarray(cols, np.int64)),
                "bunch_ds": _array_digest(np.asarray(ds, np.float64)),
            })
        elif kind == "matrix":
            est = np.asarray(arrays.pop("estimates"), dtype=np.float64)
            if est.shape != (n, n):
                raise ArtifactError(
                    f"matrix artifact has estimates of shape {est.shape}, "
                    f"expected {(n, n)}"
                )
            for i in range(eff):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                writer.save_array(
                    os.path.join(_shard_dir(i), "estimates.npy"),
                    est[lo:hi],
                )
            checksums["estimates"] = _array_digest(est)

        # Everything left (edges arrays, tz_levels, graph embedding, a
        # sources array, ...) is shared: every reader loads it whole.
        shared = {k: np.asarray(v) for k, v in arrays.items()}
        if shared:
            writer.save_npz(os.path.join(SHARED_DIR, ARRAYS_NAME), shared)
        checksums.update(
            {k: _array_digest(v) for k, v in shared.items()}
        )
        manifest["checksums"] = checksums
        manifest[SHARD_MAP_KEY] = {
            "layout_version": SHARD_LAYOUT_VERSION,
            "shards": int(eff),
            "bounds": [int(b) for b in bounds],
        }
        writer.finish(manifest)
    except BaseException:
        writer.abort()
        raise
    return manifest


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

    For the ``tz`` variant this **streams**: bunch arcs are consumed
    from :func:`~repro.emulator.thorup_zwick.iter_tz_bunch_arc_blocks`
    in ascending source ranges and each shard's files are written (and
    the buffers dropped) as soon as its range completes — peak resident
    arc memory is one shard plus one in-flight block, or the generator's
    cluster-pass working set if larger, recorded in the manifest as
    ``stats.peak_resident_arcs``.  The hierarchy sampling,
    the per-range arc rule, and the canonical ordering are exactly
    :func:`build_oracle`'s, so the merged load is bit-identical to an
    unsharded build with the same seed.  Any other variant builds in
    memory via :func:`build_oracle` and re-partitions."""
    if variant != "tz":
        artifact = build_oracle(
            g, variant=variant, eps=eps, r=r, rng=rng,
            include_graph=include_graph, params=params, **extra,
        )
        return save_sharded_artifact(artifact, path, shards)
    extra.pop("profile", None)  # the streamed build is not profiled

    from ..emulator.sampling import sample_hierarchy
    from ..emulator.thorup_zwick import iter_tz_bunch_arc_blocks

    try:
        spec = variants_registry.get_variant(variant)
    except UnknownVariantError:
        raise ArtifactError(f"unknown oracle variant {variant!r}")
    from ..graph.graph import WeightedGraph

    try:
        spec.check_graph_support(isinstance(g, WeightedGraph))
    except variants_registry.VariantError as exc:
        raise ArtifactError(str(exc))
    merged = dict(params or {})
    if eps is not None:
        merged.setdefault("eps", eps)
    if r is not None:
        merged.setdefault("r", r)
    resolved = spec.resolve_params(merged, n=g.n)
    if rng is None:
        rng = np.random.default_rng(0)
    hierarchy = sample_hierarchy(g.n, int(resolved["r"]), rng)
    k = hierarchy.r + 1

    n = int(g.n)
    bounds = _shard_bounds(n, shards)
    eff = bounds.size - 1
    writer = _StagedWriter(path)
    try:
        cur = 0  # shard currently accumulating
        buf_s: List[np.ndarray] = []
        buf_d: List[np.ndarray] = []
        buf_w: List[np.ndarray] = []
        buffered = 0
        peak = 0
        total_arcs = 0
        shard_counts = np.zeros(eff, dtype=np.int64)

        def _flush(i: int) -> None:
            nonlocal buffered, total_arcs
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            srcs = (
                np.concatenate(buf_s) if buf_s
                else np.empty(0, dtype=np.int64)
            )
            cols = (
                np.concatenate(buf_d) if buf_d
                else np.empty(0, dtype=np.int64)
            )
            ds = (
                np.concatenate(buf_w) if buf_w
                else np.empty(0, dtype=np.float64)
            )
            d = _shard_dir(i)
            writer.save_array(
                os.path.join(d, "indptr.npy"),
                _local_bunch_csr(n, lo, hi, srcs),
            )
            writer.save_array(os.path.join(d, "cols.npy"), cols)
            writer.save_array(os.path.join(d, "ds.npy"), ds)
            shard_counts[i] = srcs.size
            total_arcs += srcs.size
            buf_s.clear()
            buf_d.clear()
            buf_w.clear()
            buffered = 0

        for block in iter_tz_bunch_arc_blocks(g, hierarchy):
            lo, hi, bs, bd, bw = block
            # The generator holds its cluster pass before the first block
            # and only the block it yields afterwards.
            peak = max(peak, block.pass_arcs, buffered + bs.size)
            # Close out every shard whose range this block has passed.
            while cur < eff - 1 and lo >= int(bounds[cur + 1]):
                _flush(cur)
                cur += 1
            # Split the block across the shard boundaries it straddles
            # (block sources are sorted, so a searchsorted cut is exact).
            start = 0
            while cur < eff - 1 and hi > int(bounds[cur + 1]):
                cut = int(
                    np.searchsorted(bs, int(bounds[cur + 1]), side="left")
                )
                if cut > start:
                    buf_s.append(bs[start:cut])
                    buf_d.append(bd[start:cut])
                    buf_w.append(bw[start:cut])
                    buffered += cut - start
                _flush(cur)
                cur += 1
                start = cut
            if bs.size > start:
                buf_s.append(bs[start:])
                buf_d.append(bd[start:])
                buf_w.append(bw[start:])
                buffered += bs.size - start
        while cur < eff:
            _flush(cur)
            cur += 1

        shared: Dict[str, np.ndarray] = {
            "tz_levels": np.asarray(hierarchy.levels, dtype=np.int64),
        }
        if include_graph:
            _embed_graph(g, shared)
        writer.save_npz(os.path.join(SHARED_DIR, ARRAYS_NAME), shared)

        # Second pass over the staged shard files (mmap'd, O(shard)
        # resident): the canonical logical-array checksums.
        def _staged_shard(i: int):
            d = _shard_dir(i)
            return tuple(
                np.load(
                    writer.staged(os.path.join(d, f"{name}.npy")),
                    mmap_mode="r", allow_pickle=False,
                )
                for name in ("indptr", "cols", "ds")
            )

        checksums = _bunch_shard_checksums(n, bounds, _staged_shard)
        checksums.update(
            {name: _array_digest(a) for name, a in shared.items()}
        )

        manifest = _manifest_base(g, spec.name, resolved, include_graph)
        _manifest_finish(
            manifest,
            kind=spec.kind,
            name=f"TZ-bunches[k={k}]",
            multiplicative=float(2 * k - 1),
            additive=0.0,
            stats={
                "bunch_edges": int(total_arcs),
                "k": int(k),
                "set_sizes": hierarchy.sizes(),
                "streamed": True,
                "peak_resident_arcs": int(peak),
                "shard_arcs": [int(c) for c in shard_counts],
            },
        )
        manifest["checksums"] = checksums
        manifest[SHARD_MAP_KEY] = {
            "layout_version": SHARD_LAYOUT_VERSION,
            "shards": int(eff),
            "bounds": [int(b) for b in bounds],
        }
        writer.finish(manifest)
    except BaseException:
        writer.abort()
        raise
    return manifest


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
    return arrays


def _load_shard_files(
    path: str, kind: str, index: int, mmap: bool = True
) -> Dict[str, np.ndarray]:
    """The per-shard arrays of one shard directory (mmap'd by default)."""
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
    n = int(manifest["n"])
    shards = bounds.size - 1
    arrays = _load_shared_arrays(path)
    if kind == "bunches":
        srcs_parts, cols_parts, ds_parts = [], [], []
        for i in range(shards):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            files = _load_shard_files(path, kind, i, mmap=True)
            indptr = np.asarray(files["indptr"], dtype=np.int64)
            counts = np.diff(indptr[lo:hi + 1])
            srcs_parts.append(
                np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
            )
            cols_parts.append(np.asarray(files["cols"], dtype=np.int64))
            ds_parts.append(np.asarray(files["ds"], dtype=np.float64))
        arrays["bunch_srcs"] = (
            np.concatenate(srcs_parts) if srcs_parts
            else np.empty(0, dtype=np.int64)
        )
        arrays["bunch_dsts"] = (
            np.concatenate(cols_parts) if cols_parts
            else np.empty(0, dtype=np.int64)
        )
        arrays["bunch_ds"] = (
            np.concatenate(ds_parts) if ds_parts
            else np.empty(0, dtype=np.float64)
        )
    elif kind == "matrix":
        rows = [
            np.asarray(
                _load_shard_files(path, kind, i, mmap=True)["estimates"],
                dtype=np.float64,
            )
            for i in range(shards)
        ]
        arrays["estimates"] = (
            np.concatenate(rows, axis=0) if rows
            else np.empty((0, n), dtype=np.float64)
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
        backend: Optional[str] = None,
    ):
        self.n = int(n)
        self.kind = kind
        self.lo = int(lo)
        self.hi = int(hi)
        self.index = int(index)
        self._path = path
        self._backend = backend
        self._requests = 0
        self._queries = 0
        self._loaded = False
        # The whole shard set, wired by ShardedOracle._finish_init: a
        # bunches gather reads B(v) from ``peers[shard_of(bounds, v)]``.
        self.bounds: Optional[np.ndarray] = None
        self.peers: Sequence["ShardBackend"] = ()
        if arrays is not None:
            self._attach(arrays)

    # -- loading -------------------------------------------------------
    def _attach(self, arrays: Dict[str, np.ndarray]) -> None:
        if self.kind == "bunches":
            self.indptr = np.asarray(arrays["indptr"], dtype=np.int64)
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
        else:  # edges
            self.origins = arrays["origins"]
            self.targets = arrays["targets"]
            self.weights = arrays["weights"]
        self._loaded = True

    def ensure_loaded(self) -> None:
        if self._loaded:
            return
        if self._path is None:
            raise ArtifactError(
                f"shard backend {self.index} has neither arrays nor a "
                "path to load them from"
            )
        if self.kind == "edges":
            shared = _load_shared_arrays(self._path)
            eu = np.asarray(shared["emu_us"], dtype=np.int64)
            ev = np.asarray(shared["emu_vs"], dtype=np.int64)
            ew = np.asarray(shared["emu_ws"], dtype=np.float64)
            self._attach({
                "origins": np.concatenate([eu, ev]),
                "targets": np.concatenate([ev, eu]),
                "weights": np.concatenate([ew, ew]),
            })
            return
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
            return edges_sssp_batch(
                self.n, self.origins, self.targets, self.weights,
                us, vs, backend=self._backend,
            )
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
        backend: Optional[str] = None,
        pool: Optional[bool] = None,
    ):
        """In-memory mode: partition a loaded artifact into ``shards``
        vertex ranges (fork-inherited by pool workers, copy-on-write).
        For the on-disk sharded layout use :meth:`load`."""
        self._init_common(artifact, backend)
        if self.kind not in _SHARDABLE_KINDS:
            raise ArtifactError(
                f"artifact kind {self.kind!r} cannot be sharded; "
                f"supported kinds: {list(_SHARDABLE_KINDS)}"
            )
        bounds = _shard_bounds(self.n, shards)
        backends = self._partition(artifact, bounds)
        self._sharded_dir: Optional[str] = None
        self._merged: Optional[OracleArtifact] = artifact
        self._finish_init(bounds, backends, pool)

    # -- construction --------------------------------------------------
    def _partition(
        self, artifact: OracleArtifact, bounds: np.ndarray
    ) -> List[ShardBackend]:
        eff = bounds.size - 1
        backends: List[ShardBackend] = []
        if self.kind == "bunches":
            indptr, cols, ds = _directed_csr(
                self.n,
                artifact.arrays["bunch_srcs"],
                artifact.arrays["bunch_dsts"],
                artifact.arrays["bunch_ds"],
            )
            for i in range(eff):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                a, b = int(indptr[lo]), int(indptr[hi])
                backends.append(ShardBackend(
                    self.n, self.kind, lo, hi, i,
                    arrays={
                        "indptr": np.clip(indptr, a, b) - a,
                        "cols": cols[a:b],
                        "ds": ds[a:b],
                    },
                ))
        elif self.kind == "matrix":
            est = np.asarray(
                artifact.arrays["estimates"], dtype=np.float64
            )
            if est.shape != (self.n, self.n):
                raise ArtifactError(
                    f"matrix artifact has estimates of shape "
                    f"{est.shape}, expected {(self.n, self.n)}"
                )
            for i in range(eff):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                backends.append(ShardBackend(
                    self.n, self.kind, lo, hi, i,
                    arrays={"estimates": est[lo:hi]},
                ))
        else:  # edges: shared arrays, routing only
            eu = np.asarray(artifact.arrays["emu_us"], dtype=np.int64)
            ev = np.asarray(artifact.arrays["emu_vs"], dtype=np.int64)
            ew = np.asarray(artifact.arrays["emu_ws"], dtype=np.float64)
            shared = {
                "origins": np.concatenate([eu, ev]),
                "targets": np.concatenate([ev, eu]),
                "weights": np.concatenate([ew, ew]),
            }
            for i in range(eff):
                backends.append(ShardBackend(
                    self.n, self.kind, int(bounds[i]), int(bounds[i + 1]),
                    i, arrays=shared, backend=self._backend,
                ))
        return backends

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
        backend: Optional[str] = None,
        pool: Optional[bool] = None,
    ) -> "ShardedOracle":
        """Open a sharded artifact directory, or partition a plain one.

        A sharded layout is served *as stored*: each worker mmaps its
        own shard directory, plus the peer shards it reads ``B(v)``
        slabs from (bunches kind), and the parent loads nothing but the
        manifest (``shards=`` must match the layout when given).  A
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
            self._init_common(
                OracleArtifact(manifest=manifest, arrays={}), backend
            )
            if self.kind not in _SHARDABLE_KINDS:
                raise ArtifactError(
                    f"artifact kind {self.kind!r} cannot be sharded"
                )
            self._sharded_dir = os.path.abspath(path)
            self._merged = None
            backends = [
                ShardBackend(
                    self.n, self.kind, int(bounds[i]), int(bounds[i + 1]),
                    i, path=self._sharded_dir, backend=backend,
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
        return cls(
            artifact, shards=int(shards), backend=backend, pool=pool,
        )

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
