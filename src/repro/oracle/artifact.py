"""Versioned on-disk oracle artifacts (the preprocess side of serving).

An artifact is a directory with up to three files:

* ``manifest.json`` — provenance and guarantees: format version,
  variant, the resolved parameter echo (``params``, validated against
  the variant's schema on load), the proven ``(multiplicative,
  additive)`` stretch, round-ledger totals and breakdown, the SHA-256
  fingerprint of the preprocessed graph, and the artifact *kind*;
* ``arrays.npz`` — the numeric payload (compressed, loaded with
  ``allow_pickle=False``);
* ``estimates.npy`` (format 2, matrix/sources kinds) — the large
  ``(rows, n)`` estimate matrix stored *uncompressed* so it can be
  memory-mapped: ``load_artifact(path, mmap=True)`` opens it with
  ``mmap_mode="r"`` and an ``n = 10^4`` matrix serves without a 400 MB
  resident load (800 MB when its values need float64, see below).

Every payload array is stored in the narrowest lossless dtype
(:func:`_narrow`, applied as arrays enter the writer): int64 as int32
when every value fits, float64 as float32 when ``float32 -> float64``
gives back every value bit for bit.  Readers keep the stored dtype and
accept int32 or int64 ids and float32 or float64 distances, so older
artifacts load unchanged; each query path widens to float64 before its
one addition or min, so answers are bit-identical either way.

Which variants exist, what arrays they store, and which parameters they
accept is **not** decided here: everything dispatches through the
declarative registry (:mod:`repro.variants`) — ``build_oracle`` looks
the variant up, validates parameters against its schema, and snapshots
whatever payload the spec's builder returns.  Four kinds exist today:

* ``"matrix"`` — a full ``(n, n)`` estimate matrix; queries gather.
* ``"bunches"`` — the classic Thorup–Zwick pivot/bunch relation stored
  as directed arc arrays; queries run the 2-hop ``B(u) ∩ B(v)``
  min-plus combine.
* ``"sources"`` — an MSSP snapshot: ``(len(sources), n)`` estimates
  plus the source array; queries must touch a source endpoint.
* ``"edges"`` — an emulator edge list (``emu_us``/``emu_vs``/
  ``emu_ws``); queries run SSSP over it at query time (O(emulator)
  storage instead of O(n^2)).

The manifest's ``graph_hash`` makes staleness detectable: loading with
``expected_graph=`` fails loudly with :class:`ArtifactMismatch` instead
of silently answering for the wrong graph.  Newer ``format_version``
values are rejected; version-1 artifacts (everything inside
``arrays.npz``) keep loading bit-identically — the read-compat shim is
simply that ``estimates.npy`` is optional on read.

Every artifact directory, plain or sharded (:mod:`repro.oracle.sharded`),
is written by one crash-safe staged writer, :func:`_write_staged`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .. import variants as variants_registry
from ..graph.graph import Graph, WeightedGraph
from ..telemetry.profiling import profile_build
from ..variants import UnknownVariantError, VariantParamError
from .faults import FAULTS

__all__ = [
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactMismatch",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_NAME",
    "ESTIMATES_NAME",
    "OracleArtifact",
    "build_oracle",
    "graph_fingerprint",
    "load_artifact",
    "save_artifact",
]

#: Format 2 stores matrix/sources estimates as an uncompressed,
#: mmap-able ``estimates.npy``; format 1 kept every array in the npz.
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
ESTIMATES_NAME = "estimates.npy"

#: The array key that is split out to ``estimates.npy`` on save.
_MMAP_KEY = "estimates"

AnyGraph = Union[Graph, WeightedGraph]


class ArtifactError(Exception):
    """A malformed, unsupported, or incomplete oracle artifact."""


class ArtifactMismatch(ArtifactError):
    """An artifact that does not match the graph it is being used for."""


class ArtifactCorrupt(ArtifactError):
    """An artifact whose array payload is truncated or corrupted (a
    torn write, a bad disk, a failed checksum); the message names the
    bad array or file."""


def _variant_names() -> tuple:
    return variants_registry.artifact_variant_names()


def graph_fingerprint(g: AnyGraph) -> str:
    """SHA-256 fingerprint of a graph's canonical edge representation.

    Stable across build paths (both graph classes canonicalize their
    edge arrays) and distinguishes weighted from unweighted graphs of
    the same topology.
    """
    h = hashlib.sha256()
    if isinstance(g, WeightedGraph):
        us, vs, ws = g.edge_arrays()
        h.update(b"weighted")
        h.update(np.int64(g.n).tobytes())
        h.update(np.ascontiguousarray(us, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(vs, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(ws, dtype=np.float64).tobytes())
    else:
        h.update(b"graph")
        h.update(np.int64(g.n).tobytes())
        h.update(
            np.ascontiguousarray(g.edges(), dtype=np.int64).tobytes()
        )
    return h.hexdigest()


@dataclass
class OracleArtifact:
    """A preprocessing snapshot: JSON-able manifest + numeric arrays."""

    manifest: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """``"matrix"``, ``"bunches"``, ``"sources"``, or ``"edges"``."""
        return str(self.manifest["kind"])

    @property
    def variant(self) -> str:
        """The preprocessing variant this artifact snapshots."""
        return str(self.manifest["variant"])

    @property
    def n(self) -> int:
        """Vertex count of the preprocessed graph."""
        return int(self.manifest["n"])

    @property
    def multiplicative(self) -> float:
        """Proven multiplicative stretch of every served estimate."""
        return float(self.manifest["multiplicative"])

    @property
    def additive(self) -> float:
        """Proven additive slack of every served estimate."""
        return float(self.manifest["additive"])

    @property
    def graph_hash(self) -> str:
        """Fingerprint of the graph the artifact was built from."""
        return str(self.manifest["graph_hash"])

    @property
    def params(self) -> Dict[str, object]:
        """The resolved build-parameter echo (empty for v1 manifests)."""
        return dict(self.manifest.get("params") or {})

    def graph(self) -> Optional[AnyGraph]:
        """The embedded source graph, or ``None`` if not included."""
        if not self.manifest.get("includes_graph"):
            return None
        if self.manifest.get("weighted"):
            wg = WeightedGraph(self.n)
            wg.add_edges_arrays(
                self.arrays["graph_us"],
                self.arrays["graph_vs"],
                self.arrays["graph_ws"],
            )
            return wg
        return Graph(self.n, self.arrays["graph_edges"])

    def check_graph(self, g: AnyGraph) -> None:
        """Raise :class:`ArtifactMismatch` unless ``g`` is the graph this
        artifact was preprocessed from."""
        got = graph_fingerprint(g)
        if got != self.graph_hash:
            raise ArtifactMismatch(
                f"artifact was built for graph {self.graph_hash[:12]}…, "
                f"queried graph hashes to {got[:12]}… — rebuild the "
                "artifact (repro build-oracle) before serving this graph"
            )

    def verify(self) -> List[str]:
        """Check every array against the manifest's per-array SHA-256
        checksums; returns the verified array names in sorted order.

        Raises :class:`ArtifactCorrupt` naming the first array whose
        bytes do not hash to the recorded digest (a bit flip the lazy
        load cannot see), or whose digest the manifest never recorded;
        :class:`ArtifactError` when the manifest predates checksums
        (re-save the artifact to add them).
        """
        checksums = self.manifest.get("checksums")
        if not isinstance(checksums, dict) or not checksums:
            raise ArtifactError(
                "manifest records no per-array checksums (the artifact "
                "predates them); re-save or rebuild it to make "
                "verification possible"
            )
        verified = []
        for name in sorted(self.arrays):
            expected = checksums.get(name)
            if expected is None:
                raise ArtifactCorrupt(
                    f"manifest records no checksum for array {name!r} — "
                    "the array set and the manifest disagree"
                )
            got = _array_digest(np.asarray(self.arrays[name]))
            if got != expected:
                raise ArtifactCorrupt(
                    f"array {name!r} fails its checksum (manifest "
                    f"{str(expected)[:12]}…, payload hashes to "
                    f"{got[:12]}…) — the artifact is corrupted; rebuild "
                    "it (repro build-oracle)"
                )
            verified.append(name)
        return verified

    def nbytes(self) -> int:
        """Total array payload size in bytes."""
        return int(sum(a.nbytes for a in self.arrays.values()))


def _jsonable(value):
    """Coerce numpy scalars/arrays in stats payloads to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _embed_graph(g: AnyGraph, arrays: Dict[str, np.ndarray]) -> None:
    if isinstance(g, WeightedGraph):
        us, vs, ws = g.edge_arrays()
        arrays["graph_us"] = np.asarray(us, dtype=np.int64)
        arrays["graph_vs"] = np.asarray(vs, dtype=np.int64)
        arrays["graph_ws"] = np.asarray(ws, dtype=np.float64)
    else:
        arrays["graph_edges"] = np.asarray(g.edges(), dtype=np.int64)


def _resolve_build(
    g: AnyGraph,
    variant: str,
    eps: Optional[float],
    r: Optional[int],
    params: Optional[Dict[str, object]],
    rng: Optional[np.random.Generator],
) -> Tuple[
    variants_registry.VariantSpec, Dict[str, object], np.random.Generator
]:
    """The front half of every build (:func:`build_oracle` and the
    streamed sharded build): the variant's spec, the graph-support check,
    the ``eps`` / ``r`` shortcuts merged into ``params`` and resolved
    against the spec's schema, and the default rng.  An unknown variant
    or an unsupported graph flavour is an :class:`ArtifactError`."""
    try:
        spec = variants_registry.get_variant(variant)
    except UnknownVariantError:
        raise ArtifactError(
            f"unknown oracle variant {variant!r}; expected one of "
            f"{_variant_names()}"
        )
    try:
        spec.check_graph_support(isinstance(g, WeightedGraph))
    except variants_registry.VariantError as exc:
        # Unsupported graph flavour is a build failure, not a schema
        # error — keep the documented ArtifactError contract.
        raise ArtifactError(str(exc))
    merged = dict(params or {})
    if eps is not None:
        merged.setdefault("eps", eps)
    if r is not None:
        merged.setdefault("r", r)
    resolved = spec.resolve_params(merged, n=g.n)
    if rng is None:
        rng = np.random.default_rng(0)
    return spec, resolved, rng


def build_oracle(
    g: AnyGraph,
    variant: str = "near-additive",
    eps: Optional[float] = None,
    r: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    include_graph: bool = True,
    params: Optional[Dict[str, object]] = None,
    profile: bool = False,
    **extra,
) -> OracleArtifact:
    """Run one registered preprocessing variant and snapshot it.

    The variant's :class:`~repro.variants.VariantSpec` drives
    everything: parameters (``eps`` / ``r`` keyword shortcuts merge into
    ``params``) are validated against its schema — unknown names and
    out-of-range values raise :class:`~repro.variants.VariantParamError`
    naming the valid range — weighted-graph support is checked against
    its flag, and the spec's builder produces the payload.  ``**extra``
    passes structural builder arguments through (e.g. ``sources=`` for
    the ``mssp`` variant).  ``include_graph`` embeds the source graph's
    edges (needed for path queries; costs ``O(m)`` space).

    ``profile=True`` wraps the build in a
    :func:`~repro.telemetry.profiling.profile_build` block — wall time
    attributed to the same phase names as ``rounds_breakdown`` — and
    stores the result in the manifest under ``build_profile``
    (``repro build-oracle --profile`` prints the joined table).
    """
    spec, resolved, rng = _resolve_build(g, variant, eps, r, params, rng)
    manifest = _manifest_base(g, spec.name, resolved, include_graph)

    if profile:
        with profile_build() as profiler:
            build = spec.build(g, rng=rng, **resolved, **extra)
        manifest["build_profile"] = profiler.as_dict()
    else:
        build = spec.build(g, rng=rng, **resolved, **extra)
    _manifest_finish(
        manifest,
        kind=spec.kind,
        name=build.name,
        multiplicative=float(build.multiplicative),
        additive=float(build.additive),
        rounds_total=build.rounds_total,
        rounds_breakdown=build.rounds_breakdown,
        stats=build.stats,
    )
    arrays = dict(build.arrays)
    if include_graph:
        _embed_graph(g, arrays)
    return OracleArtifact(manifest=manifest, arrays=arrays)


def _manifest_base(
    g: AnyGraph,
    variant: str,
    resolved: Dict[str, object],
    include_graph: bool,
) -> Dict[str, object]:
    """The pre-build manifest skeleton (provenance + parameter echo) —
    shared by :func:`build_oracle` and the streaming sharded builder."""
    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "variant": str(variant),
        "n": int(g.n),
        "graph_m": int(g.m),
        "weighted": isinstance(g, WeightedGraph),
        "graph_hash": graph_fingerprint(g),
        "includes_graph": bool(include_graph),
        "params": _jsonable(resolved),
    }
    # Top-level echo of each resolved parameter (eps, r, k, ...) so
    # manifests stay greppable the way v1 manifests were.
    manifest.update(_jsonable(resolved))
    return manifest


def _manifest_finish(
    manifest: Dict[str, object],
    *,
    kind: str,
    name: str,
    multiplicative: float,
    additive: float,
    rounds_total=None,
    rounds_breakdown=None,
    stats=None,
) -> Dict[str, object]:
    """Fold the build result into a :func:`_manifest_base` skeleton and
    stamp the human-readable guarantee line."""
    manifest.update(
        kind=str(kind),
        name=str(name),
        multiplicative=float(multiplicative),
        additive=float(additive),
        rounds_total=(
            None if rounds_total is None else float(rounds_total)
        ),
        rounds_breakdown=_jsonable(rounds_breakdown),
        stats=_jsonable(stats),
    )
    manifest["guarantee"] = (
        "d_G(u,v) <= estimate <= "
        f"{manifest['multiplicative']} * d_G(u,v) + {manifest['additive']}"
    )
    return manifest


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

_REQUIRED_MANIFEST_KEYS = (
    "format_version",
    "kind",
    "variant",
    "n",
    "multiplicative",
    "additive",
    "graph_hash",
)

_KIND_ARRAYS = {
    "matrix": ("estimates",),
    "bunches": ("bunch_srcs", "bunch_dsts", "bunch_ds"),
    "sources": ("estimates", "sources"),
    "edges": ("emu_us", "emu_vs", "emu_ws"),
}


def _array_digest(arr: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes (what the
    manifest's ``checksums`` record and :meth:`OracleArtifact.verify`
    recompute)."""
    a = np.ascontiguousarray(arr)
    return _streamed_digest(a.dtype, a.shape, (a,))


def _streamed_digest(dtype: np.dtype, shape: Tuple[int, ...], chunks) -> str:
    """The :func:`_array_digest` of a logical ``dtype`` array whose values
    arrive as a sequence of chunks (each cast to ``dtype``, a no-op when
    it already has it) — what lets the sharded writer record canonical
    checksums without ever materializing the merged array."""
    h = hashlib.sha256()
    h.update(np.dtype(dtype).str.encode())
    h.update(repr(tuple(int(s) for s in shape)).encode())
    for chunk in chunks:
        a = np.ascontiguousarray(chunk, dtype=dtype)
        try:
            h.update(memoryview(a).cast("B"))
        except (TypeError, ValueError):
            h.update(a.tobytes())
    return h.hexdigest()


_INT32 = np.iinfo(np.int32)

#: Elements per block of the float32 round-trip check: its scratch (one
#: float64 block and one bool block, ~0.6 MB) stays far below the
#: float32 copy it fills.
_NARROW_BLOCK = 1 << 16


def _narrow(a: np.ndarray) -> np.ndarray:
    """The artifact dtype rule: the form in which a payload array is
    stored.

    An int64 array whose values all fit in int32 becomes int32; a
    float64 array becomes float32 when ``float32 -> float64`` gives back
    every value bit for bit (every integer of magnitude at most
    ``2**24`` does, so every hop distance does), and otherwise stays
    float64.  Every other
    array is returned as it is.  Whether a value passes is decided value
    by value, so the logical dtype of an array stored in slices (the
    sharded layout) is the ``np.result_type`` of its slices' stored
    dtypes — the dtype a whole-array save would pick.

    The float check casts block by block into one preallocated float32
    array, so it adds at most that array plus one block of scratch."""
    a = np.asarray(a)
    if a.dtype == np.int64:
        if a.size == 0 or (a.min() >= _INT32.min and a.max() <= _INT32.max):
            return a.astype(np.int32)
        return a
    if a.dtype != np.float64:
        return a
    src = np.ascontiguousarray(a).reshape(-1)
    out = np.empty(a.shape, dtype=np.float32)
    dst = out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, src.size, _NARROW_BLOCK):
            block = src[lo:lo + _NARROW_BLOCK]
            narrow = dst[lo:lo + block.size]
            narrow[...] = block
            back = narrow.astype(np.float64)
            if not np.array_equal(back.view(np.uint64), block.view(np.uint64)):
                return a
    return out


_ID_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))
_DIST_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: The dtypes a reader accepts for each known payload array (plain
#: artifacts, shared arrays and shard files): the two sides of the
#: dtype rule, :func:`_narrow`'s output and its input.
_PAYLOAD_DTYPES = {
    **dict.fromkeys(
        ("bunch_srcs", "bunch_dsts", "sources", "emu_us", "emu_vs",
         "tz_levels", "graph_edges", "graph_us", "graph_vs",
         "indptr", "cols"),
        _ID_DTYPES,
    ),
    **dict.fromkeys(
        ("estimates", "bunch_ds", "emu_ws", "graph_ws", "ds"),
        _DIST_DTYPES,
    ),
}


def _check_dtypes(arrays: Dict[str, np.ndarray], where: str) -> None:
    """Raise :class:`ArtifactError` naming the first known payload array
    of ``arrays`` (read from ``where``) whose dtype no reader accepts —
    a float id array or an integer distance array would otherwise index
    wrongly or answer wrongly."""
    for name, a in arrays.items():
        allowed = _PAYLOAD_DTYPES.get(name)
        if allowed is not None and a.dtype not in allowed:
            raise ArtifactError(
                f"array {name!r} in {where!r} has dtype {a.dtype}; "
                f"expected one of {[str(d) for d in allowed]} — rebuild "
                "the artifact"
            )


def _fsync_fh(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(path: str) -> None:
    """fsync a directory so its entries survive a crash (best-effort on
    platforms without directory fds)."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _sibling_workdirs(path: str):
    """Existing ``<path>.tmp-*`` / ``<path>.old-*`` sibling directories
    (in-progress or interrupted saves for this artifact path)."""
    target = os.path.abspath(path)
    parent, base = os.path.dirname(target), os.path.basename(target)
    if not os.path.isdir(parent):
        return
    for entry in os.listdir(parent):
        if entry.startswith(base + ".tmp-") or entry.startswith(base + ".old-"):
            yield os.path.join(parent, entry)


def _reap_workdirs(path: str) -> None:
    """Remove leftover tmp/old sibling directories from interrupted
    saves.  Artifact paths are single-writer (a concurrent save to the
    same path was already a race on the final rename)."""
    for stale in _sibling_workdirs(path):
        shutil.rmtree(stale, ignore_errors=True)


def _write_staged(
    path: str,
    npy_files: Iterable[Tuple[str, np.ndarray]],
    npz_files: Dict[str, Dict[str, np.ndarray]],
    manifest: Callable[[str], Dict[str, object]],
) -> Dict[str, object]:
    """The one crash-safe artifact writer: :func:`save_artifact` and the
    sharded layout (:mod:`repro.oracle.sharded`) both write through it.

    Everything is staged in a ``<path>.tmp-<pid>`` sibling directory
    (file names are relative to it and may sit one subdirectory down):
    first each uncompressed, mmap-able ``.npy`` of ``npy_files`` — read
    lazily, so a producer can stream them and drop each array once it is
    staged — then each compressed ``.npz`` of ``npz_files``.  Only then
    is ``manifest(staging_dir)`` called (it may read the staged files
    back); its result is written last, because a staged directory is
    complete exactly when its manifest exists.  Every file and every
    staged directory is fsynced, and :func:`_commit_staged` renames the
    staging into place, so an interrupt at *any* point leaves either the
    previous artifact or none, never a half-written directory that
    :func:`load_artifact` accepts; an in-process failure also removes
    the staging.  The ``artifact.save`` fault point fires at each stage
    (``begin``, ``estimates`` after the ``.npy`` files, ``arrays``,
    ``manifest``, then ``rename`` / ``swap``).  Leftover tmp/old
    directories of interrupted saves to the same path are reaped first.
    Returns the written manifest.
    """
    path = os.path.abspath(path)
    _reap_workdirs(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    os.makedirs(tmp)
    subdirs: List[str] = []

    def staged(rel: str) -> str:
        full = os.path.join(tmp, rel)
        parent = os.path.dirname(full)
        if parent != tmp and parent not in subdirs:
            os.makedirs(parent)
            subdirs.append(parent)
        return full

    try:
        FAULTS.fire("artifact.save", stage="begin")
        for rel, arr in npy_files:
            with open(staged(rel), "wb") as fh:
                np.save(fh, np.ascontiguousarray(arr))
                _fsync_fh(fh)
            del arr  # a streamed array is freed before the next is made
        FAULTS.fire("artifact.save", stage="estimates")
        for rel, arrays in npz_files.items():
            with open(staged(rel), "wb") as fh:
                np.savez_compressed(fh, **arrays)
                _fsync_fh(fh)
        FAULTS.fire("artifact.save", stage="arrays")
        written = manifest(tmp)
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as fh:
            json.dump(written, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _fsync_fh(fh)
        FAULTS.fire("artifact.save", stage="manifest")
        for d in subdirs + [tmp]:
            _fsync_dir(d)
        _commit_staged(tmp, path)
    except BaseException:
        # An in-process failure cleans its staging up; a hard crash
        # leaves the tmp dir for the next save's reap.  Either way the
        # final path holds the old artifact or none.
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return written


def save_artifact(artifact: OracleArtifact, path: str) -> None:
    """Write an artifact directory crash-safely in the current format
    (through :func:`_write_staged`).

    The payload is ``manifest.json`` + ``arrays.npz``, with
    matrix/sources estimates split out to an uncompressed, mmap-able
    ``estimates.npy``.  Every array is stored as :func:`_narrow` gives
    it.  The written manifest is normalized to :data:`FORMAT_VERSION`
    and gains per-array SHA-256 ``checksums`` of the stored arrays (what
    ``repro verify-artifact`` / :meth:`OracleArtifact.verify` check);
    the in-memory ``artifact`` is not mutated.
    """
    manifest = dict(artifact.manifest)
    manifest["format_version"] = FORMAT_VERSION
    arrays = {name: _narrow(a) for name, a in artifact.arrays.items()}
    manifest["checksums"] = {
        name: _array_digest(a) for name, a in arrays.items()
    }
    estimates = arrays.pop(_MMAP_KEY, None)
    npy_files = [] if estimates is None else [(ESTIMATES_NAME, estimates)]
    _write_staged(path, npy_files, {ARRAYS_NAME: arrays}, lambda _: manifest)


def _commit_staged(tmp: str, path: str) -> None:
    """Atomically promote a fully-written staging directory to ``path``
    (the last step of :func:`_write_staged`)."""
    FAULTS.fire("artifact.save", stage="rename")
    if os.path.isdir(path):
        # Swap: move the old artifact aside, rename the staged one in,
        # then drop the old.  A failure between the renames rolls the
        # old artifact back, so the path never dangles half-written.
        old = f"{path}.old-{os.getpid()}"
        shutil.rmtree(old, ignore_errors=True)
        os.rename(path, old)
        try:
            FAULTS.fire("artifact.save", stage="swap")
            os.rename(tmp, path)
        except BaseException:
            if not os.path.exists(path):
                os.rename(old, path)
            raise
        shutil.rmtree(old, ignore_errors=True)
    else:
        os.rename(tmp, path)
    _fsync_dir(os.path.dirname(path))


def _validate_manifest(manifest: Dict[str, object], path: str) -> None:
    for key in _REQUIRED_MANIFEST_KEYS:
        if key not in manifest:
            raise ArtifactError(f"manifest in {path!r} is missing {key!r}")
    try:
        version = int(manifest["format_version"])
    except (TypeError, ValueError):
        raise ArtifactError(
            f"manifest in {path!r} has a non-integer format_version "
            f"{manifest['format_version']!r}"
        )
    if version > FORMAT_VERSION:
        raise ArtifactError(
            f"artifact format version {version} is newer than this "
            f"library supports ({FORMAT_VERSION}); upgrade the library "
            "or rebuild the artifact"
        )
    for key, cast in (("n", int), ("multiplicative", float), ("additive", float)):
        try:
            cast(manifest[key])
        except (TypeError, ValueError):
            raise ArtifactError(
                f"manifest in {path!r} has a non-numeric {key!r}: "
                f"{manifest[key]!r}"
            )
    params = manifest.get("params")
    if params is not None and not isinstance(params, dict):
        raise ArtifactError(
            f"manifest in {path!r} has a non-object 'params' echo: "
            f"{params!r}"
        )
    if isinstance(params, dict):
        # Validate the parameter echo against the variant's schema when
        # the variant is registered (unknown variants still load: the
        # kind drives the engine, the variant name is provenance).
        try:
            spec = variants_registry.get_variant(str(manifest["variant"]))
        except UnknownVariantError:
            spec = None
        if spec is not None:
            try:
                spec.resolve_params(params, n=int(manifest["n"]))
            except VariantParamError as exc:
                raise ArtifactError(
                    f"manifest in {path!r} fails the variant's parameter "
                    f"schema: {exc}"
                )


def load_artifact(
    path: str,
    expected_graph: Optional[AnyGraph] = None,
    mmap: bool = False,
    verify: bool = False,
) -> OracleArtifact:
    """Read an artifact directory back, validating version, completeness,
    the parameter echo, and (optionally) the graph fingerprint.

    ``mmap=True`` opens a format-2 ``estimates.npy`` with
    ``mmap_mode="r"`` — queries gather straight from the page cache and
    a large matrix artifact serves without loading the full payload
    resident.  Version-1 artifacts (estimates inside the compressed
    npz) cannot be mapped and fall back to a full load.

    Truncated or undecodable arrays (a torn write, a bad disk) raise
    :class:`ArtifactCorrupt` naming the bad array instead of leaking a
    numpy/zipfile traceback; ``verify=True`` additionally recomputes
    every array's SHA-256 against the manifest's ``checksums`` (the
    ``repro verify-artifact`` path — it catches bit flips a structural
    load cannot see).  Leftover ``<path>.tmp-*`` staging directories
    from interrupted saves are ignored: only the final path is read.

    Arrays keep their stored dtype (int32 or int64 ids, float32 or
    float64 distances; see :func:`_narrow`).

    Raises :class:`ArtifactError` on missing/malformed files, a payload
    array of any other dtype, a newer format version, or a parameter
    echo outside the variant's schema;
    :class:`ArtifactMismatch` when ``expected_graph`` does not hash to
    the manifest's ``graph_hash``.
    """
    FAULTS.fire("artifact.load")
    manifest_path = os.path.join(path, MANIFEST_NAME)
    arrays_path = os.path.join(path, ARRAYS_NAME)
    if not os.path.isfile(arrays_path) and os.path.isfile(manifest_path):
        # A sharded layout has a manifest (with a shard_map) but no
        # top-level arrays.npz — merge it back into one logical
        # artifact, bit-identical to the unsharded save.
        from .sharded import is_sharded_artifact, load_sharded_artifact

        if is_sharded_artifact(path):
            return load_sharded_artifact(
                path, expected_graph=expected_graph, mmap=mmap,
                verify=verify,
            )
    if not os.path.isfile(manifest_path) or not os.path.isfile(arrays_path):
        raise ArtifactError(
            f"{path!r} is not an oracle artifact (expected "
            f"{MANIFEST_NAME} and {ARRAYS_NAME})"
        )
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"unreadable manifest in {path!r}: {exc}")
    _validate_manifest(manifest, path)
    kind = str(manifest["kind"])
    if kind not in _KIND_ARRAYS:
        raise ArtifactError(f"unknown artifact kind {kind!r} in {path!r}")
    arrays: Dict[str, np.ndarray] = {}
    try:
        with np.load(arrays_path, allow_pickle=False) as data:
            for key in data.files:
                try:
                    arrays[key] = data[key]
                except Exception as exc:
                    raise ArtifactCorrupt(
                        f"array {key!r} in {arrays_path!r} is truncated "
                        f"or corrupted ({exc}); rebuild the artifact"
                    )
    except (ArtifactError, ArtifactCorrupt):
        raise
    except Exception as exc:
        raise ArtifactCorrupt(
            f"unreadable array payload {arrays_path!r} ({exc}); "
            "rebuild the artifact"
        )
    estimates_path = os.path.join(path, ESTIMATES_NAME)
    if os.path.isfile(estimates_path):
        try:
            arrays[_MMAP_KEY] = np.load(
                estimates_path, mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
        except Exception as exc:
            raise ArtifactCorrupt(
                f"array 'estimates' ({estimates_path!r}) is truncated "
                f"or corrupted ({exc}); rebuild the artifact"
            )
    for key in _KIND_ARRAYS[kind]:
        if key not in arrays:
            raise ArtifactError(
                f"artifact {path!r} ({kind}) is missing array {key!r}"
            )
    _check_dtypes(arrays, path)
    artifact = OracleArtifact(manifest=manifest, arrays=arrays)
    if verify:
        artifact.verify()
    if expected_graph is not None:
        artifact.check_graph(expected_graph)
    return artifact
