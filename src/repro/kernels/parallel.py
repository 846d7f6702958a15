"""The ``"parallel"`` kernel backend: numba JIT when importable,
forked shared-memory multiprocessing shards otherwise.

Three kernels have parallel implementations — the ones whose work the
paper's round analysis charges quadratically and that dominate every
APSP variant's wall clock:

* min-plus segment reduce (:func:`minplus_parallel`) — rows of the left
  operand are independent, so they JIT into a ``prange`` over CSR slabs
  (numba) or shard across a process pool, each worker running the
  vectorized csr kernel on its row block;
* Bellman–Ford relaxation (:func:`relax_parallel`) — source rows are
  independent under the per-hop Jacobi update, so the same split applies;
* sharded-BFS wave expansion (:func:`bfs_waves_parallel`) — waves are
  independent truncated BFS runs; numba runs one sequential BFS per wave
  under ``prange``, the pool fallback re-runs the adaptive
  :func:`repro.kernels.bfs._batched_wave` on wave sub-shards.

**Degradation chain** (announced once, via :class:`ParallelFallback`
warnings, naming the fallback taken): numba -> ``multiprocessing`` fork
pool -> in-process serial.  The serial tail exists so that
``backend="parallel"`` is *always* a valid request — on a host without
numba, without ``fork`` (or with one CPU and no worker override) the
kernels still run, on the vectorized single-process implementations.
:func:`parallel_mode` reports which rung the host landed on.

**Fidelity.**  Every path computes each candidate value with the same
single float64 addition the reference loop performs and reduces with
``min``, which is exact in any evaluation order — so all rungs are
bit-identical to the ``reference`` backend (enforced by
``tests/test_kernels.py`` / ``tests/test_parallel_backend.py``).

**Pool mechanics.**  The fallback pool uses the ``fork`` start method
and is *process-persistent*: the first call that engages it forks a
worker pool once, and every later kernel call reuses the same workers —
the fork cost (which grows with the parent's resident set) is paid once
per process instead of once per kernel call.  Because the workers are
forked before any particular call's operands exist, operands travel
through POSIX shared memory: the parent copies each array into a
``multiprocessing.shared_memory`` segment (one memcpy), workers attach
by name and run the vectorized shard kernels on views — nothing large is
pickled; only each worker's output block travels back.  The pool is torn
down by :func:`shutdown_pool` (idempotent, also registered with
``atexit``) and rebuilt automatically when the requested worker count
changes; if shared memory or the pool is unavailable the call degrades
to in-process serial shards with identical output.  Operands below
:data:`MIN_PARALLEL_CELLS` run in-process (the dispatch overhead would
dominate); :data:`ENV_WORKERS_VAR` overrides the worker count.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import threading
import time
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ENV_POOL_TIMEOUT_VAR",
    "ENV_WORKERS_VAR",
    "MIN_PARALLEL_CELLS",
    "ParallelFallback",
    "bfs_waves_parallel",
    "fork_available",
    "minplus_parallel",
    "numba_available",
    "parallel_mode",
    "parallel_profitable",
    "pool_active",
    "pool_timeout",
    "relax_parallel",
    "shard_edges",
    "shutdown_pool",
    "worker_count",
]

#: Worker-count override for the multiprocessing rung (also what the
#: E18 benchmark records as the thread count of a run).
ENV_WORKERS_VAR = "REPRO_KERNEL_WORKERS"

#: Hung-worker budget override (seconds): a pool map whose workers make
#: no progress for this long is declared hung and torn down.
ENV_POOL_TIMEOUT_VAR = "REPRO_POOL_TIMEOUT"

#: Default hung-worker budget — generous, because a legitimate shard on
#: a loaded host can be slow; the supervisor's *liveness* check (dead
#: workers) fires within a poll interval regardless.
_DEFAULT_POOL_TIMEOUT = 120.0

#: How often the pool supervisor wakes to check worker liveness.
_SUPERVISE_POLL = 0.05


def _pool_timeout() -> float:
    """The hung-worker budget (``REPRO_POOL_TIMEOUT`` override)."""
    value = os.environ.get(ENV_POOL_TIMEOUT_VAR)
    if not value:
        return _DEFAULT_POOL_TIMEOUT
    try:
        timeout = float(value)
    except ValueError:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR}={value!r} is not a number of seconds"
        )
    if timeout <= 0:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR} must be > 0, got {timeout!r}"
        )
    return timeout

#: Output cells below which a "parallel" request runs in-process: at this
#: size the fork/compile overhead dominates any speedup.  Tests lower it
#: to force the pool on small fixtures.
MIN_PARALLEL_CELLS = 1 << 16


class ParallelFallback(UserWarning):
    """Warned once per process when ``backend="parallel"`` degrades past
    numba; the message names the rung actually taken."""


_numba = None
_numba_checked = False


def _numba_module():
    """Import numba lazily, once — ``import repro`` must never pay
    numba's multi-hundred-ms import on hosts that have it but run other
    backends.  The first parallel-rung probe pays it instead."""
    global _numba, _numba_checked
    if not _numba_checked:
        _numba_checked = True
        try:
            import numba  # type: ignore

            _numba = numba
        except ImportError:
            _numba = None
    return _numba


def numba_available() -> bool:
    """Whether the numba rung is importable on this host."""
    return _numba_module() is not None


def worker_count() -> int:
    """Workers for the multiprocessing rung: ``REPRO_KERNEL_WORKERS`` if
    set, else the CPU count."""
    value = os.environ.get(ENV_WORKERS_VAR)
    if value:
        try:
            workers = int(value)
        except ValueError:
            raise ValueError(
                f"{ENV_WORKERS_VAR}={value!r} is not an integer worker count"
            )
        if workers < 1:
            raise ValueError(f"{ENV_WORKERS_VAR} must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform (the
    sharded oracle and the shard pool both require it)."""
    return _fork_available()


def pool_timeout() -> float:
    """The hung-worker budget in seconds (``REPRO_POOL_TIMEOUT``
    override) — shared by the kernel shard pool and the sharded
    oracle's worker supervision."""
    return _pool_timeout()


def shard_edges(total: int, shards: int) -> np.ndarray:
    """Contiguous partition of ``range(total)`` into at most ``shards``
    blocks, as the ``shards+1`` boundary array (``edges[i]:edges[i+1]``
    is block ``i``).  This is the *canonical* vertex-range split: the
    sharded artifact writer, the query router, and the kernel pool all
    derive their ranges from it, so they always agree."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = max(1, min(shards, max(total, 1)))
    return np.linspace(0, total, shards + 1, dtype=np.int64)


def parallel_mode() -> str:
    """The degradation rung ``backend="parallel"`` lands on for this
    process: ``"numba"``, ``"multiprocessing"``, or ``"serial"``.

    Never raises: an invalid ``REPRO_KERNEL_WORKERS`` reads as the
    serial rung here, so a plain ``"auto"`` dispatch (which probes this
    for promotion) keeps working — the loud :class:`ValueError` is
    reserved for code paths that actually engage the pool.
    """
    if numba_available():
        return "numba"
    try:
        workers = worker_count()
    except ValueError:
        return "serial"
    if _fork_available() and workers > 1:
        return "multiprocessing"
    return "serial"


def parallel_profitable() -> bool:
    """Whether ``"auto"`` dispatch should promote large operands to the
    parallel backend on this host (a JIT or a real pool is available —
    the serial rung is valid but never *faster*)."""
    return parallel_mode() != "serial"


#: Output cells above which an ``"auto"`` dispatch promotes to the
#: parallel backend (shared by the minplus / relax / BFS dispatchers).
AUTO_PARALLEL_CELLS = 1 << 21


def maybe_promote(resolved: str, cells: int) -> str:
    """The dispatchers' shared ``"auto"`` promotion rule: large operands
    go parallel when that backend is profitable on this host."""
    if (
        resolved == "auto"
        and cells >= AUTO_PARALLEL_CELLS
        and parallel_profitable()
    ):
        return "parallel"
    return resolved


_announced = False


def _announce_fallback() -> None:
    """One warning per process naming the fallback rung taken (the
    graceful-degradation contract: a user who asked for "parallel"
    learns what actually ran without the request failing)."""
    global _announced
    if _announced or numba_available():
        return
    _announced = True
    mode = parallel_mode()
    if mode == "multiprocessing":
        detail = (
            f"falling back to a {worker_count()}-worker multiprocessing "
            "shard pool"
        )
    else:
        detail = (
            "falling back to in-process serial execution "
            "(no fork start method or a single worker"
            f" — set {ENV_WORKERS_VAR} to force a pool)"
        )
    warnings.warn(
        f"backend='parallel': numba is not importable; {detail}",
        ParallelFallback,
        stacklevel=3,
    )


# ----------------------------------------------------------------------
# Multiprocessing rung: a persistent forked shard pool fed through
# shared-memory segments
# ----------------------------------------------------------------------

_PAYLOAD: Optional[tuple] = None  # operands visible to the shard workers

_POOL = None  # the persistent fork pool (created lazily)
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()  # guards pool creation/teardown
_ATEXIT_REGISTERED = False


def _shard_bounds(total: int, shards: int) -> Sequence[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous blocks."""
    edges = shard_edges(total, shards)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def pool_active() -> bool:
    """Whether the persistent shard pool is currently alive."""
    return _POOL is not None


def shutdown_pool() -> None:
    """Terminate the persistent shard pool (idempotent, thread-safe).

    Registered with ``atexit`` when the pool is first created, so a
    process never exits with live workers; call it explicitly to release
    the workers early (a server draining before reload, a test tearing
    down a forced pool).  The next kernel call that needs the pool simply
    forks a fresh one.  Do not tear the pool down (or change
    ``REPRO_KERNEL_WORKERS``) while another thread's kernel call is in
    flight on it — like the backend knobs in :mod:`repro.kernels.config`,
    reconfiguration is a single-threaded setup operation.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.terminate()
            _POOL.join()
            _POOL = None
            _POOL_WORKERS = 0


def _get_pool(workers: int):
    """The persistent fork pool, (re)created to match ``workers``.
    Creation/rebuild is serialized so concurrent first calls cannot each
    fork a pool and orphan one of them."""
    global _POOL, _POOL_WORKERS, _ATEXIT_REGISTERED
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()  # worker-count override changed: rebuild
    with _POOL_LOCK:
        if _POOL is None:
            ctx = multiprocessing.get_context("fork")
            _POOL = ctx.Pool(processes=workers)
            _POOL_WORKERS = workers
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pool)
                _ATEXIT_REGISTERED = True
        return _POOL


class _PoolUnavailable(Exception):
    """Internal: the persistent pool / shared memory could not be used;
    the caller falls back to in-process serial shards."""


class _PoolBroken(Exception):
    """Internal: a dispatched pool map lost a worker (killed, OOMed) or
    made no progress inside the hung-worker budget.  The pool is torn
    down; the caller rebuilds once, then degrades to serial shards."""


def _fire_worker_fault() -> None:
    """Fire the ``parallel.worker`` chaos point inside a pool worker.

    Kernel workers must not drag the oracle package in (pure kernel
    users never import it), so the injector is only consulted when it is
    already loaded in this process (forked workers inherit the parent's
    armed injector) or the environment spec names this point.
    """
    faults = sys.modules.get("repro.oracle.faults")
    if faults is None:
        if "parallel.worker" not in os.environ.get("REPRO_FAULTS", ""):
            return
        from ..oracle import faults  # noqa: PLC0415 — chaos-only import
    faults.FAULTS.fire("parallel.worker")


def _publish_shared(payload):
    """Copy the payload's arrays into shared-memory segments.

    Returns ``(segments, slots)`` where ``slots`` mirrors the payload
    tuple: arrays become ``("shm", name, shape, dtype)`` descriptors the
    workers re-attach by name, scalars pass through as ``("val", x)``.
    """
    from multiprocessing import shared_memory

    segments, slots = [], []
    try:
        for item in payload:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                segments.append(shm)
                view = np.ndarray(arr.shape, arr.dtype, buffer=shm.buf)
                view[...] = arr
                slots.append(("shm", shm.name, arr.shape, arr.dtype.str))
            else:
                slots.append(("val", item))
    except Exception as exc:  # no /dev/shm, quota, …: degrade, don't fail
        for shm in segments:
            shm.close()
            shm.unlink()
        raise _PoolUnavailable(str(exc))
    return segments, slots


def _attach_shared(slots):
    """Worker side of :func:`_publish_shared`: rebuild the payload tuple
    from the slot descriptors (attaching segments by name)."""
    from multiprocessing import shared_memory

    payload, handles = [], []
    for slot in slots:
        if slot[0] == "shm":
            _, name, shape, dtype = slot
            # Attaching re-registers the segment with the resource
            # tracker (bpo-39959), but forked workers share the parent's
            # tracker, whose registry is a set: the duplicate is a no-op
            # and the parent's unlink retires the one entry.  Do not
            # unregister here — that drops the parent's entry and its
            # later unlink fails inside the tracker (KeyError).
            shm = shared_memory.SharedMemory(name=name)
            handles.append(shm)
            payload.append(np.ndarray(shape, np.dtype(dtype), buffer=shm.buf))
        else:
            payload.append(slot[1])
    return tuple(payload), handles


def _pool_entry(task):
    """Runs inside a pool worker: rebuild the payload from shared memory,
    run the named shard kernel, release the segments."""
    kind, bounds, slots = task
    global _PAYLOAD
    _fire_worker_fault()
    payload, handles = _attach_shared(slots)
    _PAYLOAD = payload
    try:
        return _SHARD_WORKERS[kind](bounds)
    finally:
        _PAYLOAD = None
        del payload
        for shm in handles:
            try:
                shm.close()
            except BufferError:  # a stray view still alive: leak the
                pass             # handle, the parent unlink still frees it


def _map_shards(kind: str, payload, total_rows: int):
    """Run the ``kind`` shard worker over row shards of ``payload`` and
    return the per-shard results in row order.

    Multi-shard calls go to the persistent fork pool with operands
    published through shared memory; single-shard calls, hosts without
    ``fork``, and shared-memory failures all run the same worker
    functions in-process — identical results either way.  The serial
    cutoff in each entry point keeps small calls from engaging the pool
    at all."""
    global _PAYLOAD
    worker = _SHARD_WORKERS[kind]
    bounds = _shard_bounds(total_rows, worker_count())
    if len(bounds) > 1 and _fork_available():
        try:
            return _map_on_pool(kind, payload, bounds)
        except _PoolUnavailable as exc:
            warnings.warn(
                f"backend='parallel': shard pool unavailable ({exc}); "
                "degrading to in-process serial shards for this call",
                ParallelFallback,
                stacklevel=3,
            )
    _PAYLOAD = payload
    try:
        return [worker(b) for b in bounds]
    finally:
        _PAYLOAD = None


def _supervised_map(pool, tasks, timeout: float):
    """``pool.map`` with worker supervision: detect a worker that died
    mid-task (``multiprocessing.Pool`` silently replaces it and the map
    waits forever for the lost task) or a map that makes no progress for
    ``timeout`` seconds; raise :class:`_PoolBroken` instead of hanging.

    Death is detected by comparing the pool's worker pid-set against the
    dispatch-time snapshot (the pool's maintenance thread swaps dead
    workers for fresh pids) plus a plain liveness sweep.
    """
    initial = {p.pid for p in pool._pool}
    result = pool.map_async(_pool_entry, tasks)
    end = time.monotonic() + timeout
    while True:
        try:
            return result.get(timeout=_SUPERVISE_POLL)
        except multiprocessing.TimeoutError:
            workers = list(pool._pool)
            pids = {p.pid for p in workers}
            if pids != initial or not all(p.is_alive() for p in workers):
                raise _PoolBroken(
                    "a shard worker died mid-task (killed or crashed)"
                )
            if time.monotonic() >= end:
                raise _PoolBroken(
                    f"shard workers made no progress for {timeout:g}s "
                    f"(set {ENV_POOL_TIMEOUT_VAR} to adjust)"
                )


def _map_on_pool(kind: str, payload, bounds):
    """Dispatch shard tasks onto the persistent pool, supervised.

    A broken map (dead or hung worker) tears the pool down and retries
    once on a freshly forked pool; a second failure degrades the call to
    :class:`_PoolUnavailable` (the serial-shard rung).  Shared-memory
    segments are closed and unlinked on every exit path — a killed
    worker never leaks its operands' segments.
    """
    segments, slots = _publish_shared(payload)
    tasks = [(kind, b, slots) for b in bounds]
    timeout = _pool_timeout()
    try:
        for attempt in (1, 2):
            try:
                pool = _get_pool(worker_count())
            except Exception as exc:
                raise _PoolUnavailable(str(exc))
            try:
                return _supervised_map(pool, tasks, timeout)
            except _PoolBroken as exc:
                # The pool lost state (a worker died holding a task):
                # terminate it so the next attempt forks a clean one.
                shutdown_pool()
                if attempt > 1:
                    raise _PoolUnavailable(str(exc))
                warnings.warn(
                    f"backend='parallel': {exc}; rebuilding the shard "
                    "pool and retrying once",
                    ParallelFallback,
                    stacklevel=4,
                )
            except _PoolUnavailable:
                raise
            except Exception:
                # A broken pool must not poison later calls: tear it
                # down so the next engagement forks a fresh one, then
                # surface the error.
                shutdown_pool()
                raise
    finally:
        for shm in segments:
            shm.close()
            shm.unlink()


def _minplus_shard(bounds: Tuple[int, int]) -> np.ndarray:
    from .minplus import minplus_csr

    lo, hi = bounds
    s, t = _PAYLOAD
    return minplus_csr(s[lo:hi], t)


def _relax_shard(bounds: Tuple[int, int]) -> np.ndarray:
    from .relax import _relax_rounds

    lo, hi = bounds
    dist, origins, targets, weights, max_hops = _PAYLOAD
    return _relax_rounds(dist[lo:hi], origins, targets, weights, max_hops)


def _bfs_shard(bounds: Tuple[int, int]) -> np.ndarray:
    from .bfs import _batched_wave

    lo, hi = bounds
    indptr, indices, n, src, radii = _PAYLOAD
    block = np.full((n, hi - lo), np.inf)
    _batched_wave(indptr, indices, n, src[lo:hi], radii[lo:hi], block)
    return block


#: Shard kernels by wire name (what travels to the pool workers —
#: functions are resolved by name on both sides of the fork).
_SHARD_WORKERS = {
    "minplus": _minplus_shard,
    "relax": _relax_shard,
    "bfs": _bfs_shard,
}


# ----------------------------------------------------------------------
# Numba rung: lazily compiled prange kernels
# ----------------------------------------------------------------------

_JIT = None


def _jit_kernels():
    """Compile the numba kernels once per process (lazy: importing the
    backend never pays the compile)."""
    global _JIT
    if _JIT is not None:
        return _JIT
    numba = _numba_module()
    prange = numba.prange

    @numba.njit(parallel=True, cache=True)
    def minplus_jit(sp, sc, sv, tp, tc, tv, rows, n_out):
        out = np.full((rows, n_out), np.inf)
        for i in prange(rows):
            for a in range(sp[i], sp[i + 1]):
                k = sc[a]
                base = sv[a]
                row = out[i]
                for b in range(tp[k], tp[k + 1]):
                    cand = base + tv[b]
                    if cand < row[tc[b]]:
                        row[tc[b]] = cand
        return out

    @numba.njit(parallel=True, cache=True)
    def relax_jit(dist, origins, targets, weights, max_hops):
        cur = dist.copy()
        num_sources = dist.shape[0]
        changed = np.empty(num_sources, dtype=np.uint8)
        for _ in range(max_hops):
            prev = cur.copy()
            for srow in prange(num_sources):
                changed[srow] = 0
                for a in range(origins.size):
                    cand = prev[srow, origins[a]] + weights[a]
                    if cand < cur[srow, targets[a]]:
                        cur[srow, targets[a]] = cand
                        changed[srow] = 1
            if changed.max() == 0:
                break
        return cur

    @numba.njit(parallel=True, cache=True)
    def bfs_waves_jit(indptr, indices, n, src, radii):
        waves = src.size
        out = np.full((waves, n), np.inf)
        for w in prange(waves):
            row = out[w]
            queue = np.empty(n, dtype=np.int64)
            nxt = np.empty(n, dtype=np.int64)
            queue[0] = src[w]
            qlen = 1
            row[src[w]] = 0.0
            level = 0.0
            while qlen > 0 and level < radii[w]:
                level += 1.0
                nlen = 0
                for qi in range(qlen):
                    v = queue[qi]
                    for a in range(indptr[v], indptr[v + 1]):
                        u = indices[a]
                        if row[u] == np.inf:
                            row[u] = level
                            nxt[nlen] = u
                            nlen += 1
                queue, nxt = nxt, queue
                qlen = nlen
        return out

    _JIT = (minplus_jit, relax_jit, bfs_waves_jit)
    return _JIT


# ----------------------------------------------------------------------
# Backend entry points (what the dispatchers call)
# ----------------------------------------------------------------------

def minplus_parallel(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Parallel min-plus product, bit-identical to ``minplus_csr``."""
    from .csr import dense_to_csr
    from .minplus import minplus_csr

    if numba_available():
        sp, sc, sv = dense_to_csr(s)
        tp, tc, tv = dense_to_csr(t)
        minplus_jit, _, _ = _jit_kernels()
        return minplus_jit(sp, sc, sv, tp, tc, tv, s.shape[0], t.shape[1])
    _announce_fallback()
    rows = s.shape[0]
    if rows * t.shape[1] < MIN_PARALLEL_CELLS or worker_count() == 1:
        return minplus_csr(s, t)
    blocks = _map_shards("minplus", (s, t), rows)
    return np.vstack(blocks) if blocks else np.full((0, t.shape[1]), np.inf)


def relax_parallel(
    dist: np.ndarray,
    origins: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    max_hops: int,
) -> np.ndarray:
    """Parallel hop-limited relaxation, bit-identical to the numpy
    kernel: source rows evolve independently under the per-hop Jacobi
    update, so any row split (or per-row early fixpoint) yields the same
    final matrix.  Degenerate inputs (no rows, no arcs, no hops) return
    a copy of the seed on every rung."""
    from .relax import _relax_rounds

    if dist.size == 0 or targets.size == 0 or max_hops <= 0:
        return dist.copy()
    if numba_available():
        _, relax_jit, _ = _jit_kernels()
        return relax_jit(
            np.ascontiguousarray(dist, dtype=np.float64),
            np.asarray(origins, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(weights, dtype=np.float64),
            max_hops,
        )
    _announce_fallback()
    rows = dist.shape[0]
    if dist.size < MIN_PARALLEL_CELLS or worker_count() == 1 or rows < 2:
        return _relax_rounds(dist, origins, targets, weights, max_hops)
    blocks = _map_shards(
        "relax", (dist, origins, targets, weights, max_hops), rows
    )
    return np.vstack(blocks)


def bfs_waves_parallel(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    src: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Parallel truncated-BFS waves: the ``(src.size, n)`` level matrix,
    bit-identical to ``_batched_wave`` (BFS levels are scheme-independent
    integers).  Fractional radii are floored here so every rung truncates
    identically (levels are integral)."""
    from .bfs import _batched_wave

    # Degenerate inputs short-circuit before any rung — the JIT kernel
    # must never see a zero-width row to index into.
    if src.size == 0 or n == 0:
        return np.full((src.size, n), np.inf)
    radii = np.floor(np.asarray(radii, dtype=np.float64))
    if numba_available():
        _, _, bfs_jit = _jit_kernels()
        # asarray, not astype: the adjacency is already int64, and this
        # runs once per shard — no per-call copies of the whole CSR.
        return bfs_jit(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            n,
            np.asarray(src, dtype=np.int64),
            radii,
        )
    _announce_fallback()
    if src.size * n < MIN_PARALLEL_CELLS or worker_count() == 1:
        block = np.full((n, src.size), np.inf)
        _batched_wave(indptr, indices, n, src, radii, block)
        return np.ascontiguousarray(block.T)
    blocks = _map_shards("bfs", (indptr, indices, n, src, radii), src.size)
    return np.ascontiguousarray(np.hstack(blocks).T)
