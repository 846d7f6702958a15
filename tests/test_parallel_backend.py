"""The ``parallel`` kernel backend and the layered backend resolution.

Three concerns (ISSUE 3):

* **Resolution order** — ``force_backend`` > call-site ``backend=`` >
  ``REPRO_KERNEL_BACKEND`` > process default, including env-var
  validation (a typo fails loudly, naming the variable).
* **Graceful degradation** — with numba absent the parallel backend
  falls to a forked multiprocessing shard pool, and past that to
  in-process serial execution, warning once with the fallback taken.
* **Bit-fidelity** — every degradation rung is bit-identical to the
  ``reference`` backend on the three parallelized kernels (min-plus,
  hop-limited relax, BFS waves) and end-to-end through
  ``force_backend("parallel")`` pipelines.  The numba rung itself can
  only compile where numba is installed (the CI matrix leg); these tests
  exercise whichever rung the host provides.
"""

import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from repro import kernels
from repro.apsp import apsp_near_additive
from repro.emulator import build_emulator
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph.distances import hop_limited_bellman_ford
from repro.kernels import parallel as par
from repro.kernels import reference as ref
from repro.kernels.config import ENV_BACKEND_VAR

# One bit-fidelity comparator / operand generator across the kernel
# suites — a future change to inf/nan canonicalization must hit both.
from test_kernels import exact_equal, random_minplus_matrix  # noqa: E402


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND_VAR, raising=False)
    monkeypatch.delenv(par.ENV_WORKERS_VAR, raising=False)


@pytest.fixture
def forced_pool(monkeypatch):
    """Force the multiprocessing rung: 2 workers, no serial-cutoff."""
    monkeypatch.setenv(par.ENV_WORKERS_VAR, "2")
    monkeypatch.setattr(par, "MIN_PARALLEL_CELLS", 0)


# ----------------------------------------------------------------------
# Resolution order
# ----------------------------------------------------------------------

class TestResolutionOrder:
    def test_forced_beats_everything(self, monkeypatch, clean_env):
        monkeypatch.setenv(ENV_BACKEND_VAR, "csr")
        with kernels.force_backend("dense"):
            assert kernels.resolve_backend("parallel") == "dense"

    def test_call_site_beats_env(self, monkeypatch, clean_env):
        monkeypatch.setenv(ENV_BACKEND_VAR, "csr")
        assert kernels.resolve_backend("dense") == "dense"

    def test_env_beats_default(self, monkeypatch, clean_env):
        monkeypatch.setenv(ENV_BACKEND_VAR, "parallel")
        assert kernels.resolve_backend() == "parallel"
        assert kernels.get_default_backend() == "auto"  # layer 4 untouched

    def test_default_when_nothing_set(self, clean_env):
        assert kernels.resolve_backend() == kernels.get_default_backend()

    def test_empty_env_value_ignored(self, monkeypatch, clean_env):
        monkeypatch.setenv(ENV_BACKEND_VAR, "")
        assert kernels.resolve_backend() == kernels.get_default_backend()

    @pytest.mark.parametrize("value", ["bogus", "Parallel", "gpu"])
    def test_invalid_env_value_names_variable(self, monkeypatch, clean_env, value):
        monkeypatch.setenv(ENV_BACKEND_VAR, value)
        with pytest.raises(ValueError, match=ENV_BACKEND_VAR):
            kernels.resolve_backend()

    def test_every_backend_name_accepted(self, clean_env):
        for name in kernels.BACKENDS:
            assert kernels.resolve_backend(name) == name

    def test_parallel_in_backends_tuple(self):
        assert "parallel" in kernels.BACKENDS

    def test_invalid_worker_count_rejected(self, monkeypatch, clean_env):
        monkeypatch.setenv(par.ENV_WORKERS_VAR, "zero")
        with pytest.raises(ValueError, match=par.ENV_WORKERS_VAR):
            par.worker_count()
        monkeypatch.setenv(par.ENV_WORKERS_VAR, "0")
        with pytest.raises(ValueError, match=par.ENV_WORKERS_VAR):
            par.worker_count()

    def test_worker_count_env_override(self, monkeypatch, clean_env):
        monkeypatch.setenv(par.ENV_WORKERS_VAR, "3")
        assert par.worker_count() == 3


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

class TestDegradation:
    def test_mode_is_known_rung(self, clean_env):
        assert par.parallel_mode() in ("numba", "multiprocessing", "serial")

    def test_mode_matches_numba_availability(self, clean_env):
        if par.numba_available():
            assert par.parallel_mode() == "numba"
        else:
            assert par.parallel_mode() in ("multiprocessing", "serial")

    def test_fallback_warning_names_rung(self, monkeypatch, clean_env, rng):
        if par.numba_available():
            pytest.skip("numba present: no fallback to announce")
        monkeypatch.setattr(par, "_announced", False)
        s = random_minplus_matrix(rng, 8, 8, 0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            par.minplus_parallel(s, s)
        fallback = [w for w in caught if issubclass(w.category, kernels.ParallelFallback)]
        assert len(fallback) == 1
        message = str(fallback[0].message)
        assert "numba" in message
        assert par.parallel_mode() in message or "multiprocessing" in message or "serial" in message

    def test_fallback_warned_once_per_process(self, monkeypatch, clean_env, rng):
        if par.numba_available():
            pytest.skip("numba present: no fallback to announce")
        monkeypatch.setattr(par, "_announced", False)
        s = random_minplus_matrix(rng, 8, 8, 0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            par.minplus_parallel(s, s)
            par.minplus_parallel(s, s)
        fallback = [w for w in caught if issubclass(w.category, kernels.ParallelFallback)]
        assert len(fallback) == 1

    def test_parallel_request_never_fails(self, clean_env, rng):
        # The contract: "parallel" is always a valid backend request,
        # whatever the host lacks.
        s = random_minplus_matrix(rng, 10, 10, 0.3)
        out = kernels.minplus(s, s, backend="parallel")
        assert exact_equal(out, ref.minplus_reference(s, s))

    def test_profitable_iff_not_serial(self, clean_env):
        assert par.parallel_profitable() == (par.parallel_mode() != "serial")

    def test_bad_workers_env_does_not_break_auto(self, monkeypatch, clean_env, rng):
        # An invalid worker override must not take down plain "auto"
        # dispatches (which probe parallel_mode for promotion); only code
        # that engages the pool may raise.
        monkeypatch.setenv(par.ENV_WORKERS_VAR, "8.0")
        assert par.parallel_mode() in ("numba", "serial")
        s = random_minplus_matrix(rng, 12, 12, 0.3)
        out = kernels.minplus(s, s)  # backend="auto" path
        assert exact_equal(out, ref.minplus_reference(s, s))


# ----------------------------------------------------------------------
# Bit-fidelity of the parallel kernels (host rung and forced pool rung)
# ----------------------------------------------------------------------

class TestParallelFidelity:
    @pytest.mark.parametrize("keep", [0.0, 0.05, 0.3, 0.9])
    def test_minplus_matches_reference(self, rng, clean_env, keep):
        for _ in range(3):
            rows, inner, cols = rng.integers(1, 40, 3)
            s = random_minplus_matrix(rng, rows, inner, keep)
            t = random_minplus_matrix(rng, inner, cols, keep)
            got = par.minplus_parallel(s, t)
            assert exact_equal(got, ref.minplus_reference(s, t))

    def test_minplus_forked_pool_matches(self, rng, clean_env, forced_pool):
        s = random_minplus_matrix(rng, 33, 21, 0.25)
        t = random_minplus_matrix(rng, 21, 29, 0.25)
        got = par.minplus_parallel(s, t)
        assert exact_equal(got, ref.minplus_reference(s, t))

    @pytest.mark.parametrize("max_dist", [0, 1, 3, np.inf])
    def test_bfs_waves_match_reference(self, clean_env, max_dist):
        for g in (
            gen.make_family("er_sparse", 60, seed=1),
            gen.make_family("grid", 49, seed=2),
            Graph(12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
            Graph.empty(7),
        ):
            sources = np.arange(g.n)
            radii = np.full(g.n, float(max_dist))
            got = par.bfs_waves_parallel(g.indptr, g.indices, g.n, sources, radii)
            want = ref.batched_bfs_reference(
                g.indptr, g.indices, g.n, sources, max_dist
            )
            assert exact_equal(got, want)

    def test_bfs_waves_forked_pool_matches(self, clean_env, forced_pool):
        g = gen.make_family("er_sparse", 50, seed=5)
        sources = np.arange(g.n)
        got = par.bfs_waves_parallel(
            g.indptr, g.indices, g.n, sources, np.full(g.n, 4.0)
        )
        want = ref.batched_bfs_reference(g.indptr, g.indices, g.n, sources, 4)
        assert exact_equal(got, want)

    def test_bfs_degenerate_inputs_short_circuit(self, clean_env):
        # n == 0 with a stale nonempty source list must return the empty
        # matrix on every rung (the JIT kernel must never index a
        # zero-width row).
        empty = np.zeros(1, dtype=np.int64)
        out = par.bfs_waves_parallel(
            np.zeros(1, np.int64), np.empty(0, np.int64), 0,
            np.array([0]), np.array([3.0]),
        )
        assert out.shape == (1, 0)
        out = par.bfs_waves_parallel(
            empty, np.empty(0, np.int64), 0, np.empty(0, np.int64),
            np.empty(0),
        )
        assert out.shape == (0, 0)

    def test_bfs_fractional_radii_floored_on_every_rung(self, clean_env):
        # bfs_waves_parallel floors radii itself so all rungs truncate
        # identically (batched_bfs/sharded_bfs floor before calling, but
        # the entry point is public).
        g = gen.make_family("er_sparse", 40, seed=3)
        sources = np.arange(g.n)
        got = par.bfs_waves_parallel(
            g.indptr, g.indices, g.n, sources, np.full(g.n, 2.5)
        )
        want = ref.batched_bfs_reference(g.indptr, g.indices, g.n, sources, 2)
        assert exact_equal(got, want)

    def test_auto_dense_operands_not_promoted(self, rng, clean_env, monkeypatch):
        # The density rule outranks parallel promotion: a dense operand
        # keeps the blocked-broadcast kernel even when parallel looks
        # profitable and the operand is over the size threshold.
        monkeypatch.setattr(par, "AUTO_PARALLEL_CELLS", 0)
        monkeypatch.setattr(par, "parallel_profitable", lambda: True)
        calls = []
        monkeypatch.setattr(
            par, "minplus_parallel",
            lambda s, t: calls.append(1) or kernels.minplus_csr(s, t),
        )
        dense = random_minplus_matrix(rng, 16, 16, 0.9)
        sparse = random_minplus_matrix(rng, 16, 16, 0.05)
        kernels.minplus(dense, dense, backend="auto")
        assert not calls
        kernels.minplus(sparse, sparse, backend="auto")
        assert calls

    def test_bfs_per_source_radii(self, clean_env):
        g = gen.make_family("er_sparse", 40, seed=3)
        sources = np.arange(g.n)
        radii = (sources % 4).astype(float)
        got = par.bfs_waves_parallel(g.indptr, g.indices, g.n, sources, radii)
        for i in range(g.n):
            want = ref.multi_source_bfs_reference(
                g.indptr, g.indices, g.n, [i], radii[i]
            )
            assert exact_equal(got[i], want)

    def test_relax_matches_numpy_kernel(self, clean_env, small_er):
        wg = small_er.to_weighted()
        us, vs, ws = wg.edge_arrays()
        origins = np.concatenate([us, vs])
        targets = np.concatenate([vs, us])
        weights = np.concatenate([ws, ws]) * 1.5
        dist = np.full((6, wg.n), np.inf)
        dist[np.arange(6), np.arange(6)] = 0.0
        for hops in (1, 3, 10):
            want = kernels.hop_limited_relax(
                dist, origins, targets, weights, hops, backend="csr"
            )
            got = par.relax_parallel(dist, origins, targets, weights, hops)
            assert exact_equal(got, want)

    def test_relax_forked_pool_matches(self, clean_env, forced_pool, small_er):
        wg = small_er.to_weighted()
        us, vs, ws = wg.edge_arrays()
        origins, targets = np.concatenate([us, vs]), np.concatenate([vs, us])
        weights = np.concatenate([ws, ws]) * 2.0
        dist = np.full((8, wg.n), np.inf)
        dist[np.arange(8), np.arange(8)] = 0.0
        got = par.relax_parallel(dist, origins, targets, weights, 5)
        want = kernels.hop_limited_relax(
            dist, origins, targets, weights, 5, backend="csr"
        )
        assert exact_equal(got, want)

    def test_dispatchers_route_parallel(self, rng, clean_env):
        s = random_minplus_matrix(rng, 20, 20, 0.2)
        assert exact_equal(
            kernels.minplus(s, s, backend="parallel"),
            ref.minplus_reference(s, s),
        )
        g = gen.make_family("tree", 40, seed=3)
        got = kernels.batched_bfs(
            g.indptr, g.indices, g.n, np.arange(g.n), 5, backend="parallel"
        )
        want = ref.batched_bfs_reference(g.indptr, g.indices, g.n, np.arange(g.n), 5)
        assert exact_equal(got, want)

    def test_sharded_bfs_parallel_blocks(self, clean_env):
        g = gen.make_family("er_sparse", 60, seed=1)
        sources = np.arange(g.n)
        full = ref.batched_bfs_reference(g.indptr, g.indices, g.n, sources, 4)
        for lo, hi, block in kernels.sharded_bfs(
            g.indptr, g.indices, g.n, sources, 4, backend="parallel", shard_size=13
        ):
            assert exact_equal(block, full[lo:hi])


# ----------------------------------------------------------------------
# The persistent shard pool (ISSUE 4: amortize fork cost across calls)
# ----------------------------------------------------------------------

class TestPersistentPool:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        par.shutdown_pool()
        yield
        par.shutdown_pool()

    def test_pool_persists_across_kernel_calls(self, rng, clean_env, forced_pool):
        s = random_minplus_matrix(rng, 30, 20, 0.3)
        t = random_minplus_matrix(rng, 20, 25, 0.3)
        par.minplus_parallel(s, t)
        assert par.pool_active()
        first = par._POOL
        par.minplus_parallel(s, t)  # second call reuses the same workers
        assert par._POOL is first
        dist = np.full((8, 30), np.inf)
        dist[np.arange(8), np.arange(8)] = 0.0
        par.relax_parallel(
            dist, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]), 3
        )
        assert par._POOL is first  # shared across kernel kinds too

    def test_shutdown_is_idempotent_and_restarts(self, rng, clean_env, forced_pool):
        s = random_minplus_matrix(rng, 24, 24, 0.3)
        want = ref.minplus_reference(s, s)
        assert exact_equal(par.minplus_parallel(s, s), want)
        assert par.pool_active()
        par.shutdown_pool()
        par.shutdown_pool()  # idempotent
        assert not par.pool_active()
        assert exact_equal(par.minplus_parallel(s, s), want)  # fresh pool
        assert par.pool_active()

    def test_worker_count_change_rebuilds_pool(
        self, rng, clean_env, forced_pool, monkeypatch
    ):
        s = random_minplus_matrix(rng, 24, 24, 0.3)
        par.minplus_parallel(s, s)
        first = par._POOL
        monkeypatch.setenv(par.ENV_WORKERS_VAR, "3")
        assert exact_equal(
            par.minplus_parallel(s, s), ref.minplus_reference(s, s)
        )
        assert par._POOL is not first
        assert par._POOL_WORKERS == 3

    def test_pool_results_bit_identical_across_reuse(
        self, rng, clean_env, forced_pool
    ):
        # The payload travels through fresh shared-memory segments per
        # call: stale operands must never leak between calls.
        for _ in range(3):
            s = random_minplus_matrix(rng, 26, 18, 0.25)
            t = random_minplus_matrix(rng, 18, 22, 0.25)
            assert exact_equal(
                par.minplus_parallel(s, t), ref.minplus_reference(s, t)
            )

    def test_bfs_waves_on_persistent_pool(self, clean_env, forced_pool):
        g = gen.make_family("er_sparse", 55, seed=8)
        sources = np.arange(g.n)
        for _ in range(2):
            got = par.bfs_waves_parallel(
                g.indptr, g.indices, g.n, sources, np.full(g.n, 5.0)
            )
            want = ref.batched_bfs_reference(
                g.indptr, g.indices, g.n, sources, 5
            )
            assert exact_equal(got, want)
        assert par.pool_active()

    def test_exported_from_kernels(self):
        assert kernels.shutdown_pool is par.shutdown_pool
        assert kernels.pool_active is par.pool_active


class TestSharedMemoryTracker:
    """Forked workers share the parent's resource tracker: attaching a
    segment must not unregister it, or the parent's unlink fails inside
    the tracker with ``KeyError: '/psm_...'``."""

    SCRIPT = textwrap.dedent("""
        import numpy as np
        from repro.kernels import parallel as par

        par.MIN_PARALLEL_CELLS = 0
        rng = np.random.default_rng(0)
        for _ in range(3):
            s = rng.random((30, 20))
            t = rng.random((20, 25))
            par.minplus_parallel(s, t)
        print("pool_active=%s" % par.pool_active(), flush=True)
        par.shutdown_pool()
    """)

    @staticmethod
    def _segments():
        if not os.path.isdir("/dev/shm"):
            return None
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

    def test_forced_pool_map_no_tracker_keyerror_no_leak(self):
        if not par.fork_available():
            pytest.skip("no fork start method: the pool rung never runs")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        env[par.ENV_WORKERS_VAR] = "2"
        env.pop(ENV_BACKEND_VAR, None)
        before = self._segments()
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        if par.numba_available():
            pytest.skip("numba present: the fork pool rung is not used")
        assert "pool_active=True" in proc.stdout
        assert "KeyError: '/psm_" not in proc.stderr, proc.stderr
        if before is not None:
            assert self._segments() - before == set()


# ----------------------------------------------------------------------
# Sharded BFS block layout (the Fortran-order follow-on)
# ----------------------------------------------------------------------

class TestShardLayout:
    def test_default_blocks_are_column_contiguous(self, clean_env):
        g = gen.make_family("er_sparse", 60, seed=1)
        blocks = list(
            kernels.sharded_bfs(g.indptr, g.indices, g.n, np.arange(g.n), 4)
        )
        assert blocks
        for _, _, block in blocks:
            if block.shape[0] > 1:  # 1-row blocks are trivially both orders
                assert block.flags["F_CONTIGUOUS"]
                assert not block.flags["C_CONTIGUOUS"]
            # per-vertex columns are the contiguous axis
            assert block[:, 0].flags["C_CONTIGUOUS"]

    def test_blocks_value_identical_to_batched(self, clean_env):
        g = gen.make_family("grid", 64, seed=2)
        sources = np.arange(g.n)
        full = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, 6)
        for lo, hi, block in kernels.sharded_bfs(
            g.indptr, g.indices, g.n, sources, 6, shard_size=9
        ):
            assert exact_equal(block, full[lo:hi])


# ----------------------------------------------------------------------
# Post-processing kernel (the fold-in follow-on)
# ----------------------------------------------------------------------

class TestFoldInEdges:
    def _reference_fold(self, estimates, e, weights=None):
        out = estimates.copy()
        if len(e):
            w = np.ones(len(e)) if weights is None else weights
            np.minimum.at(out, (e[:, 0], e[:, 1]), w)
            np.minimum.at(out, (e[:, 1], e[:, 0]), w)
        np.fill_diagonal(out, 0.0)
        return out

    def test_matches_minimum_at(self, rng, clean_env, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        want = self._reference_fold(est, e)
        got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1])
        assert exact_equal(got, want)

    def test_reference_backend_path(self, rng, clean_env, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        want = self._reference_fold(est, e)
        with kernels.force_backend("reference"):
            got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1])
        assert exact_equal(got, want)

    def test_weighted_fold(self, rng, clean_env, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        w = rng.random(len(e)) * 3.0
        want = self._reference_fold(est, e, w)
        got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1], weights=w)
        assert exact_equal(got, want)

    def test_empty_edges_still_zero_diagonal(self, clean_env):
        est = np.full((4, 4), 9.0)
        got = kernels.fold_in_edges(
            est, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert np.array_equal(np.diag(got), np.zeros(4))
        assert (got[~np.eye(4, dtype=bool)] == 9.0).all()

    def test_in_place_and_returns_same_array(self, clean_env, triangle):
        est = np.full((3, 3), 7.0)
        e = triangle.edges()
        out = kernels.fold_in_edges(est, e[:, 0], e[:, 1])
        assert out is est


# ----------------------------------------------------------------------
# End-to-end: pipelines under force_backend("parallel")
# ----------------------------------------------------------------------

class TestParallelPipelines:
    def test_emulator_build_bit_identical(self, clean_env):
        g = gen.make_family("er_sparse", 70, seed=9)
        from repro.emulator.sampling import sample_hierarchy

        hierarchy = sample_hierarchy(g.n, 2, np.random.default_rng(5))
        want = build_emulator(g, 0.5, 2, hierarchy=hierarchy, method="reference")
        with kernels.force_backend("parallel"):
            got = build_emulator(g, 0.5, 2, hierarchy=hierarchy)
        assert got.emulator.edge_arrays()[0].size == want.emulator.edge_arrays()[0].size
        for a, b in zip(got.emulator.edge_arrays(), want.emulator.edge_arrays()):
            assert np.array_equal(a, b)
        assert got.stats == want.stats

    def test_apsp_near_additive_bit_identical(self, clean_env):
        g = gen.make_family("er_sparse", 60, seed=4)
        with kernels.force_backend("parallel"):
            fast = apsp_near_additive(g, 0.5, r=2, rng=np.random.default_rng(1))
        with kernels.force_backend("reference"):
            slow = apsp_near_additive(g, 0.5, r=2, rng=np.random.default_rng(1))
        assert exact_equal(fast.estimates, slow.estimates)
        assert fast.ledger.total == slow.ledger.total

    def test_bellman_ford_parallel_backend(self, clean_env, small_er):
        wg = small_er.to_weighted()
        want = hop_limited_bellman_ford(wg, [0, 3, 7], 5)
        with kernels.force_backend("parallel"):
            got = hop_limited_bellman_ford(wg, [0, 3, 7], 5)
        assert exact_equal(got, want)

    def test_env_var_routes_whole_pipeline(self, monkeypatch, clean_env):
        # What the CI matrix leg does: REPRO_KERNEL_BACKEND=parallel and
        # an untouched call site.
        monkeypatch.setenv(ENV_BACKEND_VAR, "parallel")
        g = gen.make_family("tree", 50, seed=2)
        got = kernels.batched_bfs(g.indptr, g.indices, g.n, np.arange(g.n), 4)
        want = ref.batched_bfs_reference(g.indptr, g.indices, g.n, np.arange(g.n), 4)
        assert exact_equal(got, want)
