"""Wall-clock floors of the kernel, build and serving layers.

Each test times only the pair of runs its floor compares and asserts
the ratio; nothing is printed to a table or written to a file (the
repo's performance record is ``perfbench``, see ``BENCHMARK.json``).
Answers are bit-identical across the compared paths; the tier-1 suite
asserts that (``tests/test_kernels.py``, ``tests/test_distances.py``,
``tests/test_batched_construction.py``, ``tests/test_variants.py``).

Wall clock is load-sensitive, so a run that misses its floor is
measured once more with a larger sample before the test fails.  The
floors stay out of tier-1 for the same reason; run them with::

    python -m pytest benchmarks/floors.py -q
"""

import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import kernels, oracle  # noqa: E402
from repro.apsp import near_additive  # noqa: E402
from repro.emulator import build_emulator  # noqa: E402
from repro.emulator.sampling import sample_hierarchy  # noqa: E402
from repro.graph import generators as gen  # noqa: E402
from repro.graph.distances import (  # noqa: E402
    hop_limited_bellman_ford,
    weighted_all_pairs,
)
from repro.kernels import reference as ref  # noqa: E402
from repro.toolkit import hopsets, kd_nearest_bfs  # noqa: E402


def wall(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speedup(reference, fast, repeats):
    """Best of ``repeats`` reference runs over best of ``repeats`` fast
    runs (min filters scheduler noise).  The two sides alternate run by
    run, so a load spike cannot land on one side only."""
    best_reference = best_fast = math.inf
    for _ in range(repeats):
        best_reference = min(best_reference, wall(reference))
        best_fast = min(best_fast, wall(fast))
    return best_reference / best_fast


def with_retry(measure, floor):
    """``measure(retry=False)``, re-measured once with ``retry=True``
    when it misses ``floor``; returns the last measurement."""
    value = measure(retry=False)
    if value < floor:
        value = measure(retry=True)
    return value


def _graph(n):
    return gen.make_family("er_sparse", n, seed=61)


# -- kernels ---------------------------------------------------------------


def test_sparse_minplus_at_least_5x_reference():
    """csr min-plus >= 5x the Python-loop reference at n = 512, on
    operands with ~n^{1/4} finite entries per row (the paper's
    engineered density)."""
    n = 512
    rng = np.random.default_rng(2020)
    s = rng.integers(1, 50, (n, n)).astype(float)
    s[rng.random((n, n)) > n ** 0.25 / n] = np.inf

    def measure(retry):
        return speedup(
            lambda: ref.minplus_reference(s, s),
            lambda: kernels.minplus_csr(s, s),
            7 if retry else 3,
        )

    ratio = with_retry(measure, 5.0)
    assert ratio >= 5.0, f"sparse min-plus speedup {ratio:.1f}x < 5x"


def test_kd_nearest_at_least_3x_reference():
    """``kd_nearest_bfs`` >= 3x itself under ``force_backend("reference")``
    at n = 1024."""
    g = _graph(1024)
    k, d = max(8, math.ceil(1024 ** 0.25)), 8

    def reference():
        with kernels.force_backend("reference"):
            kd_nearest_bfs(g, k, d)

    def measure(retry):
        return speedup(
            reference, lambda: kd_nearest_bfs(g, k, d), 7 if retry else 3
        )

    ratio = with_retry(measure, 3.0)
    assert ratio >= 3.0, f"(k, d)-nearest speedup {ratio:.1f}x < 3x"


def test_source_detection_at_least_5x_relax():
    """``hop_limited_bellman_ford`` >= 5x the relax kernel from the same
    seeds on the first hopset-level union of a near-additive build at
    n = 1500, where no row's distances reach the hop bound."""
    calls = []
    detect = hopsets.source_detection

    def capture(union, sources, d, **kwargs):
        calls.append((union, list(sources), d))
        return detect(union, sources, d, **kwargs)

    hopsets.source_detection = capture
    try:
        oracle.build_oracle(
            _graph(1500), variant="near-additive",
            rng=np.random.default_rng(7), include_graph=False,
        )
    finally:
        hopsets.source_detection = detect
    union, sources, d = calls[0]
    us, vs, ws = union.edge_arrays()
    seeds = np.full((len(sources), union.n), np.inf)
    seeds[np.arange(len(sources)), sources] = 0.0
    arcs = (np.concatenate([us, vs]), np.concatenate([vs, us]),
            np.concatenate([ws, ws]))

    def relax():
        return kernels.hop_limited_relax(seeds, *arcs, d)

    def detection():
        return hop_limited_bellman_ford(union, sources, d)

    assert np.array_equal(detection(), relax())

    def measure(retry):
        return speedup(relax, detection, 7 if retry else 3)

    ratio = with_retry(measure, 5.0)
    assert ratio >= 5.0, f"source detection speedup {ratio:.1f}x < 5x"


def test_emulator_apsp_at_least_3x_dijkstra():
    """``weighted_all_pairs`` >= 3x scipy's Dijkstra on the whole graph
    (the same call under ``force_backend("reference")``) on the emulator
    of a near-additive build at n = 3000, a small 2-core with trees
    hanging off it."""
    calls = []
    labels = near_additive.hanging_tree_labels

    def capture(emulator):
        calls.append(emulator)
        return labels(emulator)

    near_additive.hanging_tree_labels = capture
    try:
        oracle.build_oracle(
            _graph(3000), variant="near-additive",
            rng=np.random.default_rng(7), include_graph=False,
        )
    finally:
        near_additive.hanging_tree_labels = labels
    (emulator,) = calls

    def dijkstra():
        with kernels.force_backend("reference"):
            return weighted_all_pairs(emulator)

    def peeled():
        return weighted_all_pairs(emulator)

    assert np.array_equal(peeled(), dijkstra())

    def measure(retry):
        return speedup(dijkstra, peeled, 7 if retry else 3)

    ratio = with_retry(measure, 3.0)
    assert ratio >= 3.0, f"emulator all-pairs speedup {ratio:.1f}x < 3x"


# -- build -----------------------------------------------------------------


def test_batched_emulator_build_at_least_5x_reference():
    """The batched emulator build >= 5x the per-vertex-BFS build (the
    same call under ``force_backend("reference")``) at n = 1024, both on
    the same pre-sampled hierarchy."""
    g = _graph(1024)
    hierarchy = sample_hierarchy(g.n, 3, np.random.default_rng(7))

    def batched():
        build_emulator(g, 0.5, 3, hierarchy=hierarchy)

    def reference():
        with kernels.force_backend("reference"):
            batched()

    def measure(retry):
        return speedup(reference, batched, 7 if retry else 3)

    ratio = with_retry(measure, 5.0)
    assert ratio >= 5.0, f"batched emulator speedup {ratio:.1f}x < 5x"


def test_batched_emulator_build_completes_at_n_10k():
    """The sharded-BFS build reaches n = 10^4 (the per-vertex loop and an
    unsharded (n, n) block are not run here)."""
    g = _graph(10_000)
    emulator = build_emulator(g, 0.5, 3, rng=np.random.default_rng(7))
    assert emulator.num_edges > 0


# -- serving ---------------------------------------------------------------


def test_batched_queries_at_least_10x_single_queries():
    """A near-additive oracle at n = 4096 answers one ``query_batch`` at
    >= 10x the q/s of a single-query loop."""
    artifact = oracle.build_oracle(
        _graph(4096), variant="near-additive",
        rng=np.random.default_rng(7), include_graph=False,
    )
    engine = oracle.DistanceOracle(artifact)
    rng = np.random.default_rng(2020)

    def measure(retry):
        num_single, num_batch = (8_000, 400_000) if retry else (2_000, 200_000)
        us, vs = rng.integers(0, artifact.n, (2, num_single)).tolist()
        t0 = time.perf_counter()
        for u, v in zip(us, vs):
            engine.query(u, v)
        single_qps = num_single / (time.perf_counter() - t0)
        bus, bvs = rng.integers(0, artifact.n, (2, num_batch))
        engine.query_batch(bus[:16], bvs[:16])  # touch the structures once
        t0 = time.perf_counter()
        engine.query_batch(bus, bvs)
        batched_qps = num_batch / (time.perf_counter() - t0)
        return batched_qps / single_qps

    ratio = with_retry(measure, 10.0)
    assert ratio >= 10.0, f"batched vs single q/s {ratio:.1f}x < 10x"
