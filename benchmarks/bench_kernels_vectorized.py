"""E16/E17/E18 — old-vs-new kernel and construction layers (DESIGN.md §2/§5).

E16: wall-clock speedup of the vectorized CSR kernels over the reference
Python-loop implementations at n ∈ {256, 512, 1024}.

E17: wall-clock speedup of the batched emulator construction (level-
bucketed sharded BFS + bulk edge insertion) over the per-vertex-BFS
construction loop at n ∈ {256, 1024, 4096}, plus a batched-only
n = 10^4 data point that the per-vertex path cannot reach in comparable
time (the sharded build keeps memory at O(shard · n)).

E18: the backend matrix on sparse min-plus — reference vs csr at
n ∈ {256, 1024, 4096}; recorded by direct runs only (no pytest floor).

Writes the structured numbers both to ``benchmarks/results/E1[67].json``
(via :func:`conftest.record_experiment`'s JSON mode) and to the repo-root
``BENCH_kernels.json`` — the perf-trajectory file CI tracks across
commits.  Runnable directly (``python benchmarks/bench_kernels_vectorized.py``)
or through pytest; ``--quick`` runs a file-free smoke pass at small sizes
(what CI uses to catch kernel-layer crashes fast).
"""

import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from conftest import record_experiment  # noqa: E402
from repro import kernels  # noqa: E402
from repro.analysis import format_table  # noqa: E402
from repro.emulator import build_emulator  # noqa: E402
from repro.emulator.sampling import sample_hierarchy  # noqa: E402
from repro.graph import generators as gen  # noqa: E402
from repro.kernels import reference as ref  # noqa: E402
from repro.toolkit import kd_nearest_bfs  # noqa: E402

SIZES = (256, 512, 1024)
EMULATOR_SIZES = (256, 1024, 4096)
EMULATOR_SHARDED_ONLY = 10_000
BACKEND_SIZES = (256, 1024, 4096)
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")


def best_of(fn, repeats=3):
    """Best wall-clock of ``repeats`` runs (min filters scheduler noise)."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sparse_minplus_case(n, rng):
    """Random min-plus operands at the paper's engineered density
    rho ~ n^{1/4} finite entries per row."""
    rho = n ** 0.25
    m = rng.integers(1, 50, (n, n)).astype(float)
    m[rng.random((n, n)) > rho / n] = np.inf
    return m


def run(repeats=3, sizes=SIZES):
    rng = np.random.default_rng(2020)
    results = []

    for n in sizes:
        s = sparse_minplus_case(n, rng)
        new_t = best_of(lambda: kernels.minplus_csr(s, s), repeats)
        old_t = best_of(lambda: ref.minplus_reference(s, s), repeats)
        results.append(
            {
                "kernel": "sparse_minplus",
                "n": n,
                "rho_per_row": round(float(np.isfinite(s).sum() / n), 2),
                "reference_s": old_t,
                "vectorized_s": new_t,
                "speedup": old_t / new_t,
            }
        )

    for n in sizes:
        g = gen.make_family("er_sparse", n, seed=61)
        k, d = max(8, math.ceil(n ** 0.25)), 8
        new_t = best_of(lambda: kd_nearest_bfs(g, k, d), repeats)

        def old_kd():
            with kernels.force_backend("reference"):
                kd_nearest_bfs(g, k, d)

        old_t = best_of(old_kd, repeats)
        results.append(
            {
                "kernel": "kd_nearest",
                "n": n,
                "k": k,
                "d": d,
                "reference_s": old_t,
                "vectorized_s": new_t,
                "speedup": old_t / new_t,
            }
        )

    for n in sizes:
        g = gen.make_family("er_sparse", n, seed=61)
        args = (g.indptr, g.indices, g.n, [0])
        new_t = best_of(lambda: kernels.multi_source_bfs(*args), repeats)
        old_t = best_of(lambda: ref.multi_source_bfs_reference(*args), repeats)
        results.append(
            {
                "kernel": "multi_source_bfs",
                "n": n,
                "reference_s": old_t,
                "vectorized_s": new_t,
                "speedup": old_t / new_t,
            }
        )

    for n in sizes:
        m = rng.integers(0, 100, (n, n)).astype(float)
        rho = max(8, math.ceil(n ** 0.25))
        new_t = best_of(lambda: kernels.filter_rows(m, rho), repeats)
        old_t = best_of(lambda: ref.filter_rows_reference(m, rho), repeats)
        results.append(
            {
                "kernel": "filter_rows",
                "n": n,
                "rho": rho,
                "reference_s": old_t,
                "vectorized_s": new_t,
                "speedup": old_t / new_t,
            }
        )

    return results


def run_emulator(repeats=3, sizes=EMULATOR_SIZES, sharded_only=EMULATOR_SHARDED_ONLY):
    """E17: per-vertex-BFS construction loop vs the batched pipeline on
    the same pre-sampled hierarchy (so both build identical emulators)."""
    results = []
    for n in sizes:
        g = gen.make_family("er_sparse", n, seed=61)
        r = 3
        hierarchy = sample_hierarchy(g.n, r, np.random.default_rng(7))
        kwargs = dict(hierarchy=hierarchy)
        new_t = best_of(
            lambda: build_emulator(g, 0.5, r, method="batched", **kwargs), repeats
        )
        old_t = best_of(
            lambda: build_emulator(g, 0.5, r, method="reference", **kwargs),
            max(1, repeats - 2) if n >= 4096 else repeats,
        )
        results.append(
            {
                "kernel": "build_emulator",
                "n": n,
                "r": r,
                "reference_s": old_t,
                "vectorized_s": new_t,
                "speedup": old_t / new_t,
            }
        )
    if sharded_only:
        # The sharded-BFS scale point: the per-vertex loop is not timed
        # here (it needs tens of seconds of one-BFS-per-vertex work, and
        # an unsharded batched matrix would be an (n, n) float block).
        n = sharded_only
        g = gen.make_family("er_sparse", n, seed=61)
        new_t = best_of(
            lambda: build_emulator(
                g, 0.5, 3, rng=np.random.default_rng(7), method="batched"
            ),
            1,
        )
        results.append(
            {
                "kernel": "build_emulator",
                "n": n,
                "r": 3,
                "reference_s": None,
                "vectorized_s": new_t,
                "speedup": None,
            }
        )
    return results


def run_backend_matrix(repeats=3, sizes=BACKEND_SIZES):
    """E18: sparse min-plus on the reference and csr backends on
    identical operands; the per-row fidelity tests already prove the
    outputs bit-identical, so only wall clock is recorded."""
    rng = np.random.default_rng(2021)
    results = []
    for n in sizes:
        s = sparse_minplus_case(n, rng)
        ref_t = best_of(lambda: ref.minplus_reference(s, s), repeats)
        csr_t = best_of(lambda: kernels.minplus_csr(s, s), repeats)
        results.append(
            {
                "kernel": "sparse_minplus",
                "n": n,
                "rho_per_row": round(float(np.isfinite(s).sum() / n), 2),
                "reference_s": ref_t,
                "csr_s": csr_t,
                "csr_vs_reference": ref_t / csr_t,
            }
        )
    return results


def _fmt_ms(value):
    return "-" if value is None else f"{value * 1e3:.2f}"


def _result_table(results):
    rows = [
        [
            r["kernel"],
            r["n"],
            _fmt_ms(r["reference_s"]),
            _fmt_ms(r["vectorized_s"]),
            "-" if r["speedup"] is None else f"{r['speedup']:.1f}x",
        ]
        for r in results
    ]
    return format_table(
        ["kernel", "n", "reference (ms)", "vectorized (ms)", "speedup"], rows
    )


def _update_root_json(key, results):
    """Merge one experiment's payload into the repo-root trajectory file."""
    payload = {"benchmark": "kernels_vectorized"}
    if os.path.exists(ROOT_JSON):
        with open(ROOT_JSON) as fh:
            payload = json.load(fh)
    payload[key] = results
    with open(ROOT_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def persist(results):
    table = _result_table(results)
    record_experiment(
        "E16", "vectorized kernel layer vs reference loops", table,
        payload=results,
    )
    _update_root_json("results", results)
    return table


def persist_emulator(results):
    table = _result_table(results)
    record_experiment(
        "E17", "batched emulator construction vs per-vertex BFS loop", table,
        payload=results,
    )
    _update_root_json("emulator_construction", results)
    return table


def _backend_table(results):
    rows = [
        [
            r["n"],
            _fmt_ms(r["reference_s"]),
            _fmt_ms(r["csr_s"]),
            f"{r['csr_vs_reference']:.1f}x",
        ]
        for r in results
    ]
    return format_table(
        ["n", "reference (ms)", "csr (ms)", "csr vs reference"], rows
    )


def persist_backends(results):
    table = _backend_table(results)
    record_experiment(
        "E18", "min-plus backend matrix: reference vs csr", table,
        payload=results,
    )
    _update_root_json("backend_matrix", results)
    return table


def test_vectorized_kernels_speedup():
    """Acceptance floor: >= 5x on sparse min-plus at n=512 (density
    ~ n^0.25) and >= 3x on (k, d)-nearest at n=1024.

    Wall-clock floors are load-sensitive, so a run that misses them is
    retried once with more repetitions before failing.
    """
    def floors_met(by):
        return by[("sparse_minplus", 512)] >= 5.0 and by[("kd_nearest", 1024)] >= 3.0

    results = run()
    by = {(r["kernel"], r["n"]): r["speedup"] for r in results}
    if not floors_met(by):
        results = run(repeats=7)
        by = {(r["kernel"], r["n"]): r["speedup"] for r in results}
    persist(results)
    assert by[("sparse_minplus", 512)] >= 5.0
    assert by[("kd_nearest", 1024)] >= 3.0


def test_emulator_construction_speedup():
    """Acceptance floor (ISSUE 2): >= 5x on build_emulator at n=1024 and
    a successful batched n=10^4 sharded-BFS build; retried with more
    repetitions when the load-sensitive wall clock misses."""
    results = run_emulator()
    by = {r["n"]: r["speedup"] for r in results}
    if by[1024] < 5.0:
        # Only the n=1024 floor is load-sensitive; re-measure just it
        # rather than repeating the n=4096 and n=10^4 builds.
        retry = run_emulator(repeats=7, sizes=(1024,), sharded_only=None)
        results = [retry[0] if r["n"] == 1024 else r for r in results]
        by = {r["n"]: r["speedup"] for r in results}
    persist_emulator(results)
    assert by[1024] >= 5.0
    assert any(r["n"] == EMULATOR_SHARDED_ONLY and r["vectorized_s"] for r in results)


def smoke():
    """File-free quick pass (CI's crash detector for the kernel layer)."""
    kernel_results = run(repeats=1, sizes=(64, 128))
    emu_results = run_emulator(repeats=1, sizes=(64, 128), sharded_only=None)
    backend_results = run_backend_matrix(repeats=1, sizes=(64, 128))
    print(_result_table(kernel_results))
    print(_result_table(emu_results))
    print(_backend_table(backend_results))


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        smoke()
    else:
        persist(run())
        persist_emulator(run_emulator())
        persist_backends(run_backend_matrix())
