"""E19 — oracle serving throughput: single vs batched queries (DESIGN.md §6).

The variant list and per-variant sizes come from the **variant
registry** (`repro.variants`): every spec declares its `bench_sizes`
(the E19 series it appears in; empty = smoke coverage only), so a newly
registered variant joins the benchmark — and the `--quick` smoke sweeps
*every* registered variant at toy sizes — with no edits here.

For each (variant, n) the benchmark builds the artifact, measures the
query engine's single-query and batched throughput (queries/sec) on
random pairs, and asserts the serving contract: an artifact saved to
disk and loaded back answers the same query batch **bit-identically**
to the freshly built one.

The shipped `bench_sizes` stop the matrix variants at n = 4096 (an
(n, n) float64 snapshot at n = 10^4 is an 800 MB artifact — the TZ
bunch store, at ``O(k n^{1+1/k})`` space, is the variant that scales
there).  Caching is disabled during timing so the numbers measure the
engine, not repeat traffic.

Writes ``benchmarks/results/E19.{txt,json}`` and merges an
``oracle_serving`` key into the repo-root ``BENCH_kernels.json``.
Runnable directly (``python benchmarks/bench_oracle.py``; ``--quick``
for the file-free CI smoke) or through the pytest entry point, which
enforces the acceptance floor: batched >= 10x single-query throughput at
n = 4096.
"""

import json
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from conftest import record_experiment  # noqa: E402
from repro import oracle, variants  # noqa: E402
from repro.analysis import format_table  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

NUM_SINGLE = 2_000
NUM_BATCH = 200_000
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")


def bench_plan(max_n=None):
    """The (variant, n) series, straight from the registry's declarative
    ``bench_sizes``."""
    return [
        (spec.name, n)
        for spec in variants.all_variants()
        for n in spec.bench_sizes
        if max_n is None or n <= max_n
    ]


def _pairs(spec, artifact, count, seed=2020):
    """Random query pairs valid for the artifact's kind (sources-kind
    queries must touch a source)."""
    rng = np.random.default_rng(seed)
    n = artifact.n
    vs = rng.integers(0, n, count).astype(np.int64)
    if spec.kind == "sources":
        sources = np.asarray(artifact.arrays["sources"], dtype=np.int64)
        us = sources[rng.integers(0, sources.size, count)]
    else:
        us = rng.integers(0, n, count).astype(np.int64)
    return us, vs


def bench_variant(variant, n, num_single=NUM_SINGLE, num_batch=NUM_BATCH):
    """Build one artifact, time single vs batched serving, assert the
    save/load replay is bit-identical.  Returns the E19 record."""
    spec = variants.get_variant(variant)
    g = gen.make_family("er_sparse", n, seed=61)
    t0 = time.perf_counter()
    artifact = oracle.build_oracle(
        g, variant=variant, rng=np.random.default_rng(7),
        include_graph=False,
    )
    build_s = time.perf_counter() - t0

    engine = oracle.DistanceOracle(artifact)
    sus, svs = _pairs(spec, artifact, num_single, seed=5)
    t0 = time.perf_counter()
    for u, v in zip(sus.tolist(), svs.tolist()):
        engine.query(u, v)
    single_s = time.perf_counter() - t0

    bus, bvs = _pairs(spec, artifact, num_batch, seed=6)
    engine.query_batch(bus[:16], bvs[:16])  # touch the structures once
    t0 = time.perf_counter()
    batch_values = engine.query_batch(bus, bvs)
    batch_s = time.perf_counter() - t0

    # Serving contract: the persisted artifact replays bit-identically.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        oracle.save_artifact(artifact, path)
        loaded = oracle.DistanceOracle.load(path)
        replay = loaded.query_batch(bus, bvs)
    roundtrip_identical = bool(np.array_equal(batch_values, replay))

    single_qps = num_single / single_s
    batched_qps = num_batch / batch_s
    return {
        "experiment": "oracle_serving",
        "variant": variant,
        "kind": artifact.kind,
        "n": n,
        "build_s": build_s,
        "artifact_mb": round(artifact.nbytes() / 1e6, 3),
        "single_qps": single_qps,
        "batched_qps": batched_qps,
        "batch_speedup": batched_qps / single_qps,
        "roundtrip_identical": roundtrip_identical,
    }


def run(plan=None, num_single=NUM_SINGLE, num_batch=NUM_BATCH):
    if plan is None:
        plan = bench_plan()
    return [
        bench_variant(variant, n, num_single, num_batch)
        for variant, n in plan
    ]


def _result_table(results):
    rows = [
        [
            r["variant"],
            r["n"],
            f"{r['build_s']:.2f}",
            f"{r['artifact_mb']:.2f}",
            f"{r['single_qps']:.0f}",
            f"{r['batched_qps']:.0f}",
            f"{r['batch_speedup']:.0f}x",
            r["roundtrip_identical"],
        ]
        for r in results
    ]
    return format_table(
        ["variant", "n", "build (s)", "artifact (MB)", "single q/s",
         "batched q/s", "batch speedup", "replay identical"],
        rows,
    )


def _update_root_json(results):
    payload = {"benchmark": "kernels_vectorized"}
    if os.path.exists(ROOT_JSON):
        with open(ROOT_JSON) as fh:
            payload = json.load(fh)
    payload["oracle_serving"] = results
    with open(ROOT_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def persist(results):
    table = _result_table(results)
    record_experiment(
        "E19", "oracle serving throughput: single vs batched queries", table,
        payload=results,
    )
    _update_root_json(results)
    return table


def test_oracle_serving_throughput():
    """Acceptance (ISSUE 4): batched oracle queries >= 10x single-query
    throughput at n = 4096, and every persisted artifact replays its
    query batch bit-identically.  The wall-clock floor is load-sensitive,
    so a miss is retried once with a larger sample before failing."""
    results = run(plan=bench_plan(max_n=4096))
    by = {(r["variant"], r["n"]): r for r in results}
    if by[("near-additive", 4096)]["batch_speedup"] < 10.0:
        retry = bench_variant(
            "near-additive", 4096, num_single=4 * NUM_SINGLE,
            num_batch=2 * NUM_BATCH,
        )
        results = [
            retry if (r["variant"], r["n"]) == ("near-additive", 4096) else r
            for r in results
        ]
        by = {(r["variant"], r["n"]): r for r in results}
    persist(results)
    assert all(r["roundtrip_identical"] for r in results)
    assert by[("near-additive", 4096)]["batch_speedup"] >= 10.0


def smoke():
    """File-free quick pass (CI's crash detector for the serving layer):
    every registered variant, toy sizes."""
    plan = [
        (spec.name, n)
        for spec in variants.all_variants()
        for n in (64, 128)
    ]
    results = run(plan=plan, num_single=200, num_batch=5_000)
    print(_result_table(results))
    assert all(r["roundtrip_identical"] for r in results)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        smoke()
    else:
        persist(run())
