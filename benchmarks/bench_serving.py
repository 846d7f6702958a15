"""E20 — the serving front end under concurrency (DESIGN.md §6).

ISSUE 4/E19 measured the *engine* gap: one vectorized ``query_batch``
answers 45–244x more queries per second than a single-query loop.  A
fleet of independent clients cannot exploit that — each sends one
``{"u", "v"}`` at a time — so the serving layer must manufacture the
batches itself.  This benchmark measures that conversion: a matrix
artifact served by the asyncio front end (keep-alive connections +
request coalescing), hammered by ``C`` closed-loop worker threads, each
with its own keep-alive :class:`repro.oracle.OracleClient` and a
deterministic query slice.

Reported per concurrency: sustained q/s, p50/p99 latency and the
coalescer's mean flushed batch size.  The run asserts every served
answer is **bit-identical** to an in-process
``DistanceOracle.query_batch`` over the same queries — coalescing must
not change a single result.  The telemetry on/off comparison rides
along (``--telemetry-compare``).

The recorded E20 table (``benchmarks/results/E20.txt``) predates the
retirement of the thread-per-connection front end and still carries its
rows: they are the measurement that retired it (DESIGN.md §6).

Writes ``benchmarks/results/E20.{txt,json}`` and merges a
``serving_frontend`` key into the repo-root ``BENCH_kernels.json``.
Runnable directly (``python benchmarks/bench_serving.py``; ``--quick``
for the file-free CI smoke) or through the file-free pytest entry
points.
"""

import dataclasses
import json
import os
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from conftest import record_experiment  # noqa: E402
from repro import oracle  # noqa: E402
from repro.analysis import format_table  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

N = 512
CONCURRENCY = (4, 16, 64)
QUERIES_PER_WORKER = 40
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")

#: Admission must never shed load here — the benchmark measures
#: throughput, not the 503 path (that's the chaos suite's job).
_LIMITS = dataclasses.replace(oracle.DEFAULT_LIMITS, max_inflight=4096)


def _build_engine(n=N):
    g = gen.make_family("er_sparse", n, seed=61)
    artifact = oracle.build_oracle(g, variant="exact")
    return oracle.DistanceOracle(artifact)


def _worker_queries(worker, count, n):
    rng = np.random.default_rng(7000 + worker)
    return [(int(u), int(v)) for u, v in rng.integers(0, n, (count, 2))]


def _hammer(base, concurrency, per_worker, n):
    """``concurrency`` closed-loop keep-alive clients, each replaying
    its deterministic slice.  Returns (elapsed_s, latencies_ms, answers)
    with ``answers[(worker, i)] = distance`` for the identity check."""
    barrier = threading.Barrier(concurrency + 1)
    latencies = [[] for _ in range(concurrency)]
    answers = {}
    errors = []

    def work(w):
        queries = _worker_queries(w, per_worker, n)
        with oracle.OracleClient(base, timeout_s=60.0) as client:
            barrier.wait()
            for i, (u, v) in enumerate(queries):
                t0 = time.perf_counter()
                status, body = client.query({"u": u, "v": v})
                latencies[w].append((time.perf_counter() - t0) * 1e3)
                if status != 200:
                    errors.append((w, i, status, body))
                    return
                answers[(w, i)] = body["distance"]

    threads = [
        threading.Thread(target=work, args=(w,)) for w in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise AssertionError(f"non-200 under load: {errors[:3]}")
    return elapsed, [x for per in latencies for x in per], answers


def _in_process(engine, concurrency, per_worker):
    """``answers[(worker, i)]`` from one in-process ``query_batch`` over
    every worker's slice — the reference the served answers must
    equal."""
    keys, us, vs = [], [], []
    for w in range(concurrency):
        for i, (u, v) in enumerate(_worker_queries(w, per_worker, engine.n)):
            keys.append((w, i))
            us.append(u)
            vs.append(v)
    got = engine.query_batch(np.array(us), np.array(vs))
    return {
        k: (float(x) if np.isfinite(x) else None) for k, x in zip(keys, got)
    }


def bench_level(engine, concurrency, per_worker=QUERIES_PER_WORKER):
    """One concurrency level, identity-checked against in-process."""
    handle = oracle.start_async_server(engine, limits=_LIMITS)
    base = "http://%s:%s" % handle.server_address[:2]
    try:
        elapsed, lats, answers = _hammer(
            base, concurrency, per_worker, engine.n
        )
        stats = handle.router.services()[0].coalescer.stats()
    finally:
        handle.drain_and_shutdown()
    return {
        "experiment": "serving_frontend",
        "frontend": "async",
        "concurrency": concurrency,
        "queries": concurrency * per_worker,
        "qps": concurrency * per_worker / elapsed,
        "p50_ms": float(np.percentile(lats, 50)),
        "p99_ms": float(np.percentile(lats, 99)),
        "mean_batch": round(stats["mean_batch"], 2),
        "identical_to_in_process": (
            answers == _in_process(engine, concurrency, per_worker)
        ),
    }


def run(levels=CONCURRENCY, per_worker=QUERIES_PER_WORKER, engine=None):
    engine = engine or _build_engine()
    return [bench_level(engine, c, per_worker) for c in levels]


def _result_table(results):
    rows = [
        [
            r["concurrency"],
            r["queries"],
            f"{r['qps']:.0f}",
            f"{r['p50_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
            f"{r['mean_batch']}",
            r["identical_to_in_process"],
        ]
        for r in results
    ]
    return format_table(
        ["conc", "queries", "q/s", "p50 (ms)", "p99 (ms)", "mean batch",
         "identical"],
        rows,
    )


def _update_root_json(results):
    payload = {}
    if os.path.exists(ROOT_JSON):
        with open(ROOT_JSON) as fh:
            payload = json.load(fh)
    payload["serving_frontend"] = {"results": results}
    with open(ROOT_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def persist(results):
    table = _result_table(results)
    record_experiment(
        "E20", "the serving front end under concurrency",
        table, payload=results,
    )
    _update_root_json(results)
    return table


def test_serving_sweep_identical_and_coalescing():
    """Every served answer equals in-process ``query_batch``, and at
    the top concurrency the coalescer actually batches (mean flushed
    batch > 1) — the mechanism behind the recorded throughput."""
    results = run()
    print(_result_table(results))
    assert all(r["identical_to_in_process"] for r in results)
    assert results[-1]["mean_batch"] > 1.0


def _telemetry_qps(engine, telemetry, concurrency, per_worker, rounds):
    """Best-of-``rounds`` q/s on the async front end with metric
    collection forced on or off (the registry flag is process-global,
    so it is set explicitly per round — server start never disables)."""
    from repro.telemetry import metrics as _metrics

    limits = dataclasses.replace(_LIMITS, telemetry=telemetry)
    best = 0.0
    for _ in range(rounds):
        handle = oracle.start_async_server(engine, limits=limits)
        if telemetry:
            _metrics.enable()
        else:
            _metrics.disable()
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            elapsed, _, _ = _hammer(base, concurrency, per_worker, engine.n)
        finally:
            handle.drain_and_shutdown()
        best = max(best, concurrency * per_worker / elapsed)
    return best


def telemetry_compare(
    concurrency=16, per_worker=30, rounds=3, floor=0.95, engine=None
):
    """ISSUE 9 acceptance: full metric collection costs < 5% q/s.

    Best-of-``rounds`` each way keeps scheduler noise out of the
    comparison; both modes pay the request-trace cost (``X-Request-Id``
    is a feature, not telemetry), so the ratio isolates what the
    histogram/counter updates themselves cost."""
    from repro.telemetry import metrics as _metrics

    was_enabled = _metrics.enabled()
    engine = engine or _build_engine(n=128)
    try:
        qps_off = _telemetry_qps(
            engine, False, concurrency, per_worker, rounds
        )
        qps_on = _telemetry_qps(
            engine, True, concurrency, per_worker, rounds
        )
    finally:
        if was_enabled:
            _metrics.enable()
        else:
            _metrics.disable()
    ratio = qps_on / qps_off
    print(
        f"telemetry on: {qps_on:.0f} q/s  off: {qps_off:.0f} q/s  "
        f"ratio: {ratio:.3f} (floor {floor})"
    )
    return {"qps_on": qps_on, "qps_off": qps_off, "ratio": ratio}


def test_telemetry_overhead_within_bound():
    """Telemetry-on throughput within 5% of telemetry-off (best-of-3;
    wall-clock floors are load-sensitive, so a miss retries once with a
    larger sample)."""
    engine = _build_engine(n=128)
    result = telemetry_compare(engine=engine)
    if result["ratio"] < 0.95:
        result = telemetry_compare(per_worker=60, rounds=4, engine=engine)
    assert result["ratio"] >= 0.95, (
        f"metric collection cost {100 * (1 - result['ratio']):.1f}% q/s "
        f"(bound: 5%)"
    )


def smoke():
    """File-free quick pass (CI's crash detector for the sweep), plus
    the telemetry-overhead comparison at smoke scale."""
    engine = _build_engine(n=128)
    results = run(levels=(8,), per_worker=10, engine=engine)
    print(_result_table(results))
    assert all(r["identical_to_in_process"] for r in results)
    telemetry_compare(concurrency=8, per_worker=10, rounds=2, engine=engine)


if __name__ == "__main__":
    if "--telemetry-compare" in sys.argv[1:]:
        telemetry_compare()
    elif "--quick" in sys.argv[1:]:
        smoke()
    else:
        persist(run())
