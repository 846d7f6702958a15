"""E22 — sharded multi-process oracle serving at giant n (DESIGN.md §10).

ISSUE 10's tentpole pushes the tz oracle past what one address space
serves comfortably: the bunch arc arrays are partitioned by source
vertex range into per-shard files, the build **streams** arcs to disk
shard-at-a-time (peak resident arc memory is one shard plus one
in-flight distance block, not the whole O(n^{1+1/k}) arc set), and a
:class:`repro.oracle.ShardedOracle` routes batched queries by vertex id
to a pool of forked workers, one per shard: each answers the pairs
whose source it owns in one round, mmap'ing its own shard plus the peer
shards it reads ``B(v)`` from.

This benchmark measures exactly the three claims that layout makes:

* **bit identity** — the sharded engine (streamed build, pool *and*
  serial routing, every shard count in the sweep) answers every query
  with the same float64 bits as the single-process
  :class:`~repro.oracle.DistanceOracle`, asserted exhaustively at
  n <= 4096 and by burst digest at the headline n;
* **memory** — at the headline scale the peak RSS of one shard worker
  is < 1/shards of the unsharded load (within 2x), so shards really do
  divide the serving footprint (asserted when n is large enough that
  the interpreter baseline no longer dominates the payload);
* **throughput** — sharded q/s across shard counts 1/2/4 next to the
  unsharded engine's q/s on the same burst.  The q/s >= unsharded
  floor at shards=4 is asserted only on hosts with >= 4 cores — shard
  workers are processes, and on a single core the routing overhead is
  pure cost.

RSS probes run in **fresh subprocesses** (``--probe`` mode): pool
workers fork from the probe's lean interpreter, so a worker's
``ru_maxrss`` measures baseline + the shard pages it touched (its own
and the peers' ``B(v)`` slabs), not pages inherited from a parent that
just built the artifact.  RSS counts a shared file page in every worker
that maps it, so the sharded probe also reports the workers' summed
PSS (``/proc/<pid>/smaps_rollup``), which splits each page across its
mappers — report-only, next to the asserted RSS bound.

Writes ``benchmarks/results/E22.txt``.  Runnable directly (``python
benchmarks/bench_sharded.py``, headline n=100000; ``--n`` to override;
``--quick`` for the file-free CI smoke) or through the pytest entry
point, which enforces the bit-identity acceptance at a CI-feasible n.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from conftest import record_experiment  # noqa: E402
from repro import oracle  # noqa: E402
from repro.analysis import format_table  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

N_FULL = 100_000
R = 2  # k = 3, stretch 5
SHARD_SWEEP = (1, 2, 4)
HEADLINE_SHARDS = 4
IDENTITY_N = 4096  # acceptance: exhaustive identity asserted at n <= 4096
BURST = 50_000
ROUNDS = 3
GRAPH_SEED = 61
PAIR_SEED = 9_001
#: Below this n the ~55 MB interpreter baseline dominates a shard's
#: payload and the 1/shards RSS ratio is unmeasurable — report only.
RSS_ASSERT_MIN_N = 50_000


def _graph(n):
    return gen.make_family("er_sparse", n, seed=GRAPH_SEED)


def _pairs(n, count, seed=PAIR_SEED):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, size=count, dtype=np.int64),
        rng.integers(0, n, size=count, dtype=np.int64),
    )


def _digest(values):
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _burst(engine, us, vs, rounds=ROUNDS):
    """Best-of-``rounds`` q/s for one ``query_batch`` burst; returns
    (qps, values) with ``values`` from the last round."""
    best = None
    values = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        values = engine.query_batch(us, vs)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return us.size / best, values


# -- subprocess probes -----------------------------------------------------
#
# Each probe runs in a fresh interpreter so RSS numbers are clean:
# the unsharded probe's ru_maxrss is baseline + the fully-resident
# merged load; a shard worker's is baseline + its own mapped shard.


def _current_rss_kb():
    """Resident set right now (``/proc/self/statm``), not the peak —
    ``ru_maxrss`` would fold the query burst's transient gather slabs
    into what should be a *load* footprint."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _probe_unsharded(spec):
    art = oracle.load_artifact(spec["path"])
    engine = oracle.DistanceOracle(art)
    engine.query_batch([0], [0])  # materialize lazy structures
    load_rss = _current_rss_kb()
    us, vs = _pairs(engine.n, spec["burst"])
    qps, values = _burst(engine, us, vs, spec["rounds"])
    return {
        "mode": "unsharded",
        "qps": qps,
        "load_rss_kb": load_rss,
        "rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "digest": _digest(values),
        "queries": int(us.size),
    }


def _pss_kb(pid):
    """Proportional set size of ``pid`` in kB, or None where
    ``/proc/<pid>/smaps_rollup`` is unreadable."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _probe_sharded(spec):
    engine = oracle.ShardedOracle.load(spec["path"], pool=True)
    try:
        us, vs = _pairs(engine.n, spec["burst"])
        qps, values = _burst(engine, us, vs, spec["rounds"])
        workers = engine.worker_stats()
        stats = engine.stats()
        pss = [_pss_kb(w["pid"]) for w in workers]
        return {
            "mode": "sharded",
            "shards": int(engine.shards),
            "qps": qps,
            "digest": _digest(values),
            "queries": int(us.size),
            "max_worker_rss_kb": max(
                int(w["maxrss_kb"]) for w in workers
            ),
            "sum_worker_rss_kb": sum(
                int(w["maxrss_kb"]) for w in workers
            ),
            # report-only: each shared page counted once across workers
            "sum_worker_pss_kb": (
                None if None in pss else sum(pss)
            ),
            "workers": [
                {k: w[k] for k in ("shard", "lo", "hi", "queries",
                                   "maxrss_kb")}
                for w in workers
            ],
            "shard_mode": stats["shard_mode"],
            "pool_rebuilds": stats["pool_rebuilds"],
        }
    finally:
        engine.close()


def _probe_resave(spec):
    art = oracle.load_sharded_artifact(spec["src"])
    oracle.save_sharded_artifact(art, spec["dst"], spec["shards"])
    return {"mode": "resave", "dst": spec["dst"], "shards": spec["shards"]}


_PROBES = {
    "unsharded": _probe_unsharded,
    "sharded": _probe_sharded,
    "resave": _probe_resave,
}


def _run_probe(spec):
    """Run one probe in a fresh interpreter; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         json.dumps(spec)],
        capture_output=True, text=True, timeout=3600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"probe {spec['op']} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- identity (the n <= 4096 acceptance) -----------------------------------


def identity_check(n=IDENTITY_N, shard_counts=SHARD_SWEEP, burst=20_000):
    """Streamed sharded builds at every shard count answer bit-identically
    to the in-memory single-process build — pool routing for every count,
    serial routing for the largest."""
    g = _graph(n)
    rng_seed = 0
    reference = oracle.DistanceOracle(
        oracle.build_oracle(
            g, variant="tz", r=R, rng=np.random.default_rng(rng_seed)
        )
    )
    us, vs = _pairs(n, burst)
    expected = reference.query_batch(us, vs)
    out = {"n": n, "shard_counts": list(shard_counts), "queries": burst,
           "identical": True}
    workdir = tempfile.mkdtemp(prefix="e22-identity-")
    try:
        for shards in shard_counts:
            path = os.path.join(workdir, f"tz-s{shards}")
            oracle.build_sharded_oracle(
                g, path, shards=shards, variant="tz", r=R,
                rng=np.random.default_rng(rng_seed),
            )
            modes = [True] if shards != max(shard_counts) else [True, False]
            for pool in modes:
                engine = oracle.ShardedOracle.load(path, pool=pool)
                try:
                    got = engine.query_batch(us, vs)
                finally:
                    engine.close()
                if not np.array_equal(got, expected):
                    out["identical"] = False
                    out["mismatch"] = {"shards": shards, "pool": pool}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


# -- the full experiment ---------------------------------------------------


def run_full(n=N_FULL, shard_sweep=SHARD_SWEEP, burst=BURST,
             rounds=ROUNDS, workdir=None, keep=False):
    owned = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="e22-")
    results = {
        "n": n, "r": R, "k": R + 1, "stretch": 2 * (R + 1) - 1,
        "cpu_count": os.cpu_count(),
        "headline_shards": HEADLINE_SHARDS,
        "burst": burst,
    }
    try:
        g = _graph(n)
        results["m"] = int(g.m)

        headline = os.path.join(workdir, f"tz-s{HEADLINE_SHARDS}")
        print(f"[E22] streaming {HEADLINE_SHARDS}-shard tz build at "
              f"n={n} (m={g.m}) ...", flush=True)
        t0 = time.perf_counter()
        manifest = oracle.build_sharded_oracle(
            g, headline, shards=HEADLINE_SHARDS, variant="tz", r=R,
            rng=np.random.default_rng(0),
        )
        results["build_wall_s"] = time.perf_counter() - t0
        stats = manifest.get("stats", {})
        results["arcs"] = int(stats.get("bunch_edges", 0))
        results["peak_resident_arcs"] = int(
            stats.get("peak_resident_arcs", 0)
        )
        print(f"[E22] build done in {results['build_wall_s']:.1f}s: "
              f"{results['arcs']} arcs, peak resident "
              f"{results['peak_resident_arcs']} "
              f"({100.0 * results['peak_resident_arcs'] / max(1, results['arcs']):.1f}% of total)",
              flush=True)

        print(f"[E22] identity sweep at n={IDENTITY_N} ...", flush=True)
        results["identity"] = identity_check()

        print("[E22] unsharded baseline probe ...", flush=True)
        baseline = _run_probe({
            "op": "unsharded", "path": headline,
            "burst": burst, "rounds": rounds,
        })
        serve = [baseline]

        for shards in shard_sweep:
            if shards == HEADLINE_SHARDS:
                path = headline
            else:
                path = os.path.join(workdir, f"tz-s{shards}")
                print(f"[E22] re-saving layout at shards={shards} ...",
                      flush=True)
                _run_probe({
                    "op": "resave", "src": headline, "dst": path,
                    "shards": shards,
                })
            print(f"[E22] sharded serve probe (shards={shards}) ...",
                  flush=True)
            rec = _run_probe({
                "op": "sharded", "path": path,
                "burst": burst, "rounds": rounds,
            })
            rec["identical_to_unsharded"] = (
                rec["digest"] == baseline["digest"]
            )
            serve.append(rec)
        results["serve"] = serve

        by_shards = {r.get("shards"): r for r in serve
                     if r["mode"] == "sharded"}
        head = by_shards[HEADLINE_SHARDS]
        results["rss_bound"] = {
            "shards": HEADLINE_SHARDS,
            "max_worker_rss_kb": head["max_worker_rss_kb"],
            "sum_worker_pss_kb": head["sum_worker_pss_kb"],
            "unsharded_load_rss_kb": baseline["load_rss_kb"],
            "unsharded_peak_rss_kb": baseline["rss_kb"],
            # worker peak RSS (serving included) relative to the ideal
            # 1/shards slice of the unsharded *load* footprint; the
            # acceptance bound is < 2.0 of that slice.
            "ratio_vs_ideal_slice": (
                head["max_worker_rss_kb"] * HEADLINE_SHARDS
                / baseline["load_rss_kb"]
            ),
            "bound": 2.0,
            "asserted": n >= RSS_ASSERT_MIN_N,
        }
        results["qps_floor"] = {
            "asserted": (os.cpu_count() or 1) >= 4,
            "sharded_qps_at_headline": head["qps"],
            "unsharded_qps": baseline["qps"],
        }
    finally:
        if owned and not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    return results


def check_acceptance(results):
    assert results["identity"]["identical"], results["identity"]
    for rec in results["serve"]:
        if rec["mode"] == "sharded":
            assert rec["identical_to_unsharded"], rec
            assert rec["shard_mode"] == "pool" and rec["pool_rebuilds"] == 0, rec
    bound = results["rss_bound"]
    if bound["asserted"]:
        assert bound["ratio_vs_ideal_slice"] < bound["bound"], bound
    floor = results["qps_floor"]
    if floor["asserted"]:
        assert floor["sharded_qps_at_headline"] >= floor["unsharded_qps"], floor


def _result_table(results):
    rows = []
    for rec in results["serve"]:
        if rec["mode"] == "unsharded":
            rows.append([
                "unsharded", "-", f"{rec['qps']:.0f}",
                f"{rec['load_rss_kb'] / 1024:.0f}", "-", "-", "-",
            ])
        else:
            pss = rec["sum_worker_pss_kb"]
            rows.append([
                "sharded", rec["shards"], f"{rec['qps']:.0f}",
                f"{rec['max_worker_rss_kb'] / 1024:.0f}",
                f"{rec['sum_worker_rss_kb'] / 1024:.0f}",
                "-" if pss is None else f"{pss / 1024:.0f}",
                rec["identical_to_unsharded"],
            ])
    # unsharded row: resident footprint after load; sharded rows: the
    # largest worker's peak RSS (serving included), the pool's RSS
    # total, and the pool's PSS total after the burst.
    return format_table(
        ["mode", "shards", "q/s", "RSS (MB)", "sum RSS (MB)",
         "sum PSS (MB)", "identical"],
        rows,
    )


def _host():
    """The CPUs and RAM this run had (the record names its hardware)."""
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        cpus = os.cpu_count()
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"host: {cpus} x {model}, {ram:.1f} GiB RAM"


def persist(results):
    table = _result_table(results)
    header = (
        f"{_host()}\n"
        f"n={results['n']} m={results['m']} k={results['k']} "
        f"(stretch {results['stretch']})  "
        f"build {results['build_wall_s']:.1f}s  "
        f"arcs {results['arcs']}  "
        f"peak resident {results['peak_resident_arcs']} "
        f"({100.0 * results['peak_resident_arcs'] / max(1, results['arcs']):.1f}%)\n"
        f"identity at n={results['identity']['n']} across shards "
        f"{results['identity']['shard_counts']}: "
        f"{results['identity']['identical']}\n"
    )
    record_experiment(
        "E22", "sharded multi-process oracle serving at giant n",
        header + table,
    )
    bound = results["rss_bound"]
    print(
        f"worker RSS vs ideal 1/{bound['shards']} slice: "
        f"{bound['ratio_vs_ideal_slice']:.2f}x (bound {bound['bound']}x, "
        f"{'asserted' if bound['asserted'] else 'report-only at this n'})"
    )
    if bound["sum_worker_pss_kb"] is not None:
        print(
            f"summed worker PSS at shards={bound['shards']}: "
            f"{bound['sum_worker_pss_kb'] / 1024:.0f} MB (report-only)"
        )
    return table


def test_sharded_bit_identity():
    """Acceptance (ISSUE 10): streamed sharded builds serve bit-identical
    answers to the single-process engine across shard counts 1/2/4, in
    both pool and serial routing (CI-feasible n; the headline-scale
    memory/throughput numbers come from the direct run)."""
    out = identity_check(n=1024, burst=5_000)
    assert out["identical"], out


def smoke():
    """File-free quick pass: identity sweep plus a tiny serve table."""
    out = identity_check(n=384, shard_counts=(1, 2, 4), burst=2_000)
    assert out["identical"], out
    workdir = tempfile.mkdtemp(prefix="e22-smoke-")
    try:
        g = _graph(384)
        path = os.path.join(workdir, "tz-s4")
        oracle.build_sharded_oracle(
            g, path, shards=4, variant="tz", r=R,
            rng=np.random.default_rng(0),
        )
        rec = _probe_sharded({"path": path, "burst": 2_000, "rounds": 2})
        print(format_table(
            ["shards", "q/s", "mode", "identical sweep"],
            [[rec["shards"], f"{rec['qps']:.0f}", rec["shard_mode"],
              out["identical"]]],
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("E22 smoke passed: sharded == single-process at every "
          "shard count")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--n", type=int, default=N_FULL)
    parser.add_argument("--burst", type=int, default=BURST)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        spec = json.loads(args.probe)
        print(json.dumps(_PROBES[spec["op"]](spec)))
    elif args.quick:
        smoke()
    else:
        results = run_full(n=args.n, burst=args.burst)
        persist(results)
        check_acceptance(results)
        print("E22 acceptance checks passed")
