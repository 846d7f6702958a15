"""E21 — the load-harness sweep: every workload profile.

E20 measured one workload shape (uniform closed-loop singles).  The
load harness (:mod:`repro.loadgen`, DESIGN.md §8) makes the rest of the
serving claims measurable; this benchmark records every profile over
one ``exact`` artifact (plus the ``multi_tenant`` profile's own
three-variant mount set):

* ``uniform_random`` / ``zipf_hotspot`` — closed-loop singles, uniform
  and over a Zipf-hot vertex set;
* ``batch_single_mix`` — mixed explicit batches + singles
  (``query_qps`` counts member pairs, so the engine-level rate is
  visible next to the HTTP request rate);
* ``multi_tenant`` — the same driver fanned over three mounted
  variants through ``POST /query/<name>`` routing;
* ``burst`` — open-loop simultaneous arrival packets, the shape that
  would stress admission control (headroom limits here: this
  experiment measures throughput; the 503 path is the chaos suite's
  job, ``tests/test_loadgen.py::TestChaosAccounting``).

Every run asserts zero failures and bit-identical per-query answers:
the served run's ordered-answers digest must equal an in-process
``query_batch`` replay (:func:`repro.loadgen.replay_digest`).  The
recorded E21 table predates the retirement of the thread-per-connection
front end and still carries its rows.  Writes ``benchmarks/results/E21.{txt,json}``
and merges a ``loadgen`` key into the repo-root ``BENCH_kernels.json``.
Runnable directly (``python benchmarks/bench_loadgen.py``; ``--quick``
for the file-free CI smoke) or through the pytest entry point.
"""

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from conftest import record_experiment  # noqa: E402
from repro import loadgen, oracle  # noqa: E402
from repro.analysis import format_table  # noqa: E402

SEED = 61
ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")

#: Admission must never shed load here — the benchmark measures
#: throughput, not the 503 path (that's the chaos suite's job).
_LIMITS = dataclasses.replace(oracle.DEFAULT_LIMITS, max_inflight=4096)


def run(quick=False):
    """The full sweep: every registered profile."""
    knobs = loadgen.QUICK if quick else loadgen.DEFAULTS
    results = []
    for name in loadgen.profile_names():
        oracles = loadgen.build_tenants(
            name, family=knobs["family"], n=knobs["n"],
            variant=knobs["variant"], seed=SEED,
        )
        r = loadgen.run(
            name, oracles=oracles, seed=SEED, limits=_LIMITS, quick=quick,
        )
        assert r["failures"]["total"] == 0, (
            f"profile {name}: {r['failures']['by_status']}"
        )
        assert r["answers_digest"] == loadgen.replay_digest(
            name, oracles, requests=r["requests"], seed=SEED,
            params=r["params"],
        ), f"profile {name}: served answers differ from in-process"
        results.append(r)
    return results


def _result_table(results):
    rows = []
    for r in results:
        lat = r["latency_ms"]
        coalescing = r["server"].get("coalescing")
        rows.append([
            r["profile"], r["driver"], r["requests"],
            f"{r['qps']:.0f}", f"{r['query_qps']:.0f}",
            f"{lat['p50']:.2f}", f"{lat['p95']:.2f}", f"{lat['p99']:.2f}",
            f"{lat['max']:.2f}",
            f"{coalescing['mean_batch']:.1f}" if coalescing else "-",
            f"{r['failures']['rate']:.3f}",
        ])
    return format_table(
        ["profile", "driver", "req", "q/s", "query q/s",
         "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)", "mean batch",
         "fail rate"],
        rows,
    )


def _update_root_json(results):
    payload = {}
    if os.path.exists(ROOT_JSON):
        with open(ROOT_JSON) as fh:
            payload = json.load(fh)
    payload["loadgen"] = {
        "seed": SEED,
        "profiles": sorted({r["profile"] for r in results}),
        "results": results,
    }
    with open(ROOT_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def persist(results):
    table = _result_table(results)
    record_experiment(
        "E21", "load harness: workload profiles",
        table, payload=results,
    )
    _update_root_json(results)
    return table


def test_loadgen_sweep():
    """Acceptance: every profile runs clean with answers bit-identical
    to an in-process replay (file-free; ``python
    benchmarks/bench_loadgen.py`` records E21)."""
    print(_result_table(run()))


def smoke():
    """File-free quick pass (CI's crash detector for the sweep)."""
    results = run(quick=True)
    print(_result_table(results))


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        smoke()
    else:
        persist(run())
