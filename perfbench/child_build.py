"""Build one workload's artifact in a fresh process and report on it.

Run by ``run.py`` as a child so that the process's peak RSS covers only
imports, graph generation and the build.  The build (and save) runs
``--reps`` times, each bracketed by calibration windows run in this
process (a build runs on one CPU at a time, so this process's CPU is
the one to calibrate); the last artifact stays at ``--out``.  With ``--trace 1`` the calls into the kernel layer, the TZ
arc generator, the build and the save are recorded as spans.  Writes one
JSON result to ``--result``.

    python3 perfbench/child_build.py --workload W --out DIR --result FILE --reps 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibration import Bracket, calibrate  # noqa: E402
from spans import SpanRecorder, instrument, totals_by_name  # noqa: E402
from workloads import BUILD_SEED, GRAPH_FAMILY, GRAPH_SEED, WORKLOADS  # noqa: E402

#: The kernel layer's public entry points, timed in traced runs.
KERNEL_ENTRIES = (
    "batched_bfs",
    "filter_rows",
    "fold_in_edges",
    "hop_limited_relax",
    "masked_row_argmin",
    "minplus",
    "multi_source_bfs",
    "sharded_bfs",
)


def kernel_targets(kernels_mod, parallel_mod) -> dict:
    targets = {f"kernels.{e}": (kernels_mod, e) for e in KERNEL_ENTRIES}
    # One call per shard map onto the fork pool: a pool launch.
    targets["kernels.pool_map"] = (parallel_mod, "_map_on_pool")
    return targets


def count_promotions(parallel_mod, counts: dict):
    """Count what the ``auto`` dispatch rule picked; returns the undo."""
    orig = parallel_mod.maybe_promote

    def counted(resolved, cells):
        out = orig(resolved, cells)
        if resolved == "auto":
            counts[out] = counts.get(out, 0) + 1
        return out

    parallel_mod.maybe_promote = counted
    return lambda: setattr(parallel_mod, "maybe_promote", orig)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    import numpy as np

    from repro import kernels, oracle
    from repro.graph import generators
    from repro.kernels import parallel

    t0 = time.perf_counter()
    g = generators.make_family(GRAPH_FAMILY, spec.n, seed=GRAPH_SEED)
    graph_s = time.perf_counter() - t0

    rec = SpanRecorder()
    promotions: dict = {}
    undo = []
    if args.trace:
        undo.append(instrument(rec, kernel_targets(kernels, parallel)))
        from repro.emulator import thorup_zwick

        undo.append(instrument(
            rec, {"tz.arc_blocks": (thorup_zwick, "iter_tz_bunch_arc_blocks")}
        ))
        undo.append(count_promotions(parallel, promotions))

    builds = []
    cal_after = calibrate()
    for _ in range(args.reps):
        shutil.rmtree(args.out, ignore_errors=True)
        rng = np.random.default_rng(BUILD_SEED)
        t0 = time.perf_counter()
        if spec.shards is not None:
            with rec.span("sharded.build"):
                manifest = oracle.build_sharded_oracle(
                    g, args.out, shards=spec.shards, variant=spec.variant, rng=rng,
                )
        else:
            with rec.span("build_oracle"):
                artifact = oracle.build_oracle(
                    g, variant=spec.variant, rng=rng, profile=bool(args.trace),
                )
            with rec.span("artifact.save"):
                oracle.save_artifact(artifact, args.out)
            manifest = artifact.manifest
        raw_s = time.perf_counter() - t0
        cal_before, cal_after = cal_after, calibrate()
        builds.append(Bracket(raw_s, cal_before, cal_after).record())
    for u in reversed(undo):
        u()
    # Stop the fork pool here so its workers and shared memory are gone
    # before this process reports.
    kernels.shutdown_pool()

    result = {
        "builds": builds,
        "graph_s": graph_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds_total": manifest.get("rounds_total"),
        "rounds_breakdown": manifest.get("rounds_breakdown") or {},
        "build_profile": manifest.get("build_profile") or {},
        "stats": manifest.get("stats") or {},
        "multiplicative": manifest["multiplicative"],
        "additive": manifest["additive"],
        "spans": totals_by_name(rec.spans),
        "auto_dispatch": promotions,
    }
    if args.spans and args.trace:
        rec.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
