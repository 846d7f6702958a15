"""Answer the served pairs in process: the reference the server must match.

Run by ``run.py`` as a child after traffic, so any fork pool the kernels
start dies with it.  Loads the artifact into a plain ``DistanceOracle``
(a sharded layout is merged first, which is bit-identical), answers
every pair in ``--pairs`` with ``query_batch``, times ``query_batch`` on
the batch-phase pairs alone (repeated for at least half a second; the
median is reported), and computes exact BFS distances for the audited
sources.  Writes ``--result`` (npz) and ``--result``.json.

    python3 perfbench/child_reference.py --workload W --artifact DIR --pairs IN.npz --result OUT.npz
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import GRAPH_FAMILY, GRAPH_SEED, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--artifact", required=True)
    ap.add_argument("--pairs", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    import numpy as np

    from repro import kernels, oracle
    from repro.graph import generators
    from repro.graph.distances import bfs_distances

    g = generators.make_family(GRAPH_FAMILY, spec.n, seed=GRAPH_SEED)
    if spec.shards is not None:
        artifact = oracle.load_sharded_artifact(args.artifact, expected_graph=g)
    else:
        artifact = oracle.load_artifact(args.artifact, expected_graph=g)
    engine = oracle.DistanceOracle(artifact)

    data = np.load(args.pairs)
    us, vs = data["us"], data["vs"]
    bu, bv = data["batch_us"], data["batch_vs"]
    ref = engine.query_batch(us, vs)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < 0.5:
        t0 = time.perf_counter()
        engine.query_batch(bu, bv)
        times.append(time.perf_counter() - t0)
    exact = np.stack([bfs_distances(g, int(s)) for s in data["audit_sources"]])
    kernels.shutdown_pool()

    np.savez(args.result, ref=ref, exact=exact)
    with open(args.result + ".json", "w") as fh:
        json.dump({"engine_batch_s": statistics.median(times),
                   "engine_batch_pairs": int(bu.size)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
