"""Serve one artifact through the async front end from a child process.

Imports the program, generates the workload's graph (the load checks the
artifact's graph fingerprint against it), loads the artifact and starts
``start_async_server`` on a free port.  It then prints one JSON line
``{"port", "pid", "load_s", ...}`` and answers commands on stdin, one
per line:

* ``stats`` prints one JSON line: the oracle's ``stats()``, the shard
  workers' ``worker_stats()`` when sharded, and the query-time kernel
  span totals when traced;
* ``settle`` collects garbage and returns the C heap's free pages to
  the system (``malloc_trim``), then prints ``{"trimmed": bool}``: the
  memory read after it is what the server holds, not what the allocator
  kept from freed query buffers;
* ``stop`` (or end of input) drains, shuts down and exits 0.

    python3 perfbench/child_server.py --workload W --artifact DIR --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child_build import KERNEL_ENTRIES  # noqa: E402
from spans import SpanRecorder, instrument, totals_by_name  # noqa: E402
from workloads import GRAPH_FAMILY, GRAPH_SEED, WORKLOADS  # noqa: E402


def settle() -> bool:
    """Collect garbage and trim the C heap; False where libc has no
    ``malloc_trim``."""
    gc.collect()
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--artifact", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    from repro import kernels, oracle
    from repro.graph import generators

    g = generators.make_family(GRAPH_FAMILY, spec.n, seed=GRAPH_SEED)
    t0 = time.perf_counter()
    if spec.shards is not None:
        engine = oracle.ShardedOracle.load(args.artifact, expected_graph=g)
    else:
        engine = oracle.DistanceOracle(
            oracle.load_artifact(args.artifact, expected_graph=g, verify=True)
        )
    load_s = time.perf_counter() - t0

    rec = SpanRecorder()
    undo = None
    if args.trace:
        undo = instrument(
            rec, {f"kernels.serve.{e}": (kernels, e) for e in KERNEL_ENTRIES}
        )
    handle = oracle.start_async_server(engine)
    try:
        print(json.dumps({
            "port": handle.server_address[1],
            "pid": os.getpid(),
            "load_s": load_s,
        }), flush=True)
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stop":
                break
            if cmd == "stats":
                out = {"stats": engine.stats(), "kernels": totals_by_name(rec.spans)}
                if spec.shards is not None:
                    out["workers"] = engine.worker_stats()
                print(json.dumps(out), flush=True)
            if cmd == "settle":
                print(json.dumps({"trimmed": settle()}), flush=True)
    finally:
        # Also closes the mounted oracle (a sharded one stops its workers).
        handle.drain_and_shutdown(timeout=10.0)
        if undo is not None:
            undo()
    return 0


if __name__ == "__main__":
    sys.exit(main())
