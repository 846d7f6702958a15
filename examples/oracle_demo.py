"""Serving-layer demo: preprocess once, answer queries forever.

Builds two oracle artifacts over the same social-network-style workload
— a near-additive APSP estimate matrix (Thm 32) and a classic
Thorup–Zwick bunch store (Appendix A) — saves them to disk, loads them
back, and serves single, batched, certified, and path queries from the
loaded snapshots.  The point: the expensive Dory–Parter preprocessing is
paid once; every query afterwards is a cheap lookup/combine, and a
loaded artifact answers bit-identically to the freshly built one.

Run: ``PYTHONPATH=src python examples/oracle_demo.py``
"""

import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import oracle  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.distances import all_pairs_distances  # noqa: E402

N = 300
NUM_QUERIES = 2000

g = generators.make_family("er_sparse", N, seed=42)
exact = all_pairs_distances(g)
rng = np.random.default_rng(7)
us, vs = rng.integers(0, g.n, NUM_QUERIES), rng.integers(0, g.n, NUM_QUERIES)

print(f"workload: er_sparse n={g.n} m={g.m}, {NUM_QUERIES} random queries\n")

with tempfile.TemporaryDirectory() as tmp:
    for variant in ("near-additive", "tz"):
        # Parameters come from the variant's registered schema defaults
        # (eps = 0.5 for near-additive; tz takes only r).
        artifact = oracle.build_oracle(
            g, variant=variant, rng=np.random.default_rng(1)
        )
        path = os.path.join(tmp, variant)
        oracle.save_artifact(artifact, path)

        built = oracle.DistanceOracle(artifact)
        loaded = oracle.DistanceOracle.load(path, expected_graph=g)
        fresh = built.query_batch(us, vs)
        replay = loaded.query_batch(us, vs)
        assert np.array_equal(fresh, replay), "loaded artifact diverged!"

        report = loaded.stretch_report(us, vs, exact[us, vs])
        cert = loaded.certificate(int(us[0]), int(vs[0]))
        walk = loaded.path(int(us[0]), int(vs[0]))
        size_mb = artifact.nbytes() / 1e6
        print(
            f"[{variant}] kind={artifact.kind} payload={size_mb:.2f} MB "
            f"guarantee=({artifact.multiplicative:g}, {artifact.additive:g})"
        )
        print(
            f"  loaded replay bit-identical over {NUM_QUERIES} queries; "
            f"measured stretch max={report.max_ratio:.3f} "
            f"mean={report.mean_ratio:.3f} (sound={report.sound})"
        )
        print(
            f"  sample certificate: {cert.lower_bound:.2f} <= "
            f"d({cert.u},{cert.v}) <= {cert.upper_bound:.2f} "
            f"(witness={cert.witness}); path hops="
            f"{None if walk is None else len(walk) - 1}"
        )
        # A single query is a one-pair batch: same answer, bit for bit.
        single = loaded.query(int(us[1]), int(vs[1]))
        assert single == replay[1]
        print(f"  engine stats after replay: {loaded.stats()}\n")

print(
    "Takeaway: one preprocessing pass becomes a reusable on-disk artifact; "
    "queries are answered from the snapshot (batched, certified, "
    "bit-reproducible) without ever rebuilding."
)
