"""Command-line interface.

Examples::

    python -m repro emulator --family er_sparse --n 150 --eps 0.5 --r 2
    python -m repro apsp --algo 2eps --family grid --n 120
    python -m repro apsp --algo near-additive --n 400
    python -m repro mssp --family path --n 200 --num-sources 14
    python -m repro families

    # serving layer: preprocess once, query forever (DESIGN.md §6)
    python -m repro build-oracle --family grid --n 400 --out /tmp/oracle
    python -m repro query --artifact /tmp/oracle --u 0 --v 399 --cert
    python -m repro serve --artifact /tmp/oracle --port 8080
    # multi-artifact serving: one process, per-artifact routes
    python -m repro serve --artifact tz=/tmp/tz --artifact na=/tmp/na
    # per-mount shard override + serving limits
    python -m repro serve --artifact tz=/tmp/tz,shards=4 \\
        --artifact es=/tmp/es \\
        --max-inflight 32 --default-timeout-ms 2000
    # tune the request coalescer (keep-alive + micro-batching)
    python -m repro serve --artifact /tmp/oracle \\
        --coalesce-window-ms 0.5 --coalesce-max 512
    # variant-specific parameters beyond --eps/--r
    python -m repro apsp --algo spanner --n 200 --params k=3
    # query a running server (retries 503/conn-reset with backoff)
    python -m repro query --url http://127.0.0.1:8080 --u 0 --v 399
    # recompute the manifest's per-array checksums
    python -m repro verify-artifact --artifact /tmp/oracle

Algorithm and oracle variants — their ``--algo`` / ``--variant``
choices, parameter schemas, and dispatch — come from the declarative
variant registry (:mod:`repro.variants`); a newly registered variant is
reachable here with no CLI change.  Parameters are validated against
the variant's schema: an out-of-range ``--eps`` / ``--r`` (or one the
variant does not take) fails loudly naming the valid range instead of
being silently ignored.

The one-shot commands print the measured quality against the exact
distances and the round-ledger summary.

``repro query`` has one body for both sources: ``--artifact`` sends its
request dicts to a local :class:`repro.oracle.OracleService`, ``--url``
posts the same dicts to a server, and both print the same lines.  A
query the oracle rejects (say, a vertex out of range) prints ``error:``
and exits 2 locally, 3 from a server.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .analysis import evaluate_stretch, format_table
from . import loadgen, oracle, telemetry, variants
from .emulator import build_emulator_cc
from .derand import build_emulator_deterministic
from .graph import WeightedGraph, generators
from .graph.distances import all_pairs_distances, weighted_all_pairs

__all__ = ["main", "build_parser"]


def _variant_epilog(specs) -> str:
    """Help-text table derived from the registry."""
    lines = ["variants (from the registry):"]
    for spec in specs:
        lines.append(f"  {spec.name:<14} {spec.summary}")
        lines.append(
            f"  {'':<14} guarantee: {spec.guarantee}; "
            f"params: {spec.describe_params()}"
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dory-Parter PODC 2020 shortest-paths reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default="er_sparse", choices=generators.FAMILIES)
        p.add_argument("--n", type=int, default=120)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--eps", type=float, default=None,
            help="target stretch parameter (default: the variant's; "
                 "validated against the variant's schema)",
        )
        p.add_argument(
            "--r", type=int, default=None,
            help="hierarchy levels (default: the variant's; validated)",
        )
        p.add_argument(
            "--max-weight", type=int, default=1,
            help="random integer edge weights in [1, W] via subdivision "
                 "(1 = unweighted; apsp/mssp only)",
        )

    p_emu = sub.add_parser("emulator", help="build an emulator, report size/stretch")
    common(p_emu)
    p_emu.add_argument(
        "--deterministic", action="store_true", help="Section 5.1 construction"
    )

    def params_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--params", default=None, metavar="K=V[,K=V...]",
            help="variant-specific parameters beyond --eps/--r (e.g. "
                 "k=3 for the spanner variant); validated against the "
                 "variant's schema — out-of-range values fail naming "
                 "the valid range",
        )

    algo_specs = variants.cli_algo_variants()
    p_apsp = sub.add_parser(
        "apsp", help="run an APSP algorithm",
        epilog=_variant_epilog(algo_specs),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_apsp)
    params_flag(p_apsp)
    p_apsp.add_argument(
        "--algo", default=None, choices=[s.name for s in algo_specs],
        help="APSP variant (default: 2eps; near-additive when "
             "--max-weight > 1)",
    )

    p_mssp = sub.add_parser("mssp", help="run (1+eps)-MSSP")
    common(p_mssp)
    params_flag(p_mssp)
    p_mssp.add_argument(
        "--num-sources", type=int, default=0,
        help="number of sources (default: sqrt(n))",
    )

    sub.add_parser("families", help="list workload families")

    def mmap_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mmap", action="store_true",
            help="memory-map matrix estimates instead of loading them "
                 "resident (format-2 artifacts; answers are identical)",
        )

    p_build = sub.add_parser(
        "build-oracle",
        help="preprocess a workload into an on-disk oracle artifact",
        epilog=_variant_epilog(variants.all_variants()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_build)
    params_flag(p_build)
    p_build.add_argument(
        "--variant", default="near-additive",
        choices=list(variants.artifact_variant_names()),
        help="preprocessing to snapshot (see the variant table below)",
    )
    p_build.add_argument(
        "--out", required=True, help="artifact directory to write"
    )
    p_build.add_argument(
        "--no-graph", action="store_true",
        help="do not embed the source graph (disables path queries)",
    )
    p_build.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="write the sharded artifact layout with S vertex-range "
             "shards; the tz variant then streams bunch arcs shard-at-"
             "a-time so peak build memory is O(payload/S) (serve with "
             "--artifact NAME=PATH — the layout is detected)",
    )
    p_build.add_argument(
        "--profile", action="store_true",
        help="profile the build: wall time per round-ledger phase, "
             "printed as a table and stored in the manifest under "
             "build_profile",
    )

    p_query = sub.add_parser(
        "query", help="answer distance queries from a saved artifact "
        "or a running server (--url)"
    )
    p_query.add_argument(
        "--artifact", default=None,
        help="local artifact directory (exactly one of --artifact/--url)",
    )
    p_query.add_argument(
        "--url", default=None,
        help="base URL of a running `repro serve` instance; queries go "
             "over HTTP with retry/backoff on 503/connection reset",
    )
    p_query.add_argument(
        "--name", default=None,
        help="mounted artifact name on the server (--url with a "
             "multi-artifact instance)",
    )
    p_query.add_argument(
        "--timeout-ms", type=float, default=None,
        help="per-request deadline (local or --url); expiry is the "
             "service's 504",
    )
    p_query.add_argument("--u", type=int, default=None)
    p_query.add_argument("--v", type=int, default=None)
    p_query.add_argument(
        "--pairs", default=None,
        help="batched queries as 'u:v,u:v,...' (one vectorized pass)",
    )
    p_query.add_argument(
        "--cert", action="store_true",
        help="print the per-query stretch certificate",
    )
    p_query.add_argument(
        "--path", action="store_true", dest="want_path",
        help="also reconstruct a concrete G-path",
    )
    mmap_flag(p_query)

    p_serve = sub.add_parser(
        "serve", help="serve artifacts over HTTP (JSON; stdlib only)"
    )
    p_serve.add_argument(
        "--artifact", required=True, action="append",
        help="artifact directory, or NAME=PATH to mount it under a "
             "route name; repeat the flag to serve several artifacts "
             "from one process (POST /query/<name>).  Per-mount "
             "overrides append as ,key=value — e.g. "
             "NAME=PATH,shards=4 "
             "(a sharded-layout path is detected and served by its "
             "worker pool automatically; shards=S on a plain artifact "
             "partitions it in memory)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    limits = oracle.DEFAULT_LIMITS
    p_serve.add_argument(
        "--coalesce-window-ms", type=float,
        default=limits.coalesce_window_ms,
        help="max milliseconds a single query parks waiting for "
             "batch-mates; concurrent singles are answered by one "
             "vectorized gather (default %(default)s)",
    )
    p_serve.add_argument(
        "--coalesce-max", type=int, default=limits.coalesce_max,
        help="parked queries that trigger an immediate flush before "
             "the window expires (default %(default)s)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=limits.max_inflight,
        help="bounded in-flight requests per mount; excess gets 503 + "
             "Retry-After (default %(default)s)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=limits.max_batch,
        help="largest accepted query batch; larger gets 413 "
             "(default %(default)s)",
    )
    p_serve.add_argument(
        "--max-body-bytes", type=int, default=limits.max_body_bytes,
        help="largest accepted HTTP body; larger gets 413 "
             "(default %(default)s)",
    )
    p_serve.add_argument(
        "--default-timeout-ms", type=float, default=None,
        help="deadline applied when the request sends no timeout_ms "
             "(default: none)",
    )
    p_serve.add_argument(
        "--max-timeout-ms", type=float, default=limits.max_timeout_ms,
        help="cap on client-requested timeout_ms (default %(default)s)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=limits.drain_timeout_s,
        help="seconds SIGTERM/SIGINT waits for in-flight requests "
             "before exiting (default %(default)s)",
    )
    p_serve.add_argument(
        "--log-format", default="text", choices=("text", "json"),
        help="request-log format: human-readable lines or one JSON "
             "object per line (default %(default)s)",
    )
    p_serve.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="request-log threshold; 2xx logs at debug, 4xx at info, "
             "5xx at warning (default %(default)s)",
    )
    p_serve.add_argument(
        "--no-telemetry", action="store_true",
        help="do not enable the metrics registry (GET /metrics scrapes "
             "as zeros; for overhead comparisons)",
    )
    mmap_flag(p_serve)

    profile_lines = [
        f"  {p.name:<18} [{p.driver}-loop] {p.summary}"
        for p in loadgen.all_profiles()
    ]
    p_load = sub.add_parser(
        "loadgen",
        help="drive a workload profile against the serving stack and "
             "write a JSON metrics report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="profiles:\n" + "\n".join(profile_lines),
    )
    p_load.add_argument(
        "--profile", required=True, choices=loadgen.profile_names(),
        help="workload profile to run (see list below)",
    )
    p_load.add_argument(
        "--artifact", action="append", default=None,
        help="prebuilt artifact to mount: PATH or NAME=PATH[,key=value]; "
             "repeat for multi-tenant runs.  Omit to build an in-memory "
             "tenant from --family/--n/--variant",
    )
    p_load.add_argument("--family", default=None,
                        choices=generators.FAMILIES,
                        help="graph family for built tenants")
    p_load.add_argument("--n", type=int, default=None,
                        help="graph size for built tenants")
    p_load.add_argument(
        "--variant", default=None,
        choices=[s.name for s in variants.all_variants()],
        help="oracle variant for built tenants (multi_tenant builds "
             "its own fixed set)",
    )
    p_load.add_argument("--seed", type=int, default=0,
                        help="workload + tenant seed (default %(default)s)")
    p_load.add_argument("--requests", type=int, default=None,
                        help="requests per front end run")
    p_load.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop worker clients")
    p_load.add_argument("--rate", type=float, default=None,
                        help="open-loop Poisson arrival rate (req/s)")
    p_load.add_argument(
        "--driver", default=None, choices=loadgen.DRIVERS,
        help="override the profile's default driver",
    )
    p_load.add_argument(
        "--params", default=None,
        help="profile parameters as k=v[,k=v...] (e.g. skew=2.0 for "
             "zipf_hotspot; see DESIGN.md §8)",
    )
    p_load.add_argument(
        "--max-inflight", type=int, default=None,
        help="per-mount admission-control bound for the driven server "
             "(default: serving default)",
    )
    p_load.add_argument(
        "--quick", action="store_true",
        help="small smoke run (fewer requests, smaller built tenant)",
    )
    p_load.add_argument(
        "--out", default=None,
        help="JSON report path (default loadgen-<profile>.json)",
    )
    mmap_flag(p_load)

    p_verify = sub.add_parser(
        "verify-artifact",
        help="recompute every array's SHA-256 against the manifest "
             "checksums (detects torn writes and bit rot)",
    )
    p_verify.add_argument("--artifact", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "families":
        print("\n".join(generators.FAMILIES))
        return 0

    if args.command == "loadgen":
        try:
            return _main_loadgen(args)
        except (
            loadgen.LoadgenError,
            variants.VariantError,
            oracle.ArtifactError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except oracle.OracleClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    if args.command in ("query", "serve", "verify-artifact"):
        try:
            return _main_serving(args)
        except oracle.ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except oracle.OracleClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    g = generators.make_family(args.family, args.n, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    print(f"graph: {args.family}, n={g.n}, m={g.m}")

    if args.command == "build-oracle":
        try:
            return _main_build_oracle(args, g, rng)
        except (oracle.ArtifactError, variants.VariantError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "emulator":
        eps = 0.5 if args.eps is None else args.eps
        r = 2 if args.r is None else args.r
        if args.deterministic:
            res = build_emulator_deterministic(g, eps=eps, r=r)
        else:
            res = build_emulator_cc(g, eps=eps, r=r, rng=rng)
        print(
            f"emulator: {res.num_edges} edges, beta={res.params.beta:.0f}, "
            f"set sizes {res.stats['set_sizes']}"
        )
        print(res.ledger.summary())
        return 0

    try:
        return _main_one_shot(args, g, rng)
    except variants.VariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_cli_params(spec):
    """``--params k=v,...`` into a raw-string dict.  Values stay strings:
    :meth:`~repro.variants.VariantSpec.resolve_params` coerces them
    against the variant's schema and rejects out-of-range values naming
    the valid range (exit 2 via the ``VariantError`` paths)."""
    if spec is None:
        return {}
    parsed = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise variants.VariantError(
                f"malformed --params entry {token!r}; expected k=v"
            )
        parsed[key] = value
    return parsed


def _main_one_shot(args, g, rng) -> int:
    """``repro apsp`` / ``repro mssp``: registry-dispatched one-shot run."""
    weighted = getattr(args, "max_weight", 1) > 1
    if weighted:
        wg = _random_weights(g, args.max_weight, rng)
        exact = weighted_all_pairs(wg)
        print(f"weights: random integers in [1, {args.max_weight}]")
    else:
        exact = all_pairs_distances(g)

    overrides = _parse_cli_params(getattr(args, "params", None))
    if args.command == "apsp":
        algo = args.algo or ("near-additive" if weighted else "2eps")
        spec = variants.get_variant(algo)
        spec.check_graph_support(weighted)
        base = {"eps": args.eps, "r": args.r}
        base.update(overrides)
        params = spec.resolve_params(base, n=g.n)
        res = spec.run(wg if weighted else g, rng=rng, **params)
        rep = evaluate_stretch(res.estimates, exact, additive=res.additive)
    else:  # mssp
        spec = variants.get_variant("mssp")
        base = {"eps": args.eps, "r": args.r}
        base.update(overrides)
        params = spec.resolve_params(base, n=g.n)
        num_sources = args.num_sources or max(1, int(math.sqrt(g.n)))
        sources = list(range(0, g.n, max(1, g.n // num_sources)))[:num_sources]
        res = spec.run(
            wg if weighted else g, sources=sources, rng=rng, **params
        )
        rep = evaluate_stretch(res.estimates, exact[sources])

    print(format_table(
        ["algorithm", "sound", "max stretch", "mean stretch", "p99", "rounds"],
        [[res.name, rep.sound, round(rep.max_ratio, 3),
          round(rep.mean_ratio, 3), round(rep.p99_ratio, 3),
          round(res.rounds, 1)]],
    ))
    print(res.ledger.summary())
    return 0 if rep.sound else 1


def _main_build_oracle(args, g, rng) -> int:
    """``repro build-oracle``: preprocess and snapshot one workload."""
    if getattr(args, "max_weight", 1) > 1:
        g = _random_weights(g, args.max_weight, rng)
        print(f"weights: random integers in [1, {args.max_weight}]")
    if getattr(args, "shards", None) is not None:
        return _build_sharded(args, g, rng)
    artifact = oracle.build_oracle(
        g,
        variant=args.variant,
        eps=args.eps,
        r=args.r,
        rng=rng,
        include_graph=not args.no_graph,
        params=_parse_cli_params(getattr(args, "params", None)),
        profile=args.profile,
    )
    oracle.save_artifact(artifact, args.out)
    m = artifact.manifest
    rounds = m.get("rounds_total")
    print(
        f"oracle: variant={m['variant']} kind={m['kind']} n={m['n']} "
        f"payload={artifact.nbytes() / 1e6:.2f} MB"
    )
    print(f"guarantee: {m['guarantee']}")
    if m.get("params"):
        shown = ", ".join(f"{k}={v:g}" for k, v in m["params"].items())
        print(f"params: {shown}")
    if rounds is not None:
        print(f"preprocessing rounds charged: {rounds:.2f}")
    if args.profile:
        _print_build_profile(m)
    print(f"artifact written to {args.out}")
    return 0


def _build_sharded(args, g, rng) -> int:
    """``repro build-oracle --shards S``: the sharded layout, streamed
    for the tz variant (peak memory one shard + one in-flight block)."""
    manifest = oracle.build_sharded_oracle(
        g,
        args.out,
        shards=args.shards,
        variant=args.variant,
        eps=args.eps,
        r=args.r,
        rng=rng,
        include_graph=not args.no_graph,
        params=_parse_cli_params(getattr(args, "params", None)),
        profile=args.profile,
    )
    smap = manifest["shard_map"]
    stats = manifest.get("stats") or {}
    print(
        f"oracle: variant={manifest['variant']} kind={manifest['kind']} "
        f"n={manifest['n']} shards={smap['shards']}"
    )
    print(f"guarantee: {manifest['guarantee']}")
    if stats.get("streamed"):
        print(
            f"streamed build: peak resident arcs "
            f"{stats['peak_resident_arcs']} of {stats['bunch_edges']}"
        )
    print(f"sharded artifact written to {args.out}")
    return 0


def _print_build_profile(manifest) -> None:
    """The ``--profile`` table: wall time per phase joined with the
    round charges against the same phase names."""
    profile = manifest.get("build_profile") or {}
    phases = profile.get("phases") or {}
    rounds_by_phase = manifest.get("rounds_breakdown") or {}
    total_s = float(profile.get("total_wall_s") or 0.0)
    rows = []
    for phase, slot in phases.items():
        wall = float(slot["wall_s"])
        share = (100.0 * wall / total_s) if total_s > 0 else 0.0
        rnds = rounds_by_phase.get(phase)
        rows.append([
            phase,
            f"{wall * 1000.0:.1f}",
            f"{share:.1f}%",
            int(slot["charges"]),
            "-" if rnds is None else f"{float(rnds):.2f}",
        ])
    print(f"build profile (total {total_s * 1000.0:.1f} ms):")
    print(format_table(
        ["phase", "wall_ms", "share", "charges", "rounds"], rows
    ))


def _parse_pairs(spec: str):
    pairs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            u, v = token.split(":")
            pairs.append((int(u), int(v)))
        except ValueError:
            raise oracle.ArtifactError(
                f"malformed --pairs entry {token!r}; expected 'u:v'"
            )
    if not pairs:
        raise oracle.ArtifactError("--pairs parsed to an empty query list")
    return pairs


def _parse_artifact_mounts(entries):
    """``--artifact`` values: ``PATH`` or ``NAME=PATH``, optionally
    followed by ``,key=value`` per-mount overrides (``shards=S``).

    Returns ``(name, path)`` or ``(name, path, options)`` tuples — the
    :meth:`repro.oracle.OracleRouter.load` input shape."""
    mounts = []
    for entry in entries:
        first, *option_parts = entry.split(",")
        first = first.strip()
        if "=" in first:
            name, _, path = first.partition("=")
            name, path = name.strip(), path.strip()
            if not name or not path:
                raise oracle.ArtifactError(
                    f"malformed --artifact entry {entry!r}; expected "
                    "NAME=PATH[,key=value...]"
                )
        else:
            name, path = None, first
        options = {}
        for part in option_parts:
            key, sep, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise oracle.ArtifactError(
                    f"malformed mount option {part!r} in --artifact "
                    f"entry {entry!r}; expected key=value"
                )
            options[key] = value
        options = oracle.parse_mount_options(
            options, f"in --artifact entry {entry!r}"
        )
        mounts.append((name, path, options) if options else (name, path))
    return mounts


def _main_loadgen(args) -> int:
    """``repro loadgen``: drive one profile, print the metrics table,
    write the JSON report."""
    limits = None
    if args.max_inflight is not None:
        import dataclasses

        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS, max_inflight=args.max_inflight
        )
    mounts = (
        _parse_artifact_mounts(args.artifact) if args.artifact else None
    )
    report = loadgen.run(
        args.profile,
        mounts=mounts,
        family=args.family,
        n=args.n,
        variant=args.variant,
        seed=args.seed,
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        driver=args.driver,
        params=_parse_cli_params(args.params) or None,
        limits=limits,
        quick=args.quick,
    )

    tenants = ", ".join(
        f"{t['name']}({t['variant']}, n={t['n']})" for t in report["tenants"]
    )
    print(f"profile: {args.profile}  seed={args.seed}  tenants: {tenants}")
    lat = report["latency_ms"]

    def ms(v):
        return "-" if v is None else f"{v:.2f}"

    print(format_table(
        ["driver", "req", "ok", "fail_rate", "qps",
         "query_qps", "p50_ms", "p95_ms", "p99_ms", "max_ms", "dur_s"],
        [[
            report["driver"], report["requests"], report["ok"],
            f"{report['failures']['rate']:.3f}",
            f"{report['qps']:.0f}", f"{report['query_qps']:.0f}",
            ms(lat["p50"]), ms(lat["p95"]), ms(lat["p99"]), ms(lat["max"]),
            f"{report['duration_s']:.2f}",
        ]],
    ))
    print(f"answers digest: {report['answers_digest']}")
    out = args.out or f"loadgen-{args.profile}.json"
    loadgen.write_report(report, out)
    print(f"report: {out}")
    return 0


def _main_serving(args) -> int:
    """``repro query`` / ``repro serve`` / ``repro verify-artifact``."""
    if args.command == "serve":
        import dataclasses

        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS,
            max_inflight=args.max_inflight,
            max_batch=args.max_batch,
            max_body_bytes=args.max_body_bytes,
            default_timeout_ms=args.default_timeout_ms,
            max_timeout_ms=args.max_timeout_ms,
            drain_timeout_s=args.drain_timeout,
            coalesce_window_ms=args.coalesce_window_ms,
            coalesce_max=args.coalesce_max,
            telemetry=not args.no_telemetry,
        )
        telemetry.configure_logging(args.log_format, args.log_level)
        oracle.serve(
            _parse_artifact_mounts(args.artifact),
            host=args.host,
            port=args.port,
            mmap=args.mmap,
            limits=limits,
        )
        return 0

    if args.command == "verify-artifact":
        artifact = oracle.load_artifact(args.artifact)
        verified = artifact.verify()
        print(
            f"artifact {args.artifact} OK: {len(verified)} arrays verified "
            f"({', '.join(verified)})"
        )
        return 0

    if (args.artifact is None) == (args.url is None):
        print(
            "error: query needs exactly one of --artifact (local) or "
            "--url (server)",
            file=sys.stderr,
        )
        return 2
    if args.url is not None:
        # Closed on exit, so its keep-alive socket does not outlive the
        # command.
        with oracle.OracleClient(args.url) as client:
            return _query(
                args, lambda request: client.query(request, name=args.name),
                source="server", fail=3,
            )
    engine = oracle.DistanceOracle.load(args.artifact, mmap=args.mmap)
    m = engine.artifact.manifest
    print(
        f"artifact: variant={m['variant']} kind={m['kind']} n={m['n']} "
        f"graph={str(m['graph_hash'])[:12]}…"
    )
    return _query(
        args, oracle.OracleService(engine).handle, source="oracle", fail=2
    )


def _query(args, ask, source: str, fail: int) -> int:
    """The ``repro query`` body: send the request dicts of
    :class:`repro.oracle.OracleService` through ``ask(request) ->
    (status, body)`` — the local service's ``handle`` or the server
    client — and print the answers.  A non-200 reply prints its error
    and exits ``fail``."""

    def run(request):
        if args.timeout_ms is not None:
            request["timeout_ms"] = args.timeout_ms
        status, body = ask(request)
        if status != 200:
            print(
                f"error: {source} returned {status}: "
                f"{body.get('error', body)}",
                file=sys.stderr,
            )
            return None
        return body

    if args.pairs is not None:
        pairs = _parse_pairs(args.pairs)
        body = run({"pairs": [[u, v] for u, v in pairs]})
        if body is None:
            return fail
        rows = [
            [u, v, "inf" if d is None else round(float(d), 3)]
            for (u, v), d in zip(pairs, body["distances"])
        ]
        print(format_table(["u", "v", "estimate"], rows))
        return 0
    if args.u is None or args.v is None:
        print("error: query needs --u and --v (or --pairs)", file=sys.stderr)
        return 2
    body = run({"u": args.u, "v": args.v})
    if body is None:
        return fail
    d = body["distance"]
    shown = "inf (unreachable)" if d is None else f"{d:g}"
    print(f"d({args.u}, {args.v}) <= {shown}")
    if args.cert:
        cert = run({"op": "certificate", "u": args.u, "v": args.v})
        if cert is None:
            return fail
        lo = "inf" if cert["lower_bound"] is None else f"{cert['lower_bound']:g}"
        print(
            f"certificate: {lo} <= d <= {shown}  "
            f"(mult={cert['multiplicative']:g}, add={cert['additive']:g}, "
            f"witness={cert['witness']})"
        )
    if args.want_path:
        pbody = run({"op": "path", "u": args.u, "v": args.v})
        if pbody is None:
            return fail
        path = pbody["path"]
        if path is None:
            print("path: unreachable")
        else:
            print(f"path ({len(path) - 1} hops): {' -> '.join(map(str, path))}")
    return 0


def _random_weights(g, max_weight: int, rng: np.random.Generator) -> WeightedGraph:
    """Assign random integer weights in [1, max_weight] to g's edges."""
    wg = WeightedGraph(g.n)
    for u, v in g.edges():
        wg.add_edge(int(u), int(v), float(rng.integers(1, max_weight + 1)))
    return wg


if __name__ == "__main__":
    sys.exit(main())
