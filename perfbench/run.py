"""The repository benchmark: build, serve and query one workload.

    python3 perfbench/run.py --workload tz_sharded --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (it imports the program from ``src/``).
One run:

1. builds the workload's artifact in a fresh child (``child_build.py``);
2. starts the server child (``child_server.py``) several times, timing
   each start until ``/healthz`` answers, and keeps the last one;
3. drives traffic for ``--seconds``, in three rounds of: a two-client
   closed loop, 256-pair batches from one client, ``/stream`` bursts;
4. reads the server's memory (PSS), once it has collected garbage and
   trimmed its heap;
5. audits seeded pairs against exact BFS distances and checks every
   served answer against an in-process oracle (``child_reference.py``);
6. stops every child and checks that no process, shared-memory segment
   or temporary file is left behind.

Every timed phase is bracketed by the calibration kernel
(``calibration.py``); timings are reported scaled to its reference time.
With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the workload runs once untraced and once traced, and
the line holds the per-layer metrics.  The full run record, raw seconds
and calibration times included, goes to ``.perfbench_runs/``.

An operation is one ``(u, v)`` pair asked of the server.  It fails when
its request does not return 200, when its answer differs from the
in-process oracle's, or when an audited pair breaks the manifest's
``(multiplicative, additive)`` guarantee; the run then exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from calibration import Calibrator, bracket, normalize_rate, normalize_time  # noqa: E402
from child_build import KERNEL_ENTRIES  # noqa: E402
from measures import (  # noqa: E402
    descendants,
    histogram_delta,
    latency_summary,
    pss_mb,
    shm_segments,
)
from spans import SpanRecorder  # noqa: E402
from workloads import LAYER_MOVES, WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 3
CLIENTS = 2
WARMUP_PER_CLIENT = 20
BATCH_PAIRS = 256
PROFILE_SEED = 0
ROUNDS = 3
#: Share of ``--seconds`` given to the closed loop, the batch loop and
#: the stream bursts.
SPLIT = (0.5, 0.3, 0.2)
#: The latency tail kept in the run record.  No workload reports a tail
#: metric: over ten runs on a shared 2-core host the spread of p99
#: reached 48-83% and of p90 28-58%.
TAIL = 90
CHILD_TIMEOUT_S = 150.0
STAGES = ("parse", "admission", "park", "flush", "gather", "serialize")
#: The server child runs with one malloc arena.  With glibc's default of
#: one per thread, which front-end thread happened to run the large
#: queries decided how many freed pages its arena kept: serve_pss_mb on
#: emulator_sssp moved between 62 and 79 MB over five seeds even after a
#: heap trim, and by 0.2 MB over ten seeds with one arena.
SERVER_ENV = {"MALLOC_ARENA_MAX": "1"}
SHM_TRACKER_ERROR = re.compile(r"KeyError: '/psm_")


class BenchError(RuntimeError):
    """The run could not be measured (not a wrong answer)."""


# ----------------------------------------------------------------------
# Answers: every pair asked, what came back, and whether it failed
# ----------------------------------------------------------------------

class Answers:
    """Pairs requested in one run with their served values; a pair
    whose request did not return 200 is marked failed.  Requests are
    kept as sent and received, and turned into arrays only after the
    traffic, so the client does no per-pair work while it is timed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: List[tuple] = []
        self._count = 0

    def add(self, pairs, status: int, values) -> None:
        ok = status == 200 and values is not None and len(values) == len(pairs)
        with self._lock:
            self._requests.append((pairs, values if ok else None))
            self._count += len(pairs)

    def __len__(self) -> int:
        return self._count

    def arrays(self):
        """``(us, vs, served, failed)`` in the order requests were added;
        an unreachable pair (JSON null) and a failed one read as inf."""
        with self._lock:
            requests = list(self._requests)
        pairs = np.array([p for ps, _ in requests for p in ps], dtype=np.int64).reshape(-1, 2)
        served = np.array(
            [np.inf if x is None else x
             for ps, vals in requests for x in (vals if vals is not None else [None] * len(ps))],
            dtype=np.float64,
        )
        failed = np.array(
            [vals is None for ps, vals in requests for _ in ps], dtype=bool)
        return pairs[:, 0], pairs[:, 1], served, failed


def _relabel(payload, label) -> dict:
    if "pairs" in payload:
        return {"pairs": [[int(label[u]), int(label[v])] for u, v in payload["pairs"]]}
    return {"u": int(label[payload["u"]]), "v": int(label[payload["v"]])}


def _pairs_of(payload) -> list:
    return payload["pairs"] if "pairs" in payload else [(payload["u"], payload["v"])]


def _values_of(payload, body) -> Optional[list]:
    if "pairs" in payload:
        return body.get("distances")
    return [body.get("distance")] if "distance" in body else None


def _issue(client, payload, answers: Answers, client_error, spans=None):
    """One request; returns ``(latency_ms, status)``.  With a span
    recorder, the request is also recorded as a span carrying the
    server's request id."""
    t0 = time.perf_counter()
    try:
        status, body = client.query(payload)
    except client_error:
        status, body = 0, {}
    t1 = time.perf_counter()
    if spans is not None:
        spans.add("client.request", t0, t1, rid=client.last_request_id)
    answers.add(_pairs_of(payload), status, _values_of(payload, body))
    return (t1 - t0) * 1e3, status


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

class Children:
    """Starts the benchmark's child processes with the program on the
    path and a private temp dir, and collects their stderr."""

    def __init__(self, root: str, rundir: str):
        self.root = root
        self.rundir = rundir
        self.tmpdir = os.path.join(rundir, "tmp")
        os.makedirs(self.tmpdir)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.env["TMPDIR"] = self.tmpdir
        self.stderr_files: List[str] = []
        self._count = 0

    def _stderr(self, tag: str):
        self._count += 1
        path = os.path.join(self.rundir, f"{self._count:02d}-{tag}.stderr")
        self.stderr_files.append(path)
        return open(path, "w")

    def run(self, tag: str, script: str, *args: str) -> None:
        with self._stderr(tag) as err:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, script), *args],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err, timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            raise BenchError(
                f"{script} exited {proc.returncode}: {self.tail(self.stderr_files[-1])}"
            )

    def popen(self, tag: str, script: str, *args: str) -> subprocess.Popen:
        """Start the server child (``SERVER_ENV`` added to its environment)."""
        with self._stderr(tag) as err:
            return subprocess.Popen(
                [sys.executable, os.path.join(HERE, script), *args],
                cwd=self.root, env=dict(self.env, **SERVER_ENV), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )

    @staticmethod
    def tail(path: str) -> str:
        with open(path) as fh:
            return fh.read()[-2000:]

    def shm_tracker_errors(self) -> int:
        total = 0
        for path in self.stderr_files:
            with open(path) as fh:
                total += len(SHM_TRACKER_ERROR.findall(fh.read()))
        return total


def _readline(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchError("server child did not answer")
    return json.loads(line)


class Server:
    """One server child; ``stop()`` waits until it has exited."""

    def __init__(self, children: Children, spec: Workload, artifact: str, trace: bool):
        self.proc = children.popen(
            "server", "child_server.py", "--workload", spec.name,
            "--artifact", artifact, "--trace", str(int(trace)),
        )
        self.stderr_path = children.stderr_files[-1]
        try:
            info = _readline(self.proc, CHILD_TIMEOUT_S)
        except BenchError:
            self.stop()
            raise BenchError("server child failed: " + Children.tail(self.stderr_path))
        self.pid = int(info["pid"])
        self.load_s = float(info["load_s"])
        self.base = f"http://127.0.0.1:{info['port']}"

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return _readline(self.proc, 60.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(
                f"server child exited {self.proc.returncode}: "
                + Children.tail(self.stderr_path)
            )


def _wait_healthy(base: str, client_cls, client_error, timeout: float = 60.0) -> None:
    end = time.perf_counter() + timeout
    with client_cls(base, max_attempts=1, timeout_s=5.0) as client:
        while True:
            try:
                status, _ = client.healthz()
                if status == 200:
                    return
            except client_error:
                pass
            if time.perf_counter() > end:
                raise BenchError("server never answered /healthz")
            time.sleep(0.002)


# ----------------------------------------------------------------------
# Traffic phases
# ----------------------------------------------------------------------

def closed_loop(base, payloads, cursors, duration, answers, repro_client, spans=None) -> dict:
    """``CLIENTS`` threads, each sending its next request when the last
    one returns; client ``c`` walks ``payloads[c::CLIENTS]`` from
    ``cursors[c]`` (advanced in place, so rounds never repeat a request).
    The first ``WARMUP_PER_CLIENT`` requests of each client are not in
    the single-query figures, but are in ``all_ms`` (every request of the
    phase, which the server-side stage totals cover too)."""
    client_cls, client_error = repro_client
    barrier = threading.Barrier(CLIENTS)
    per_client: List[dict] = [None] * CLIENTS
    errors: List[BaseException] = []

    def work(c: int) -> None:
        try:
            own = payloads[c::CLIENTS]
            lat_single: List[float] = []
            lat_all: List[float] = []
            i = cursors[c]
            with client_cls(base, max_attempts=1, timeout_s=30.0) as client:
                for _ in range(WARMUP_PER_CLIENT):
                    lat_all.append(_issue(
                        client, own[i % len(own)], answers, client_error, spans)[0])
                    i += 1
                barrier.wait()
                start = time.perf_counter()
                deadline = start + duration
                while time.perf_counter() < deadline:
                    payload = own[i % len(own)]
                    latency_ms, status = _issue(
                        client, payload, answers, client_error, spans)
                    lat_all.append(latency_ms)
                    if status == 200 and "pairs" not in payload:
                        lat_single.append(latency_ms)
                    i += 1
                end = time.perf_counter()
            cursors[c] = i
            per_client[c] = {"start": start, "end": end, "lat": lat_single, "all": lat_all}
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    window = max(p["end"] for p in per_client) - min(p["start"] for p in per_client)
    lat = [x for p in per_client for x in p["lat"]]
    if not lat:
        raise BenchError("closed loop completed no single query")
    return {
        "window_s": window,
        "qps": len(lat) / window,
        "latencies_ms": lat,
        "all_ms": [x for p in per_client for x in p["all"]],
    }


def batch_loop(base, pairs, cursor, duration, answers, repro_client) -> dict:
    """One client sending ``BATCH_PAIRS``-pair ``/query`` batches, taken
    from ``pairs`` at ``cursor[0]`` (advanced in place)."""
    client_cls, client_error = repro_client
    sent_pairs = batches = 0
    with client_cls(base, max_attempts=1, timeout_s=60.0) as client:
        start = time.perf_counter()
        while True:
            lo = (cursor[0] * BATCH_PAIRS) % len(pairs)
            chunk = pairs[lo:lo + BATCH_PAIRS]
            _issue(client, {"pairs": chunk.tolist()}, answers, client_error)
            sent_pairs += len(chunk)
            batches += 1
            cursor[0] += 1
            if time.perf_counter() - start >= duration:
                break
        window = time.perf_counter() - start
    return {"window_s": window, "batches": batches, "pairs_per_s": sent_pairs / window}


def stream_bursts(base, pairs, burst, cursor, duration, answers, repro_client) -> dict:
    """Repeated ``/stream`` bursts of ``burst`` singles (at least one),
    taken from ``pairs`` at ``cursor[0]``; the median burst rate."""
    client_cls, client_error = repro_client
    rates: List[float] = []
    start = time.perf_counter()
    with client_cls(base, max_attempts=1, timeout_s=60.0) as client:
        while True:
            lo = (cursor[0] * burst) % len(pairs)
            payloads = [{"u": int(u), "v": int(v)} for u, v in pairs[lo:lo + burst]]
            cursor[0] += 1
            t0 = time.perf_counter()
            try:
                bodies = client.stream_queries(payloads)
            except client_error:
                bodies = []
            rates.append(len(payloads) / (time.perf_counter() - t0))
            for i, p in enumerate(payloads):
                body = bodies[i] if i < len(bodies) else {"status": 0}
                answers.add([(p["u"], p["v"])], int(body.get("status", 0)),
                            _values_of(p, body))
            if time.perf_counter() - start >= duration:
                break
    return {"bursts": len(rates), "pairs_per_s": statistics.median(rates)}


# ----------------------------------------------------------------------
# One pass over a workload
# ----------------------------------------------------------------------

def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_once(root: str, spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Build, serve, drive and check one workload; returns the record."""
    from repro.loadgen.profiles import ProfileContext, get_profile
    from repro.oracle.client import OracleClient, OracleClientError

    repro_client = (OracleClient, OracleClientError)
    shm_before = shm_segments()
    rundir = os.path.join(
        root, ".perfbench_runs", f"{spec.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    )
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    children = Children(root, rundir)
    artifact = os.path.join(rundir, "artifact")
    rec: dict = {"workload": spec.name, "seed": seed, "trace": trace}
    server: Optional[Server] = None
    spans = SpanRecorder() if trace else None
    spans_prefix = os.path.join(root, ".perfbench_runs", f"{spec.name}-seed{seed}")
    cal = Calibrator()
    try:
        # 1. The build, in a fresh process; a traced build runs once.
        build_json = os.path.join(rundir, "build.json")
        build_args = ["--workload", spec.name, "--out", artifact,
                      "--result", build_json, "--trace", str(int(trace)),
                      "--reps", str(1 if trace else spec.build_reps)]
        if trace:
            build_args += ["--spans", spans_prefix + "-build-spans.json"]
        children.run("build", "child_build.py", *build_args)
        with open(build_json) as fh:
            rec["build"] = json.load(fh)
        builds = sorted(rec["build"]["builds"], key=lambda x: x["normalized_s"])
        rec["build"]["timing"] = builds[(len(builds) - 1) // 2]
        rec["artifact_bytes"] = _dir_bytes(artifact)

        # 2. Set-up: server child start until /healthz answers, repeated.
        setups = []
        b = None
        for rep in range(SETUP_REPS):
            with bracket(cal, b) as b:
                server = Server(children, spec, artifact, trace)
                _wait_healthy(server.base, *repro_client)
            setups.append(dict(b.record(), load_s=server.load_s))
            if rep < SETUP_REPS - 1:
                server.stop()
                server = None
        rec["setup"] = setups

        # 3. Traffic.  The profile's request sequence is drawn once, with
        # a fixed seed, and the workload seed relabels its vertices: each
        # seed sends other pairs, but every seed sends the same shape (the
        # same singles/batches order, the same hot-set sizes), so a short
        # run does not measure a seed's luck in its mix.
        rng = np.random.default_rng(seed)
        profile = get_profile(spec.profile)
        requests = profile.build_requests(
            ProfileContext(tenants=((spec.variant, spec.n),),
                           requests=int(1500 * seconds), seed=PROFILE_SEED),
            **profile.resolve_params(),
        )
        label = rng.permutation(spec.n)
        payloads = [_relabel(r.payload, label) for r in requests]
        batch_pairs = rng.integers(0, spec.n, (BATCH_PAIRS * 64, 2))
        stream_pairs = rng.integers(0, spec.n, (spec.stream_burst * 16, 2))

        # The pre-built request lists are long-lived: keep the collector
        # from walking them during the timed phases.
        gc.collect()
        gc.freeze()

        # Rounds of (closed loop, batches, stream), each bracketed by
        # calibration; see _serving_summary.
        answers = Answers()
        cursors = {"single": [0] * CLIENTS, "batch": [0], "stream": [0]}
        batch_slices = []
        rounds = []
        b_round = None

        def scrape() -> str:
            with OracleClient(server.base, max_attempts=1) as mc:
                return mc.metrics_text()

        for _ in range(ROUNDS):
            with bracket(cal, b_round) as b_round:
                m0, s0 = scrape(), server.command("stats")
                single = closed_loop(server.base, payloads, cursors["single"],
                                     seconds * SPLIT[0] / ROUNDS, answers,
                                     repro_client, spans)
                m1, s1 = scrape(), server.command("stats")
                first = len(answers)
                batch = batch_loop(server.base, batch_pairs, cursors["batch"],
                                   seconds * SPLIT[1] / ROUNDS, answers, repro_client)
                batch_slices.append((first, len(answers)))
                m2, s2 = scrape(), server.command("stats")
                stream = stream_bursts(server.base, stream_pairs, spec.stream_burst,
                                       cursors["stream"], seconds * SPLIT[2] / ROUNDS,
                                       answers, repro_client)
                m3 = scrape()
            rounds.append({
                "single": single, "batch": batch, "stream": stream,
                "stats": [s0, s1, s2],
                "stages": _stage_sums(m0, m1),
                "shard_gather": histogram_delta(m0, m1, "repro_shard_gather_seconds"),
                "coalesce": histogram_delta(m2, m3, "repro_coalesce_batch_size"),
                "timing": b_round.record(),
            })
        rec["rounds"] = rounds
        rec["settle"] = server.command("settle")
        rec["serve_pss_mb"] = pss_mb([server.pid] + descendants(server.pid))

        # 4. Audit pairs, answered by the server (not timed).
        audit_sources = rng.choice(spec.n, spec.audit_sources, replace=False)
        audit_targets = rng.integers(0, spec.n, (spec.audit_sources, spec.audit_targets))
        audit_pairs = np.stack(
            [np.repeat(audit_sources, spec.audit_targets), audit_targets.ravel()], axis=1
        )
        first_audit = len(answers)
        with OracleClient(server.base, max_attempts=1, timeout_s=60.0) as client:
            for lo in range(0, len(audit_pairs), BATCH_PAIRS):
                payload = {"pairs": audit_pairs[lo:lo + BATCH_PAIRS].tolist()}
                _issue(client, payload, answers, OracleClientError)
        server.stop()
        server = None

        # 5. Check every answer against the in-process oracle.
        us, vs, served, failed = answers.arrays()
        pairs_npz = os.path.join(rundir, "pairs.npz")
        ref_npz = os.path.join(rundir, "reference.npz")
        batch_idx = np.concatenate([np.arange(lo, hi) for lo, hi in batch_slices])
        np.savez(pairs_npz, us=us, vs=vs, batch_us=us[batch_idx],
                 batch_vs=vs[batch_idx], audit_sources=audit_sources)
        with bracket(cal) as b_ref:
            children.run("reference", "child_reference.py", "--workload", spec.name,
                         "--artifact", artifact, "--pairs", pairs_npz, "--result", ref_npz)
            with open(ref_npz + ".json") as fh:
                rec["engine"] = json.load(fh)
            b_ref.raw_s = rec["engine"]["engine_batch_s"]
        rec["engine"]["timing"] = b_ref.record()
        with np.load(ref_npz) as ref_data:
            ref, exact_rows = ref_data["ref"], ref_data["exact"]

        mismatch = ~failed & (served != ref)
        audit_est = served[first_audit:]
        exact = exact_rows[np.repeat(np.arange(spec.audit_sources), spec.audit_targets),
                           audit_targets.ravel()]
        mult, add = rec["build"]["multiplicative"], rec["build"]["additive"]
        finite = np.isfinite(exact)
        with np.errstate(invalid="ignore"):
            holds = np.where(
                finite,
                (audit_est >= exact - 1e-9) & (audit_est <= mult * exact + add + 1e-9),
                ~np.isfinite(audit_est),
            )
        violation = np.zeros_like(failed)
        violation[first_audit:] = ~holds
        positive = finite & (exact > 0)
        rec["stretch_mean"] = float(np.mean(audit_est[positive] / exact[positive]))
        rec["audit"] = {"pairs": int(audit_pairs.shape[0]), "violations": int((~holds).sum())}
        rec["attempted"] = int(len(answers))
        rec["failed"] = int((failed | mismatch | violation).sum())
        rec["failures"] = {"status": int(failed.sum()), "mismatch": int(mismatch.sum()),
                           "guarantee": int(violation.sum())}
        rec["digest"] = {"served": _digest(served), "reference": _digest(ref)}
        rec["serving"] = _serving_summary(rounds, TAIL)
        rec["shm_tracker_errors"] = children.shm_tracker_errors()
    finally:
        try:
            if server is not None:
                server.stop()
        finally:
            cal.close()
    if spans is not None:
        spans.write(spans_prefix + "-client-spans.json")
    _check_clean(children, shm_before)
    shutil.rmtree(rundir)
    return rec


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _stage_sums(before: str, after: str) -> dict:
    """Seconds spent in each service stage and in whole requests, and
    the request count, between two /metrics scrapes."""
    out = {}
    out["request"], out["requests"] = histogram_delta(
        before, after, "repro_request_duration_seconds")
    for stage in STAGES:
        out[stage] = histogram_delta(
            before, after, "repro_stage_duration_seconds", stage=stage)[0]
    return out


def _serving_summary(rounds: List[dict], tail: int) -> dict:
    """The serving figures: each is taken per round, normalized by that
    round's calibration, and the median over rounds is reported, so one
    slow stretch of the host (which mostly lands in the latency tail)
    spoils one round, not the run.  The raw latency lists are replaced
    by their per-round summaries here."""
    figures: Dict[str, List[float]] = {}
    all_sum = all_count = 0.0
    for r in rounds:
        cal = r["timing"]["cal_s"]
        single = r["single"]
        lat = [normalize_time(x, cal) for x in single.pop("latencies_ms")]
        all_ms = single.pop("all_ms")
        all_sum += sum(all_ms)
        all_count += len(all_ms)
        single["latency"] = latency_summary(lat, tail)
        for name, value in (
            ("p50_ms", single["latency"]["p50_ms"]),
            (f"p{tail}_ms", single["latency"][f"p{tail}_ms"]),
            ("single_qps", normalize_rate(single["qps"], cal)),
            ("batch_pairs_per_s", normalize_rate(r["batch"]["pairs_per_s"], cal)),
            ("stream_pairs_per_s", normalize_rate(r["stream"]["pairs_per_s"], cal)),
        ):
            figures.setdefault(name, []).append(value)
    out = {name: statistics.median(values) for name, values in figures.items()}
    out["client_raw_mean_ms"] = all_sum / all_count
    return out


def _check_clean(children: Children, shm_before: set) -> None:
    """No child process, shared-memory segment or temp file may outlive
    the run."""
    left = descendants(os.getpid())
    if left:
        raise BenchError(f"child processes left running: {left}")
    leaked = shm_segments() - shm_before
    if leaked:
        raise BenchError(f"shared-memory segments left behind: {sorted(leaked)}")
    tmp_left = os.listdir(children.tmpdir)
    if tmp_left:
        raise BenchError(f"temporary files left behind: {tmp_left}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(rec: dict) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(s["normalized_s"] for s in rec["setup"]),
        "build_s": rec["build"]["timing"]["normalized_s"],
        "build_peak_mb": rec["build"]["peak_rss_mb"],
        "artifact_mb": rec["artifact_bytes"] / 2**20,
        "serve_pss_mb": rec["serve_pss_mb"],
        "stretch_mean": rec["stretch_mean"],
    }


def _metric_name(text: str) -> str:
    """A ledger phase name as a metric name part: ``(k,d)-nearest`` ->
    ``k-d-nearest``, ``hopset:total(theorem-12)`` ->
    ``hopset-total-theorem-12``."""
    return re.sub(r"[^A-Za-z0-9_.]+", "-", text).strip("-")


def _delta(rounds, i, j, key) -> float:
    """Sum over rounds of ``stats[j].stats[key] - stats[i].stats[key]``."""
    return sum(r["stats"][j]["stats"][key] - r["stats"][i]["stats"][key] for r in rounds)


def _worker_delta(rounds, i, j, key) -> float:
    return sum(
        sum(w[key] for w in r["stats"][j]["workers"])
        - sum(w[key] for w in r["stats"][i]["workers"])
        for r in rounds
    )


def per_layer(traced: dict, untraced: dict) -> Dict[str, float]:
    b = traced["build"]
    cal_build = b["timing"]["cal_s"]
    out: Dict[str, float] = {
        "graph.generate_s": b["graph_s"],
        "artifact.load_verify_s": statistics.median(s["load_s"] for s in traced["setup"]),
    }
    spans = b["spans"]
    for entry in KERNEL_ENTRIES + ("pool_map",):
        slot = spans.get(f"kernels.{entry}", {"calls": 0, "self_s": 0.0})
        out[f"kernels.{entry}_calls"] = slot["calls"]
        out[f"kernels.{entry}_s"] = normalize_time(slot["self_s"], cal_build)
    dispatch = b["auto_dispatch"]
    if dispatch:
        out["kernels.auto_parallel_frac"] = dispatch.get("parallel", 0) / sum(dispatch.values())
    out["kernels.shm_tracker_errors"] = traced["shm_tracker_errors"]
    if "artifact.save" in spans:
        out["artifact.save_s"] = normalize_time(spans["artifact.save"]["total_s"], cal_build)
    for phase, slot in (b["build_profile"].get("phases") or {}).items():
        out[f"build.phase.{_metric_name(phase)}_s"] = normalize_time(slot["wall_s"], cal_build)
    # The streamed tz build charges no rounds: its total reads as 0.
    out["cliquesim.rounds_total"] = b["rounds_total"] or 0.0
    for phase, rounds in b["rounds_breakdown"].items():
        out[f"cliquesim.rounds.{_metric_name(phase)}"] = rounds
    if "sharded.build" in spans:
        out["tz.arc_blocks_s"] = normalize_time(spans["tz.arc_blocks"]["total_s"], cal_build)
        out["sharded.shard_write_s"] = normalize_time(spans["sharded.build"]["self_s"], cal_build)
        out["tz.arcs"] = b["stats"]["bunch_edges"]
        out["tz.peak_resident_arcs"] = b["stats"]["peak_resident_arcs"]

    eng = traced["engine"]
    out["engine.batch_pairs_per_s"] = normalize_rate(
        eng["engine_batch_pairs"] / eng["timing"]["raw_s"], eng["timing"]["cal_s"])

    rounds = traced["rounds"]
    cal_serve = statistics.mean(r["timing"]["cal_s"] for r in rounds)
    hits = _delta(rounds, 0, 1, "cache_hits")
    misses = _delta(rounds, 0, 1, "cache_misses")
    # Coalesced singles reach the engine as batches, which bypass its
    # result cache: no lookups reads as a ratio of 0.
    out["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    serve_kernels = rounds[-1]["stats"][2]["kernels"]
    for entry in KERNEL_ENTRIES:
        slot = serve_kernels.get(f"kernels.serve.{entry}")
        if slot is not None or entry == "hop_limited_relax":
            slot = slot or {"calls": 0, "self_s": 0.0}
            out[f"kernels.serve.{entry}_calls"] = slot["calls"]
            out[f"kernels.serve.{entry}_s"] = normalize_time(slot["self_s"], cal_serve)
    if "workers" in rounds[0]["stats"][0]:
        # Worker ``queries`` count a same-shard pair once and a
        # cross-shard pair twice (stars on v's shard, combine on u's).
        reached = misses + _delta(rounds, 0, 1, "batched_queries")
        if reached:
            out["sharded.cross_shard_frac"] = (
                _worker_delta(rounds, 0, 1, "queries") - reached) / reached
        batches = sum(r["batch"]["batches"] for r in rounds)
        out["sharded.roundtrips_per_batch"] = _worker_delta(rounds, 1, 2, "requests") / batches
        g_sum = sum(r["shard_gather"][0] for r in rounds)
        g_count = sum(r["shard_gather"][1] for r in rounds)
        if g_count:
            out["sharded.shard_gather_ms"] = normalize_time(1e3 * g_sum / g_count, cal_serve)

    requests = sum(r["stages"]["requests"] for r in rounds)
    stage_ms = {k: 1e3 * sum(r["stages"][k] for r in rounds) / requests
                for k in STAGES + ("request",)}
    for stage in STAGES:
        out[f"service.stage.{stage}_ms"] = normalize_time(stage_ms[stage], cal_serve)
    out["service.request_ms"] = normalize_time(stage_ms["request"], cal_serve)
    c_sum = sum(r["coalesce"][0] for r in rounds)
    c_count = sum(r["coalesce"][1] for r in rounds)
    if c_count:
        out["coalesce.batch_size_mean"] = c_sum / c_count
    client_ms = traced["serving"]["client_raw_mean_ms"]
    out["client.residue_ms"] = normalize_time(client_ms - stage_ms["request"], cal_serve)
    out["trace.unexplained_frac"] = 1.0 - sum(stage_ms[s] for s in STAGES) / client_ms

    out["trace.build_overhead_frac"] = (
        b["timing"]["normalized_s"] / untraced["build"]["timing"]["normalized_s"] - 1.0)
    out["trace.overhead_frac"] = (
        traced["serving"]["p50_ms"] / untraced["serving"]["p50_ms"] - 1.0)
    return out


def _contract(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    contract = _contract(root)
    spec = WORKLOADS[args.workload]

    try:
        untraced = run_once(root, spec, args.seed, args.seconds, trace=False)
        if args.trace:
            traced = run_once(root, spec, args.seed, args.seconds, trace=True)
            values, declared = per_layer(traced, untraced), contract["per_layer"]
            runs = [untraced, traced]
        else:
            values, declared = end_to_end(untraced), contract["end_to_end"]
            runs = [untraced]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # A layer the workload never reaches (tz on a matrix build, the
        # round ledger on the streamed tz build, shard workers on an
        # unsharded mount) spent no time and made no calls there.
        for name in units:
            values.setdefault(name, 0.0)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {k: {"value": float(v), "unit": units[k]}
               for k, v in sorted(values.items()) if k in units}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics,
        "undeclared": {k: v for k, v in values.items() if k not in units},
        "layer_moves": LAYER_MOVES, "runs": runs,
    }
    os.makedirs(os.path.join(root, ".perfbench_runs"), exist_ok=True)
    out_path = os.path.join(
        root, ".perfbench_runs", f"{spec.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
