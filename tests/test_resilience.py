"""The chaos suite: fault injection against the real serving stack.

Covers the ISSUE 6 acceptance properties: with faults injected at every
registered fault point — slow query past deadline, worker kill
mid-batch, torn artifact write, client disconnect, over-admission
burst — the server returns only typed JSON errors
(``503``/``504``/``409``/``413``/``4xx``), ``/healthz`` reflects
draining, thread counts return to baseline, a hung shard-pool worker
is timed out and its pool rebuilt with a :class:`ParallelFallback`
warning instead of hanging, and an interrupted ``save_artifact`` leaves
either the old artifact or no artifact — never a half-written directory
that ``load_artifact`` accepts.
"""

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
import zipfile

import numpy as np
import pytest

from repro import cli, oracle
from repro.graph import generators as gen
from repro.kernels import parallel as par
from repro.oracle import (
    AdmissionController,
    AdmissionRejected,
    ArtifactCorrupt,
    ArtifactError,
    Deadline,
    DeadlineExceeded,
    DistanceOracle,
    FAULTS,
    InjectedFault,
    OracleClient,
    OracleRouter,
    OracleService,
    build_oracle,
    load_artifact,
    save_artifact,
    start_async_server,
)
from repro.oracle.faults import FaultInjector


@pytest.fixture(autouse=True)
def clean_faults():
    """Every test starts and ends with a disarmed injector."""
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def served_graph():
    return gen.make_family("er_sparse", 70, seed=5)


@pytest.fixture(scope="module")
def matrix_artifact(served_graph):
    """A matrix-kind artifact (has the mapped estimates.npy)."""
    return build_oracle(
        served_graph, variant="2eps", rng=np.random.default_rng(2),
    )


@pytest.fixture(scope="module")
def bunches_artifact(served_graph):
    return build_oracle(
        served_graph, variant="tz", rng=np.random.default_rng(2)
    )


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_disarmed_fire_is_a_noop(self):
        inj = FaultInjector()
        assert not inj.armed
        inj.fire("service.handle")  # must not raise

    def test_unknown_point_and_kind_fail_loudly(self):
        inj = FaultInjector()
        with pytest.raises(ValueError, match="unknown fault point"):
            inj.arm("service.handel", "delay")
        with pytest.raises(ValueError, match="unknown fault kind"):
            inj.arm("service.handle", "explode")

    def test_error_fault_fires_and_times_out(self):
        inj = FaultInjector()
        inj.arm("engine.query_batch", "error", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault, match="engine.query_batch"):
                inj.fire("engine.query_batch")
        inj.fire("engine.query_batch")  # budget spent: disarmed
        assert not inj.armed

    def test_stage_gating(self):
        inj = FaultInjector()
        inj.arm("artifact.save", "error", stage="manifest")
        inj.fire("artifact.save", stage="arrays")  # no match: no-op
        with pytest.raises(InjectedFault):
            inj.fire("artifact.save", stage="manifest")

    def test_env_spec_parses_and_arms(self):
        inj = FaultInjector()
        n = inj.arm_from_env(
            "service.handle=delay:seconds=0.5,sharded.worker=kill"
        )
        assert n == 2
        assert inj.armed

    def test_removed_kernel_pool_point_is_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "parallel.worker=kill")
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector().arm_from_env()

    @pytest.mark.parametrize("spec", [
        "service.handle",                 # no kind
        "service.handle=delay:seconds",   # option without value
        "service.handle=delay:volume=11", # unknown option
        "nope.nope=delay",                # unknown point
    ])
    def test_malformed_env_spec_raises(self, spec):
        with pytest.raises(ValueError):
            FaultInjector().arm_from_env(spec)

    def test_times_file_budget_is_consumed(self, tmp_path):
        budget = tmp_path / "budget"
        budget.write_text("1")
        inj = FaultInjector()
        inj.arm("engine.query_batch", "error", times_file=str(budget))
        with pytest.raises(InjectedFault):
            inj.fire("engine.query_batch")
        inj.fire("engine.query_batch")  # budget spent: skipped
        assert budget.read_text() == "0"


# ----------------------------------------------------------------------
# Resilience primitives
# ----------------------------------------------------------------------

class TestDeadline:
    def test_resolve_policy(self):
        assert Deadline.resolve(None, None, 1000) is None
        assert Deadline.resolve(None, 50, 1000).timeout_ms == 50
        assert Deadline.resolve(80, 50, 1000).timeout_ms == 80
        assert Deadline.resolve(5000, None, 1000).timeout_ms == 1000  # capped

    @pytest.mark.parametrize("bad", ["100", True, [1], float("nan"), -5])
    def test_bad_requested_timeout_raises(self, bad):
        with pytest.raises(ValueError):
            Deadline.resolve(bad, None, 1000)

    def test_expiry_carries_progress(self):
        d = Deadline(0)
        with pytest.raises(DeadlineExceeded) as err:
            d.check({"completed": 3, "total": 10})
        assert err.value.progress == {"completed": 3, "total": 10}
        assert err.value.timeout_ms == 0


class TestAdmission:
    def test_over_limit_rejected_with_retry_after(self):
        ctrl = AdmissionController(1, retry_after=0.25)
        with ctrl.admit():
            with pytest.raises(AdmissionRejected) as err:
                with ctrl.admit():
                    pass
            assert err.value.retry_after == 0.25
        with ctrl.admit():  # slot released
            pass
        stats = ctrl.stats()
        assert stats["rejected"] == 1 and stats["admitted"] == 2

    def test_drain_waits_for_inflight(self):
        ctrl = AdmissionController(4)
        release = threading.Event()
        started = threading.Event()

        def hold():
            with ctrl.admit():
                started.set()
                release.wait(5)

        t = threading.Thread(target=hold)
        t.start()
        started.wait(5)
        assert not ctrl.drain(timeout=0.05)
        release.set()
        assert ctrl.drain(timeout=5)
        t.join()


# ----------------------------------------------------------------------
# Crash-safe artifacts
# ----------------------------------------------------------------------

_SAVE_STAGES = ("begin", "estimates", "arrays", "manifest", "rename", "swap")


class TestCrashSafeSave:
    @pytest.mark.parametrize("stage", _SAVE_STAGES)
    def test_interrupt_with_no_prior_artifact(
        self, stage, matrix_artifact, tmp_path
    ):
        """A first save interrupted anywhere leaves *no* artifact."""
        path = str(tmp_path / "a")
        FAULTS.arm("artifact.save", "error", stage=stage)
        if stage == "swap":  # no prior artifact: swap never runs
            FAULTS.disarm()
            save_artifact(matrix_artifact, path)
            assert load_artifact(path, verify=True)
            return
        with pytest.raises(InjectedFault):
            save_artifact(matrix_artifact, path)
        FAULTS.disarm()
        with pytest.raises(ArtifactError):
            load_artifact(path)

    @pytest.mark.parametrize("stage", _SAVE_STAGES)
    def test_interrupt_preserves_old_artifact(
        self, stage, served_graph, tmp_path
    ):
        """An overwrite interrupted anywhere leaves the *old* artifact
        loadable and checksum-clean."""
        old = build_oracle(
            served_graph, variant="near-additive", eps=0.5,
            rng=np.random.default_rng(2),
        )
        new = build_oracle(
            served_graph, variant="near-additive", eps=0.25,
            rng=np.random.default_rng(2),
        )
        path = str(tmp_path / "a")
        save_artifact(old, path)
        FAULTS.arm("artifact.save", "error", stage=stage)
        with pytest.raises(InjectedFault):
            save_artifact(new, path)
        FAULTS.disarm()
        survivor = load_artifact(path, verify=True)
        assert survivor.manifest["params"] == old.manifest["params"]
        # And the next (healthy) save completes and reaps any leftovers.
        save_artifact(new, path)
        assert load_artifact(path, verify=True).manifest["params"] == \
            new.manifest["params"]
        assert os.listdir(tmp_path) == ["a"]

    def test_leftover_tmp_dirs_are_reaped(self, matrix_artifact, tmp_path):
        path = str(tmp_path / "a")
        stale_tmp = tmp_path / "a.tmp-99999"
        stale_old = tmp_path / "a.old-99999"
        stale_tmp.mkdir()
        stale_old.mkdir()
        (stale_tmp / "junk").write_text("torn")
        save_artifact(matrix_artifact, path)
        assert not stale_tmp.exists() and not stale_old.exists()
        assert load_artifact(path, verify=True)


def _save_sharded(writer, g, path, r):
    """A 2-shard tz layout at ``path``: a re-partitioned in-memory build
    (``resave``) or the streamed build (``streamed``)."""
    if writer == "resave":
        art = build_oracle(g, variant="tz", r=r, rng=np.random.default_rng(2))
        oracle.save_sharded_artifact(art, path, shards=2)
    else:
        oracle.build_sharded_oracle(
            g, path, shards=2, variant="tz", r=r,
            rng=np.random.default_rng(2),
        )


class TestCrashSafeShardedSave:
    """The sharded layout writes through the same staged writer, so it
    keeps ``save_artifact``'s old-or-none guarantee at every stage."""

    @pytest.mark.parametrize("writer", ["resave", "streamed"])
    @pytest.mark.parametrize("stage", _SAVE_STAGES)
    def test_interrupt_with_no_prior_artifact(
        self, stage, writer, served_graph, tmp_path
    ):
        path = str(tmp_path / "a")
        if stage == "swap":  # no prior artifact: swap never runs
            _save_sharded(writer, served_graph, path, r=2)
            assert load_artifact(path, verify=True)
            return
        FAULTS.arm("artifact.save", "error", stage=stage)
        with pytest.raises(InjectedFault):
            _save_sharded(writer, served_graph, path, r=2)
        FAULTS.disarm()
        with pytest.raises(ArtifactError):
            load_artifact(path)
        # An in-process failure removes its own staging.
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("writer", ["resave", "streamed"])
    @pytest.mark.parametrize("stage", _SAVE_STAGES)
    def test_interrupt_preserves_old_artifact(
        self, stage, writer, served_graph, tmp_path
    ):
        path = str(tmp_path / "a")
        _save_sharded(writer, served_graph, path, r=2)
        FAULTS.arm("artifact.save", "error", stage=stage)
        with pytest.raises(InjectedFault):
            _save_sharded(writer, served_graph, path, r=1)
        FAULTS.disarm()
        assert os.listdir(tmp_path) == ["a"]
        survivor = load_artifact(path, verify=True)
        assert survivor.manifest["params"] == {"r": 2}
        # The next (healthy) save completes and reaps any leftovers.
        _save_sharded(writer, served_graph, path, r=1)
        assert load_artifact(path, verify=True).manifest["params"] == {"r": 1}
        assert os.listdir(tmp_path) == ["a"]


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, matrix_artifact, tmp_path):
        path = str(tmp_path / "a")
        save_artifact(matrix_artifact, path)
        return path

    def test_truncated_estimates_npy(self, saved):
        est = os.path.join(saved, "estimates.npy")
        size = os.path.getsize(est)
        with open(est, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(ArtifactCorrupt, match="estimates"):
            load_artifact(saved)

    def test_truncated_arrays_npz(self, saved):
        npz = os.path.join(saved, "arrays.npz")
        size = os.path.getsize(npz)
        with open(npz, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(ArtifactCorrupt, match="arrays.npz"):
            load_artifact(saved)

    def test_bit_flip_caught_by_checksums(self, saved):
        """A flipped payload byte that still parses structurally is
        caught by verify() — and names the flipped array."""
        est = os.path.join(saved, "estimates.npy")
        size = os.path.getsize(est)
        with open(est, "r+b") as fh:
            fh.seek(size - 8)  # a float64 in the data section
            byte = fh.read(1)
            fh.seek(size - 8)
            fh.write(bytes([byte[0] ^ 0x01]))
        loaded = load_artifact(saved)  # structurally fine
        with pytest.raises(ArtifactCorrupt, match="'estimates'"):
            loaded.verify()
        with pytest.raises(ArtifactCorrupt, match="checksum"):
            load_artifact(saved, verify=True)

    def test_npz_member_rewrite_caught_by_checksums(self, saved):
        """Rewriting an npz member (valid zip, wrong bytes) is invisible
        to the structural load but fails verification."""
        npz = os.path.join(saved, "arrays.npz")
        with zipfile.ZipFile(npz) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        victim = sorted(members)[0]
        blob = bytearray(members[victim])
        blob[-1] ^= 0xFF
        members[victim] = bytes(blob)
        with zipfile.ZipFile(npz, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(ArtifactCorrupt, match=victim.split(".npy")[0]):
            load_artifact(saved, verify=True)

    def test_manifest_array_mismatch(self, saved):
        manifest_file = os.path.join(saved, "manifest.json")
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        del manifest["checksums"]["estimates"]
        with open(manifest_file, "w") as fh:
            json.dump(manifest, fh)
        loaded = load_artifact(saved)
        with pytest.raises(ArtifactCorrupt, match="no checksum for array"):
            loaded.verify()

    def test_pre_checksum_manifest_rejected_gently(self, saved):
        manifest_file = os.path.join(saved, "manifest.json")
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        del manifest["checksums"]
        with open(manifest_file, "w") as fh:
            json.dump(manifest, fh)
        loaded = load_artifact(saved)  # loads fine (back-compat)
        with pytest.raises(ArtifactError, match="no per-array checksums"):
            loaded.verify()

    def test_verify_artifact_cli(self, saved, capsys):
        assert cli.main(["verify-artifact", "--artifact", saved]) == 0
        assert "arrays verified" in capsys.readouterr().out
        est = os.path.join(saved, "estimates.npy")
        size = os.path.getsize(est)
        with open(est, "r+b") as fh:
            fh.seek(size - 8)
            byte = fh.read(1)
            fh.seek(size - 8)
            fh.write(bytes([byte[0] ^ 0x01]))
        assert cli.main(["verify-artifact", "--artifact", saved]) == 2
        assert "checksum" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service-level resilience (transport-agnostic)
# ----------------------------------------------------------------------

class TestServiceResilience:
    @pytest.fixture
    def service(self, bunches_artifact):
        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS,
            max_inflight=1, max_batch=64, retry_after_s=0.2,
        )
        return OracleService(DistanceOracle(bunches_artifact), limits=limits)

    def test_zero_deadline_is_504_with_progress(self, service):
        status, body = service.handle(
            {"pairs": [[0, 1]] * 8, "timeout_ms": 0}
        )
        assert status == 504
        assert body["progress"] == {"completed": 0, "total": 8}
        assert "error" in body

    def test_partial_progress_reported(self, bunches_artifact):
        limits = dataclasses.replace(oracle.DEFAULT_LIMITS, batch_chunk=4)
        svc = OracleService(DistanceOracle(bunches_artifact), limits=limits)
        # One chunk completes, then the engine stalls past the deadline.
        FAULTS.arm("engine.query_batch", "delay", seconds=0.15, times=1)
        status, body = svc.handle(
            {"pairs": [[0, 1]] * 12, "timeout_ms": 50}
        )
        assert status == 504
        assert body["progress"]["total"] == 12
        assert body["progress"]["completed"] == 4  # first chunk landed

    @pytest.mark.parametrize("bad", ["soon", True, -3])
    def test_bad_timeout_is_400(self, service, bad):
        status, body = service.handle({"u": 0, "v": 1, "timeout_ms": bad})
        assert status == 400 and "timeout_ms" in body["error"]

    def test_oversized_batch_is_413(self, service):
        status, body = service.handle({"pairs": [[0, 1]] * 65})
        assert status == 413 and body["max_batch"] == 64

    def test_admission_burst_sheds_with_503(self, service):
        FAULTS.arm("service.handle", "delay", seconds=0.5, times=1)
        results = {}

        def first():
            results["first"] = service.handle({"u": 0, "v": 1})

        t = threading.Thread(target=first)
        t.start()
        deadline = time.monotonic() + 3
        status = 200
        while status == 200 and time.monotonic() < deadline:
            status, body = service.handle({"u": 0, "v": 2})
        t.join()
        assert status == 503
        assert body["retry_after"] == 0.2
        assert results["first"][0] == 200
        # The slot was released: traffic flows again.
        assert service.handle({"u": 0, "v": 3})[0] == 200
        assert service.info()["serving"]["rejected"] >= 1

    def test_injected_engine_error_is_typed_500(self, service):
        FAULTS.arm("engine.query_batch", "error", times=1)
        status, body = service.handle({"pairs": [[0, 1]]})
        assert status == 500
        assert "InjectedFault" in body["error"]
        assert service.handle({"pairs": [[0, 1]]})[0] == 200


# ----------------------------------------------------------------------
# HTTP-level chaos (the real server)
# ----------------------------------------------------------------------

def _post(base, body, path="/query", timeout=5):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode()
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _raw_exchange(srv, request: bytes, timeout=5):
    """Send raw bytes, read until the server closes; returns
    ``(status, headers, body, closed)`` — ``closed`` is False when the
    read timed out with the connection still open."""
    host, port = srv.server_address[:2]
    chunks = []
    closed = True
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            closed = False
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(
        line.split(": ", 1) for line in lines[1:] if ": " in line
    )
    return int(lines[0].split()[1]), headers, body, closed


def _read_reply(sock) -> str:
    """Read one whole keep-alive reply from ``sock``: the head up to the
    blank line, then ``Content-Length`` body bytes (a reply may arrive in
    several segments)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        body += chunk
    return (head + b"\r\n\r\n" + body).decode("latin-1")


class TestHTTPChaos:
    # The single param keeps the historical ``[async]`` test ids.
    @pytest.fixture(params=["async"])
    def server(self, request, bunches_artifact):
        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS,
            max_inflight=2, max_batch=64, max_body_bytes=4096,
            retry_after_s=0.1, drain_timeout_s=5.0,
        )
        router = OracleRouter()
        router.mount("tz", DistanceOracle(bunches_artifact), limits=limits)
        handle = start_async_server(router, port=0, limits=limits)
        host, port = handle.server_address[:2]
        try:
            yield handle, f"http://{host}:{port}"
        finally:
            handle.drain_and_shutdown()

    def test_typed_errors_only_and_threads_recover(self, server):
        _, base = server
        baseline = threading.active_count()
        FAULTS.arm("service.handle", "delay", seconds=0.3, times=2)
        seen = set()
        threads = []
        out = []

        def fire():
            out.append(_post(base, {"u": 0, "v": 1, "timeout_ms": 10000}))

        for _ in range(6):
            threads.append(threading.Thread(target=fire))
            threads[-1].start()
        for t in threads:
            t.join()
        for status, body, headers in out:
            seen.add(status)
            assert status in (200, 503)
            if status == 503:
                assert "error" in body
                assert headers.get("Retry-After") == "0.1"
        assert 200 in seen
        # Thread count returns to baseline (the per-request threads die).
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= baseline

    def test_deadline_maps_to_504(self, server):
        _, base = server
        status, body, _ = _post(base, {"pairs": [[0, 1]] * 8,
                                       "timeout_ms": 0})
        assert status == 504 and body["progress"]["completed"] == 0

    def test_body_cap_is_413(self, server):
        _, base = server
        status, body, _ = _post(base, {"pairs": [[0, 1]] * 2000})
        assert status == 413 and "max_body_bytes" in body

    def test_missing_content_length_is_411(self, server):
        srv, base = server
        host, port = srv.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n\r\n")
            reply = sock.recv(512).decode()
        assert "411" in reply.splitlines()[0]

    @pytest.mark.parametrize(
        "header", ["-5", "0", "banana", "1_6", "+16"]
    )
    def test_bad_content_length_is_400(self, server, header):
        srv, base = server
        host, port = srv.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {header}\r\n\r\n".encode()
            )
            reply = sock.recv(512).decode()
        assert "400" in reply.splitlines()[0]

    def test_unsupported_method_is_501(self, server):
        srv, _ = server
        status, _, body, closed = _raw_exchange(
            srv, b"PUT /query HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 501 and "PUT" in json.loads(body)["error"]
        assert closed

    def test_http10_closes_unless_keep_alive_asked(self, server):
        srv, _ = server
        # HTTP/1.0 without keep-alive: answered, then closed (probes
        # that read until EOF must see EOF).
        status, headers, body, closed = _raw_exchange(
            srv, b"GET /healthz HTTP/1.0\r\n\r\n", timeout=3
        )
        assert status == 200 and json.loads(body)["ok"] is True
        assert headers["Connection"] == "close"
        assert closed
        # An explicit keep-alive holds the connection for a second
        # request on the same socket.
        host, port = srv.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            for _ in range(2):
                sock.sendall(
                    b"GET /healthz HTTP/1.0\r\n"
                    b"Connection: keep-alive\r\n\r\n"
                )
                reply = _read_reply(sock)
                assert reply.startswith("HTTP/1.1 200")
                assert "Connection: keep-alive" in reply

    def _http_errors(self, base, status):
        from repro.telemetry import parse_exposition

        with urllib.request.urlopen(base + "/metrics", timeout=5) as resp:
            snap = parse_exposition(resp.read().decode())
        return snap.value(
            "repro_http_errors_total", frontend="async", status=str(status)
        )

    def test_header_count_cap_is_431(self, server):
        srv, base = server
        many = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(98))
        # 100 headers (Host + 98 + Connection) is the cap: still served.
        status, _, _, _ = _raw_exchange(
            srv,
            f"GET /healthz HTTP/1.1\r\nHost: t\r\n{many}"
            "Connection: close\r\n\r\n".encode(),
        )
        assert status == 200
        before = self._http_errors(base, 431)
        status, headers, body, closed = _raw_exchange(
            srv,
            f"POST /query HTTP/1.1\r\nX-Request-Id: too-many\r\n"
            f"{many}{many}\r\n".encode(),
        )
        assert status == 431 and "100" in json.loads(body)["error"]
        assert headers["X-Request-Id"] == "too-many"
        assert closed
        assert self._http_errors(base, 431) == before + 1

    def test_overlong_header_line_is_431(self, server):
        srv, base = server
        before = self._http_errors(base, 431)
        status, headers, body, closed = _raw_exchange(
            srv,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            + b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert status == 431 and "too long" in json.loads(body)["error"]
        assert headers.get("X-Request-Id")
        assert closed
        assert self._http_errors(base, 431) == before + 1

    def test_overlong_request_line_is_414(self, server):
        srv, _ = server
        status, headers, _, closed = _raw_exchange(
            srv, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        )
        assert status == 414 and headers.get("X-Request-Id")
        assert closed

    def test_overlong_stream_line_is_413(self, server):
        """A /stream ndjson line over the 64 KiB reader limit (a 9000-pair
        batch, ~72 KB) gets a typed in-stream 413 after the earlier
        lines' answers, is counted, and the stream closes cleanly."""
        srv, base = server
        before = self._http_errors(base, 413)
        pairs = [[i % 50, (i * 7) % 50] for i in range(9000)]
        big = json.dumps({"pairs": pairs}).encode()
        assert len(big) > 70_000
        status, headers, body, closed = _raw_exchange(
            srv,
            b"POST /stream/tz HTTP/1.1\r\nHost: t\r\n"
            b"X-Request-Id: big-line\r\n\r\n"
            b'{"u": 0, "v": 1}\n' + big + b"\n" + b'{"u": 1, "v": 2}\n',
        )
        assert status == 200 and headers["X-Request-Id"] == "big-line"
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert [line["status"] for line in lines] == [200, 413]
        assert "line limit" in lines[1]["error"]
        assert lines[1]["request_id"] == "big-line"
        assert lines[1]["max_line_bytes"] == 1 << 16
        assert closed
        assert self._http_errors(base, 413) == before + 1

    def test_stream_refusal_carries_request_id(self, server):
        srv, _ = server
        status, headers, body, closed = _raw_exchange(
            srv,
            b"POST /stream/nope HTTP/1.1\r\nHost: t\r\n"
            b"X-Request-Id: no-mount\r\n\r\n",
        )
        assert status == 404 and headers["X-Request-Id"] == "no-mount"
        assert "error" in json.loads(body)
        assert closed

    def test_client_disconnect_counted_not_crashed(self, server):
        srv, base = server
        host, port = srv.server_address[:2]
        payload = json.dumps({"u": 0, "v": 1}).encode()
        FAULTS.arm("service.handle", "delay", seconds=0.3, times=1)
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        # Hang up before the (delayed) response is written; RST makes
        # the server's write fail with BrokenPipe/ConnectionReset.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            __import__("struct").pack("ii", 1, 0),
        )
        sock.close()
        deadline = time.monotonic() + 5
        count = 0
        while count == 0 and time.monotonic() < deadline:
            with urllib.request.urlopen(base + "/info", timeout=5) as resp:
                count = json.loads(resp.read())["http"]["client_disconnects"]
            time.sleep(0.05)
        assert count >= 1
        # And the server still answers.
        assert _post(base, {"u": 0, "v": 1})[0] == 200

    def test_drain_completes_inflight_and_flips_healthz(self, server):
        srv, base = server
        FAULTS.arm("service.handle", "delay", seconds=0.8, times=1)
        results = {}

        def slow():
            results["slow"] = _post(base, {"u": 0, "v": 1}, timeout=10)[0]

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.2)
        drainer = threading.Thread(target=srv.drain_and_shutdown)
        drainer.start()
        time.sleep(0.1)
        try:
            urllib.request.urlopen(base + "/healthz", timeout=2)
            pytest.fail("healthz stayed 200 while draining")
        except urllib.error.HTTPError as exc:
            assert exc.code == 503
            draining_body = json.loads(exc.read())
            assert draining_body["ok"] is False
            assert draining_body["draining"] is True
        status, body, headers = _post(base, {"u": 0, "v": 2}, timeout=2)
        assert status == 503 and body["draining"] is True
        assert headers.get("Retry-After")
        drainer.join(timeout=10)
        t.join(timeout=10)
        assert results["slow"] == 200  # the in-flight request finished

    def test_resilient_client_rides_out_a_burst(self, server):
        _, base = server
        client = OracleClient(
            base, max_attempts=6, backoff_s=0.05, jitter=0.0
        )
        FAULTS.arm("service.handle", "delay", seconds=0.4, times=2)
        threads = [
            threading.Thread(
                target=lambda: _post(base, {"u": 0, "v": 1}, timeout=10)
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)
        status, body = client.query({"u": 0, "v": 2})
        for t in threads:
            t.join()
        assert status == 200 and "distance" in body

    def test_cli_query_url(self, server, capsys):
        _, base = server
        assert cli.main(["query", "--url", base, "--u", "0", "--v", "1"]) == 0
        assert "d(0, 1) <=" in capsys.readouterr().out

    def test_cli_query_url_closes_its_client(self, server):
        """``repro query --url`` must not leave its keep-alive socket to
        the garbage collector: under ``-W error::ResourceWarning`` an
        unclosed socket reports on stderr."""
        _, base = server
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "repro",
             "query", "--url", base, "--u", "0", "--v", "1", "--cert"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "d(0, 1) <=" in proc.stdout
        assert "ResourceWarning" not in proc.stderr, proc.stderr

    def test_cli_query_rejects_both_sources(self, capsys):
        code = cli.main([
            "query", "--artifact", "/tmp/x", "--url", "http://x",
            "--u", "0", "--v", "1",
        ])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err


# ----------------------------------------------------------------------
# /metrics accounting identity under chaos (ISSUE 9)
# ----------------------------------------------------------------------

class TestMetricsAccounting:
    """Under a faulted burst, the server-side ``/metrics`` counters must
    reconcile *exactly* with what the clients observed: every request
    that reached the mounted service appears in ``repro_requests_total``
    once, under the status the client saw, and nothing else."""

    # The single param keeps the historical ``[async]`` test ids.
    @pytest.fixture(params=["async"])
    def server(self, request, bunches_artifact):
        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS,
            max_inflight=2, retry_after_s=0.05, drain_timeout_s=5.0,
        )
        router = OracleRouter()
        router.mount("tz", DistanceOracle(bunches_artifact), limits=limits)
        handle = start_async_server(router, port=0, limits=limits)
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            yield request.param, base
        finally:
            handle.drain_and_shutdown()

    def _scrape(self, base):
        from repro.telemetry import parse_exposition

        with urllib.request.urlopen(base + "/metrics", timeout=5) as resp:
            return parse_exposition(resp.read().decode())

    def test_faulted_burst_reconciles_with_metrics(self, server):
        frontend, base = server
        before = self._scrape(base)
        FAULTS.arm("service.handle", "delay", seconds=0.08, times=4)
        attempts = 24
        observed = []
        lock = threading.Lock()

        def one(i):
            body = {"u": i % 5, "v": (i + 7) % 11, "timeout_ms": 2000}
            if i % 6 == 0:  # a few requests carry an already-dead budget
                body["timeout_ms"] = 0
            status, _, _ = _post(base, body, timeout=10)
            with lock:
                observed.append(status)

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(attempts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert len(observed) == attempts
        assert set(observed) <= {200, 503, 504}
        delta = self._scrape(base).delta(before)
        # Identity: every attempt is in requests_total exactly once...
        assert delta.total("repro_requests_total", mount="tz") == attempts
        # ...under the status the client saw, status by status.
        for status in sorted(set(observed)):
            assert delta.value(
                "repro_requests_total", mount="tz", status=str(status)
            ) == float(observed.count(status))
        # Nothing was malformed, so the pre-service error counter for
        # this burst stayed flat.
        assert delta.total("repro_http_errors_total") == 0.0
        # Cross-check the typed counters against /info's resilience
        # block (both are fed by the same service instance).
        with urllib.request.urlopen(base + "/info/tz", timeout=5) as resp:
            info = json.loads(resp.read())
        serving = info["serving"]
        assert delta.value(
            "repro_deadline_exceeded_total", mount="tz"
        ) == float(observed.count(504))
        assert delta.value(
            "repro_admission_rejected_total", mount="tz"
        ) == float(observed.count(503))
        assert serving["rejected"] >= observed.count(503)
        assert serving["deadline_exceeded"] >= observed.count(504)


# ----------------------------------------------------------------------
# SIGTERM drain smoke (full process, the CI chaos leg's core)
# ----------------------------------------------------------------------

class TestSigtermDrain:
    # The single param keeps the historical ``[async]`` test id.
    @pytest.mark.parametrize("frontend", ["async"])
    def test_sigterm_drains_inflight_and_exits_zero(
        self, matrix_artifact, tmp_path, frontend
    ):
        path = str(tmp_path / "a")
        save_artifact(matrix_artifact, path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        env["PYTHONUNBUFFERED"] = "1"
        # Every request stalls 0.8 s inside the service: the batch fired
        # below is guaranteed to be in flight when SIGTERM lands.
        env["REPRO_FAULTS"] = "service.handle=delay:seconds=0.8"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", path, "--port", "0", "--drain-timeout", "10"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            base = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "healthz" in line:
                    base = line.split("GET ")[1].split("/info")[0]
                    break
            assert base, "server never printed its URL"
            with urllib.request.urlopen(base + "/info", timeout=5) as resp:
                assert json.loads(resp.read())["http"]["frontend"] == frontend
            results = {}

            def inflight():
                results["batch"] = _post(
                    base, {"pairs": [[0, 1]] * 16}, timeout=20
                )[0]

            t = threading.Thread(target=inflight)
            t.start()
            time.sleep(0.3)  # the batch is inside the 0.8s delay
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=20)
            assert results["batch"] == 200  # drained, not dropped
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# Pool supervision budget (the sharded oracle's worker pool)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bunches_layout(bunches_artifact, tmp_path_factory):
    """``bunches_artifact`` saved as a 2-shard layout."""
    path = str(tmp_path_factory.mktemp("layout") / "tz2")
    oracle.save_sharded_artifact(bunches_artifact, path, shards=2)
    return path


def _two_shard_pool(path):
    """A 2-shard ShardedOracle on its forked worker pool."""
    if not par.fork_available():
        pytest.skip("fork start method unavailable")
    return oracle.ShardedOracle.load(path, pool=True)


class TestPoolSupervision:
    def test_bad_pool_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv(par.ENV_POOL_TIMEOUT_VAR, "soon")
        with pytest.raises(ValueError, match="REPRO_POOL_TIMEOUT"):
            par.pool_timeout()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_pool_timeout_rejected(self, monkeypatch, value):
        # A nan or inf budget makes `now >= deadline` never true.
        monkeypatch.setenv(par.ENV_POOL_TIMEOUT_VAR, value)
        with pytest.raises(ValueError, match="REPRO_POOL_TIMEOUT"):
            par.pool_timeout()

    def test_sharded_load_rejects_nan_timeout(
        self, monkeypatch, bunches_layout
    ):
        monkeypatch.setenv(par.ENV_POOL_TIMEOUT_VAR, "nan")
        with pytest.raises(ValueError, match="REPRO_POOL_TIMEOUT"):
            _two_shard_pool(bunches_layout)

    def test_timeout_read_once_at_pool_start(
        self, monkeypatch, bunches_artifact, bunches_layout
    ):
        monkeypatch.delenv(par.ENV_POOL_TIMEOUT_VAR, raising=False)
        so = _two_shard_pool(bunches_layout)
        try:
            # Changed after the pool started: later batches ignore it.
            monkeypatch.setenv(par.ENV_POOL_TIMEOUT_VAR, "abc")
            us = np.arange(so.n)
            vs = us[::-1].copy()
            want = DistanceOracle(bunches_artifact).query_batch(us, vs)
            assert np.array_equal(so.query_batch(us, vs), want)
            assert so.stats()["shard_mode"] == "pool"
        finally:
            so.close()

    def test_hung_shard_worker_times_out_and_rebuilds(
        self, monkeypatch, bunches_artifact, bunches_layout, tmp_path
    ):
        monkeypatch.setenv(par.ENV_POOL_TIMEOUT_VAR, "0.5")
        budget = tmp_path / "hangs"
        budget.write_text("1")  # exactly one shard worker stalls once
        FAULTS.arm(
            "sharded.worker", "delay", seconds=60, times_file=str(budget)
        )
        so = _two_shard_pool(bunches_layout)
        try:
            us = np.arange(so.n)
            vs = us[::-1].copy()
            want = DistanceOracle(bunches_artifact).query_batch(us, vs)
            start = time.monotonic()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = so.query_batch(us, vs)
            assert time.monotonic() - start < 30  # not the 60 s stall
            assert np.array_equal(got, want)
            messages = [str(w.message) for w in caught
                        if issubclass(w.category, par.ParallelFallback)]
            assert any("no progress" in m for m in messages)
            assert so.stats()["pool_rebuilds"] == 1
        finally:
            so.close()


# ----------------------------------------------------------------------
# Mounts take no options: removed options and flags exit 2
# ----------------------------------------------------------------------

class TestMountOverrides:
    @staticmethod
    def _serve_exits_2(args, message):
        """``repro serve`` with ``args`` exits 2 with ``message`` and no
        traceback, before it binds a port (no ``serving`` line)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0"] + args,
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "serving" not in proc.stdout

    def test_removed_cache_size_option_rejected(
        self, matrix_artifact, tmp_path
    ):
        # A mount takes no options: `,cache_size=1` is read as part of a
        # path that holds no artifact, and argparse rejects the removed
        # serve-wide flag.
        pa = str(tmp_path / "a")
        save_artifact(matrix_artifact, pa)
        self._serve_exits_2(
            ["--artifact", f"na={pa},cache_size=1"],
            f"{pa + ',cache_size=1'!r} is not an oracle artifact",
        )
        self._serve_exits_2(
            ["--artifact", pa, "--cache-size", "5"], "--cache-size"
        )

    def test_removed_shards_option_and_mmap_flag_rejected(
        self, matrix_artifact, tmp_path
    ):
        # A plain artifact is never partitioned in memory, and the
        # load mode is the artifact's, never a flag's.
        pa = str(tmp_path / "a")
        save_artifact(matrix_artifact, pa)
        self._serve_exits_2(
            ["--artifact", f"na={pa},shards=4"],
            f"{pa + ',shards=4'!r} is not an oracle artifact",
        )
        self._serve_exits_2(["--artifact", pa, "--mmap"], "--mmap")

    def test_removed_telemetry_switch_rejected(self, matrix_artifact, tmp_path):
        # Metric collection is always on: there is no off flag and no
        # limits field for one.
        pa = str(tmp_path / "a")
        save_artifact(matrix_artifact, pa)
        self._serve_exits_2(
            ["--artifact", pa, "--no-telemetry"], "--no-telemetry"
        )
        with pytest.raises(TypeError, match="telemetry"):
            oracle.ServingLimits(telemetry=False)

    def test_removed_parallel_backend_rejected(self, matrix_artifact):
        # The engine takes no backend argument.
        with pytest.raises(TypeError, match="backend"):
            DistanceOracle(matrix_artifact, backend="parallel")
