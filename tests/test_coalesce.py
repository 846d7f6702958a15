"""The request coalescer and the async serving front end (ISSUE 7).

Unit level: :class:`QueryCoalescer` flush triggers (window expiry, size
threshold, drain), per-request deadline handling inside a parked batch,
and fault-injected flush failures mapping to *per-request* errors.
HTTP level: the asyncio front end's keep-alive connections, coalesced
``/query`` singles showing up as multi-query batches in ``/info``,
explicit-batch bypass, served answers bit-identical to in-process
``query_batch`` (single, batch and ``/stream``; tz and matrix mounts),
and the keep-alive client's transparent reconnect.  The
failure-semantics contract (503/504/413/431/400, drain, disconnect
accounting) is exercised by the chaos suite in ``test_resilience.py``.
"""

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import oracle
from repro.graph import generators as gen
from repro.oracle import (
    DistanceOracle,
    FAULTS,
    OracleClient,
    build_oracle,
    start_async_server,
)
from repro.oracle.coalesce import CoalescerClosed, QueryCoalescer
from repro.oracle.resilience import Deadline, DeadlineExceeded


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def graph():
    return gen.make_family("er_sparse", 70, seed=5)


@pytest.fixture(scope="module")
def exact(graph):
    from repro.graph.distances import all_pairs_distances

    return all_pairs_distances(graph)


@pytest.fixture(scope="module")
def artifact(graph):
    return build_oracle(graph, variant="exact", rng=np.random.default_rng(2))


@pytest.fixture
def engine(artifact):
    return DistanceOracle(artifact)


# ----------------------------------------------------------------------
# Unit: flush triggers
# ----------------------------------------------------------------------

class TestCoalescerUnit:
    def test_window_flush_batches_concurrent_singles(self, engine, exact):
        co = QueryCoalescer(engine, window_ms=25.0, max_batch=512)
        try:
            futures = [co.submit(0, v) for v in range(1, 9)]
            values = [f.result(timeout=5) for f in futures]
            assert values == [float(exact[0, v]) for v in range(1, 9)]
            stats = co.stats()
            # All eight parked inside one 25 ms window: one gather.
            assert stats["batches"] == 1
            assert stats["coalesced"] == 8
            assert stats["largest_batch"] == 8
            assert stats["flushes"]["window"] == 1
            assert stats["flushes"]["size"] == 0
        finally:
            co.close()

    def test_size_flush_fires_before_window(self, engine):
        co = QueryCoalescer(engine, window_ms=10_000.0, max_batch=4)
        try:
            start = time.monotonic()
            futures = [co.submit(0, v) for v in range(1, 5)]
            for f in futures:
                f.result(timeout=5)
            # A 10 s window cannot have expired: the size trigger fired.
            assert time.monotonic() - start < 5.0
            assert co.stats()["flushes"]["size"] >= 1
        finally:
            co.close()

    def test_drain_flushes_parked_queries(self, engine, exact):
        co = QueryCoalescer(engine, window_ms=60_000.0, max_batch=512)
        f = co.submit(0, 1)
        co.close()  # parked query is answered, not abandoned
        assert f.result(timeout=5) == float(exact[0, 1])
        assert co.stats()["flushes"]["drain"] == 1

    def test_submit_after_close_raises(self, engine):
        co = QueryCoalescer(engine, window_ms=1.0, max_batch=4)
        co.close()
        with pytest.raises(CoalescerClosed):
            co.submit(0, 1)

    def test_expired_deadline_rejected_individually(self, engine, exact):
        co = QueryCoalescer(engine, window_ms=25.0, max_batch=512)
        try:
            dead = Deadline(0.0)
            time.sleep(0.005)
            doomed = co.submit(0, 1, deadline=dead)
            alive = co.submit(0, 2)
            # The expired waiter fails alone; its batch-mate is served.
            assert alive.result(timeout=5) == float(exact[0, 2])
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=5)
            assert err.value.progress == {"completed": 0, "total": 1}
        finally:
            co.close()

    def test_flush_fault_fails_each_parked_request(self, engine):
        co = QueryCoalescer(engine, window_ms=25.0, max_batch=512)
        try:
            FAULTS.arm("coalesce.flush", "error", times=1)
            futures = [co.submit(0, v) for v in range(1, 4)]
            for f in futures:
                with pytest.raises(Exception) as err:
                    f.result(timeout=5)
                assert "InjectedFault" in type(err.value).__name__
            # The coalescer survives the failed flush.
            assert co.submit(0, 1).result(timeout=5) >= 0
        finally:
            co.close()

    def test_close_idempotent_and_thread_exits(self, engine):
        baseline = threading.active_count()
        co = QueryCoalescer(engine, window_ms=1.0, max_batch=4)
        assert threading.active_count() == baseline + 1
        co.close()
        co.close()
        assert threading.active_count() == baseline

    def test_rejects_bad_parameters(self, engine):
        with pytest.raises(ValueError):
            QueryCoalescer(engine, window_ms=-1.0, max_batch=4)
        with pytest.raises(ValueError):
            QueryCoalescer(engine, window_ms=1.0, max_batch=0)


# ----------------------------------------------------------------------
# HTTP: the async front end
# ----------------------------------------------------------------------

def assert_served_matches_query_batch(base, engine, queries, name=None):
    """Single ``/query`` posts, one batch ``/query`` and one ``/stream``
    burst (singles plus a batch line) must all return exactly what an
    in-process ``engine.query_batch`` over ``queries`` returns (JSON
    ``null`` is an unreachable ``inf``)."""
    us = np.array([u for u, _ in queries], dtype=np.int64)
    vs = np.array([v for _, v in queries], dtype=np.int64)
    want = [
        float(x) if np.isfinite(x) else None
        for x in engine.query_batch(us, vs)
    ]
    pairs = [[u, v] for u, v in queries]
    with OracleClient(base) as c:
        singles = [
            c.query({"u": u, "v": v}, name=name) for u, v in queries
        ]
        status, batch = c.query({"pairs": pairs}, name=name)
        streamed = c.stream_queries(
            [{"u": u, "v": v} for u, v in queries] + [{"pairs": pairs}],
            name=name,
        )
    assert [s for s, _ in singles] == [200] * len(queries)
    assert [body["distance"] for _, body in singles] == want
    assert status == 200 and batch["distances"] == want
    assert [r["status"] for r in streamed] == [200] * (len(queries) + 1)
    assert [r["distance"] for r in streamed[:-1]] == want
    assert streamed[-1]["distances"] == want



@pytest.fixture
def async_server(artifact):
    import dataclasses

    limits = dataclasses.replace(
        oracle.DEFAULT_LIMITS, coalesce_window_ms=5.0, coalesce_max=256
    )
    handle = start_async_server(DistanceOracle(artifact), limits=limits)
    host, port = handle.server_address[:2]
    try:
        yield handle, f"http://{host}:{port}"
    finally:
        handle.drain_and_shutdown()


class TestAsyncFrontend:
    def test_concurrent_singles_coalesce_into_one_gather(
        self, async_server, engine
    ):
        """Concurrent singles are answered bit-identically to one
        in-process ``query_batch``, and they were coalesced (mean
        flushed batch > 1)."""
        handle, base = async_server
        out = {}

        def fire(v):
            with OracleClient(base) as c:
                out[v] = c.query({"u": 0, "v": v})

        threads = [
            threading.Thread(target=fire, args=(v,)) for v in range(1, 17)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = engine.query_batch(np.zeros(16, np.int64), np.arange(1, 17))
        for v in range(1, 17):
            status, body = out[v]
            assert status == 200
            assert body["distance"] == float(want[v - 1])
        info = json.loads(
            urllib.request.urlopen(base + "/info", timeout=5).read()
        )
        stats = info["coalescing"]
        assert stats["coalesced"] == 16
        # Fewer gathers than queries: coalescing actually happened.
        assert stats["batches"] < 16
        assert stats["mean_batch"] > 1.0
        assert stats["largest_batch"] >= 2
        assert info["http"]["frontend"] == "async"

    def test_served_singles_reach_the_engine_only_as_batches(
        self, async_server, exact
    ):
        """Repeated single ``/query`` posts over a few hot pairs are all
        answered by coalesced ``query_batch`` gathers: none takes the
        engine's single-query path."""
        handle, base = async_server
        hot = [(0, 1), (2, 3), (4, 5)]
        out = {}

        def fire(k):
            with OracleClient(base) as c:
                out[k] = [
                    c.query({"u": u, "v": v})
                    for u, v in (hot[(k + i) % len(hot)] for i in range(30))
                ]

        threads = [threading.Thread(target=fire, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for k in range(4):
            for i, (status, body) in enumerate(out[k]):
                u, v = hot[(k + i) % len(hot)]
                assert status == 200
                assert body["distance"] == pytest.approx(float(exact[u, v]))
        info = json.loads(
            urllib.request.urlopen(base + "/info", timeout=5).read()
        )
        stats = info["stats"]
        assert stats["queries"] == stats["batched_queries"] == 120
        assert stats["cache_hits"] == 0

    def test_keep_alive_many_queries_one_connection(self, async_server, exact):
        handle, base = async_server
        with OracleClient(base) as c:
            for v in range(1, 30):
                status, body = c.query({"u": 0, "v": v})
                assert status == 200
                assert body["distance"] == pytest.approx(float(exact[0, v]))
            assert c.reconnects == 0

    def test_explicit_batch_bypasses_coalescer(self, async_server, exact):
        handle, base = async_server
        pairs = [[0, v] for v in range(1, 11)]
        with OracleClient(base) as c:
            before = handle.router.services()[0].coalescer.stats()["coalesced"]
            status, body = c.query({"pairs": pairs})
            assert status == 200
            assert body["distances"] == pytest.approx(
                [float(exact[0, v]) for v in range(1, 11)]
            )
            after = handle.router.services()[0].coalescer.stats()["coalesced"]
        assert after == before  # the batch never parked

    @pytest.mark.parametrize("variant", ["exact", "tz"])
    def test_served_answers_bit_identical_to_query_batch(
        self, graph, variant
    ):
        art = build_oracle(graph, variant=variant, rng=np.random.default_rng(2))
        rng = np.random.default_rng(11)
        queries = [
            (int(rng.integers(art.n)), int(rng.integers(art.n)))
            for _ in range(60)
        ]
        handle = start_async_server(DistanceOracle(art))
        try:
            assert_served_matches_query_batch(
                "http://%s:%s" % handle.server_address[:2],
                DistanceOracle(art),
                queries,
            )
        finally:
            handle.drain_and_shutdown()

    def test_out_of_range_vertex_is_400_not_batch_poison(
        self, async_server, exact
    ):
        handle, base = async_server
        n = handle.router.services()[0].oracle.n
        ok = {}

        def good():
            with OracleClient(base) as c:
                ok["status"], ok["body"] = c.query({"u": 0, "v": 1})

        t = threading.Thread(target=good)
        t.start()
        with OracleClient(base) as c:
            bad_status, bad_body = c.query({"u": 0, "v": n + 5})
        t.join()
        assert bad_status == 400 and "out of range" in bad_body["error"]
        assert ok["status"] == 200  # the batch-mate was unharmed

    def test_drain_shutdown_restores_thread_count(self, artifact):
        baseline = threading.active_count()
        handle = start_async_server(DistanceOracle(artifact))
        base = "http://%s:%s" % handle.server_address[:2]
        with OracleClient(base) as c:
            assert c.query({"u": 0, "v": 1})[0] == 200
        assert handle.drain_and_shutdown() is True
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        # Loop thread, executor workers, and coalescer are all gone.
        assert threading.active_count() <= baseline

    def test_healthz_and_unknown_route(self, async_server):
        handle, base = async_server
        health = json.loads(
            urllib.request.urlopen(base + "/healthz", timeout=5).read()
        )
        assert health["ok"] is True
        with OracleClient(base) as c:
            status, _ = c.query({"u": 0, "v": 1}, name="nope")
            assert status == 404


# ----------------------------------------------------------------------
# The keep-alive client's reconnect discipline
# ----------------------------------------------------------------------

class TestClientReconnect:
    def test_stale_socket_transparent_reconnect(self, artifact):
        eng = DistanceOracle(artifact)
        handle = start_async_server(eng)
        host, port = handle.server_address[:2]
        base = f"http://{host}:{port}"
        client = OracleClient(base)
        try:
            assert client.query({"u": 0, "v": 1})[0] == 200
            assert client.reconnects == 0
            # Kill the server; restart on the same port: the client's
            # kept-alive socket is now stale.
            handle.drain_and_shutdown()
            handle = start_async_server(eng, port=port)
            status, body = client.query({"u": 0, "v": 2})
            assert status == 200 and "distance" in body
            assert client.reconnects == 1
            assert client.retries == 0  # transparent, not a backoff retry
        finally:
            client.close()
            handle.drain_and_shutdown()

    def test_fresh_connection_failure_not_masked(self):
        # Nothing listens here: a fresh-connection failure must surface
        # through the backoff ladder, not loop on "reconnect".
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = OracleClient(
            f"http://127.0.0.1:{port}", max_attempts=2,
            backoff_s=0.01, jitter=0.0,
        )
        with pytest.raises(oracle.ClientRetriesExhausted):
            client.query({"u": 0, "v": 1})
        assert client.reconnects == 0
