"""A resilient HTTP client for the oracle serving endpoint.

:class:`OracleClient` wraps the stdlib ``http.client`` with the retry
discipline the serving stack's failure semantics call for (DESIGN.md
§7): a ``503`` (shed load, draining instance) or a dropped connection
is **transient** — the request is retried with exponential backoff and
jitter, honoring the server's ``Retry-After`` hint when it sends one —
while every other status is **definitive** and returned to the caller
as-is (a ``400`` will not become a ``200`` by retrying it).  The CLI's
``repro query --url`` runs on this client, and it is the piece a
load-generation harness points at a fleet.

The client holds one **keep-alive** connection and reuses it across
calls — against the HTTP front end every query after the first skips
the TCP handshake, which is most of a single query's cost.  A reused
socket can always have gone stale between requests (server drained,
idle timeout, HTTP/1.0 peer closing per-request); the client detects
the stale-socket error, transparently reconnects exactly once, and
counts the event in :attr:`OracleClient.reconnects`.  Servers that
answer ``Connection: close`` (an HTTP/1.0-style peer, or an error
response sent before the body was read) simply cost a fresh connection
per call — correct, just slower, and *not* counted
as a reconnect.

No new dependencies: ``http.client`` + ``json`` only.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ClientRetriesExhausted", "OracleClient", "OracleClientError"]


class OracleClientError(Exception):
    """A client-side failure talking to the serving endpoint."""


class ClientRetriesExhausted(OracleClientError):
    """Every attempt failed on a *transient* condition (connection
    reset/refused, timeout); carries the attempt count and last cause."""

    def __init__(self, message: str, attempts: int, last_error: Exception):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


#: Transport-level exceptions worth retrying: the connection died or was
#: never made — nothing definitive was received.
_TRANSIENT_ERRORS = (
    ConnectionResetError,
    ConnectionRefusedError,
    BrokenPipeError,
    TimeoutError,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
)

#: Errors that mean "the kept-alive socket went stale between requests"
#: — safe to reconnect and resend transparently, because the previous
#: request on the connection completed, so nothing is in flight.
_STALE_ERRORS = (
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionResetError,
    BrokenPipeError,
)


class OracleClient:
    """Retrying keep-alive JSON client for one serving base URL.

    ``max_attempts`` bounds total tries (first call + retries);
    backoff doubles from ``backoff_s`` up to ``backoff_cap_s`` with
    ``jitter`` (a fraction of the delay, randomized to decorrelate a
    retrying fleet).  A ``503`` response's ``Retry-After`` header (or
    ``retry_after`` body hint) overrides the computed backoff.

    One TCP connection is held open and reused across calls; a stale
    socket is replaced transparently (:attr:`reconnects` counts the
    replacements).  Not thread-safe — give each worker its own client.
    """

    def __init__(
        self,
        base_url: str,
        max_attempts: int = 4,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        jitter: float = 0.1,
        timeout_s: float = 30.0,
        rng: Optional[random.Random] = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https"):
            raise OracleClientError(
                f"unsupported URL scheme {parsed.scheme!r} in "
                f"{base_url!r}; expected http:// or https://"
            )
        self._scheme = parsed.scheme
        self._netloc = parsed.netloc
        self._path_prefix = parsed.path.rstrip("/")
        self.max_attempts = int(max_attempts)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.jitter = float(jitter)
        self.timeout_s = float(timeout_s)
        self._rng = rng or random.Random()
        self.retries = 0  # total backoff retries performed (introspection)
        self.reconnects = 0  # stale keep-alive sockets replaced
        #: The server's ``X-Request-Id`` from the most recent response —
        #: quote it when reporting a failure so the server-side trace
        #: (request logs, debug spans) can be found.
        self.last_request_id: Optional[str] = None
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_used = False  # a request completed on self._conn

    # ------------------------------------------------------------------
    def query(
        self, request: Dict[str, object], name: Optional[str] = None
    ) -> Tuple[int, Dict[str, object]]:
        """POST one request dict to ``/query[/<name>]``; returns
        ``(status, body)`` after retrying transient failures."""
        path = "/query" if name is None else f"/query/{name}"
        return self._call("POST", path, request)

    def info(self, name: Optional[str] = None) -> Tuple[int, Dict[str, object]]:
        """GET ``/info[/<name>]``."""
        path = "/info" if name is None else f"/info/{name}"
        return self._call("GET", path, None)

    def stream_queries(
        self,
        requests: Sequence[Dict[str, object]],
        name: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Send a burst of requests over one ``POST /stream[/<name>]``
        newline-delimited channel.

        Every request dict is written as one JSON line on a dedicated
        long-lived connection, pipelined — the server parks single
        distance queries in its coalescer and answers the burst with one
        vectorized gather.  Returns the response bodies **in request
        order**, each extended with ``"status"``.  No retries: a stream
        is one unit of work — callers retry the whole call.  Writing
        runs on a helper thread so arbitrarily large bursts cannot
        deadlock both socket buffers.
        """
        if self._scheme != "http":
            raise OracleClientError(
                "stream_queries supports http:// base URLs only"
            )
        path = self._path_prefix + (
            "/stream" if name is None else f"/stream/{name}"
        )
        host, _, port = self._netloc.partition(":")
        requests = list(requests)
        try:
            sock = socket.create_connection(
                (host, int(port or 80)), timeout=self.timeout_s
            )
        except OSError as exc:
            raise OracleClientError(
                f"POST {self.base_url}{path} failed to connect: {exc}"
            )
        try:
            head = (
                f"POST {path} HTTP/1.1\r\n"
                f"Host: {self._netloc}\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            write_error: List[BaseException] = []

            def _pump() -> None:
                try:
                    sock.sendall(head)
                    for request in requests:
                        sock.sendall(json.dumps(request).encode() + b"\n")
                    sock.sendall(b"\n")  # blank line: end of stream
                except BaseException as exc:  # noqa: BLE001 — reported
                    write_error.append(exc)

            pump = threading.Thread(
                target=_pump, name="oracle-stream-writer", daemon=True
            )
            pump.start()
            fh = sock.makefile("rb")
            status_line = fh.readline().decode("latin-1")
            parts = status_line.split()
            status = int(parts[1]) if len(parts) >= 2 else 0
            length: Optional[int] = None
            while True:
                hline = fh.readline()
                if hline in (b"\r\n", b"\n", b""):
                    break
                key, _, val = hline.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(val.strip())
            if status != 200:
                # A framed pre-stream rejection (draining, bad mount).
                raw = fh.read(length) if length else fh.read()
                body = _json_body(raw)
                body["status"] = status
                pump.join(timeout=self.timeout_s)
                return [body]
            out: List[Dict[str, object]] = []
            for _ in requests:
                line = fh.readline()
                if not line:
                    raise OracleClientError(
                        f"stream ended after {len(out)} of "
                        f"{len(requests)} responses"
                        + (
                            f" (send failed: {write_error[0]})"
                            if write_error else ""
                        )
                    )
                out.append(json.loads(line))
            pump.join(timeout=self.timeout_s)
            if write_error:
                raise OracleClientError(
                    f"stream write failed: {write_error[0]}"
                )
            return out
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        """GET ``/healthz`` (no retries — health must reflect now)."""
        return self._once("GET", "/healthz", None)

    def metrics_text(self) -> str:
        """GET ``/metrics``: the server's Prometheus text exposition,
        raw (parse with :func:`repro.telemetry.parse_exposition`)."""
        try:
            status, raw, _ = self._roundtrip("GET", "/metrics", None)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise OracleClientError(
                f"GET {self.base_url}/metrics failed: {exc}"
                f"{self._id_suffix()}"
            )
        if status != 200:
            raise OracleClientError(
                f"GET {self.base_url}/metrics returned {status}"
                f"{self._id_suffix()}"
            )
        return raw.decode("utf-8")

    def close(self) -> None:
        """Drop the kept-alive connection (idempotent)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
            self._conn_used = False

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _call(
        self, method: str, path: str, payload: Optional[Dict[str, object]]
    ) -> Tuple[int, Dict[str, object]]:
        last_error: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            retry_after: Optional[float] = None
            try:
                status, raw, headers = self._roundtrip(method, path, payload)
                body = _json_body(raw)
                if status != 503:
                    return status, body
                # Shed load / draining: transient by contract.
                if attempt >= self.max_attempts:
                    return status, body
                retry_after = _retry_after_hint(headers, body)
                last_error = None
            except _TRANSIENT_ERRORS as exc:
                self.close()
                last_error = exc
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                raise OracleClientError(
                    f"{method} {self.base_url}{path} failed: {exc}"
                    f"{self._id_suffix()}"
                )
            if attempt >= self.max_attempts:
                break
            self.retries += 1
            time.sleep(self._delay(attempt, retry_after))
        raise ClientRetriesExhausted(
            f"{method} {self.base_url}{path} failed after "
            f"{self.max_attempts} attempts: {last_error}"
            f"{self._id_suffix()}",
            attempts=self.max_attempts,
            last_error=last_error
            if last_error is not None
            else OracleClientError("server kept shedding load (503)"),
        )

    def _once(
        self, method: str, path: str, payload
    ) -> Tuple[int, Dict[str, object]]:
        try:
            status, raw, _ = self._roundtrip(method, path, payload)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise OracleClientError(
                f"{method} {self.base_url}{path} failed: {exc}"
                f"{self._id_suffix()}"
            )
        return status, _json_body(raw)

    def _id_suffix(self) -> str:
        """`` (last X-Request-Id: ...)`` when a response has been seen —
        the handle into the server's logs for this client's traffic."""
        if self.last_request_id is None:
            return ""
        return f" (last X-Request-Id: {self.last_request_id})"

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(self._netloc, timeout=self.timeout_s)
            self._conn_used = False
        return self._conn

    def _roundtrip(self, method, path, payload):
        """One request/response over the kept-alive connection.

        A stale socket (previous request succeeded, this send or the
        status line fails) is replaced and the request resent exactly
        once — a *fresh* connection's failure propagates to the
        ``_call`` backoff ladder instead, since reconnecting again
        cannot help."""
        was_used = self._conn_used
        try:
            return self._send(method, path, payload)
        except _STALE_ERRORS:
            if not was_used:
                raise
            self.close()
            self.reconnects += 1
            return self._send(method, path, payload)

    def _send(self, method, path, payload):
        conn = self._connection()
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            conn.request(method, self._path_prefix + path, data, headers)
            resp = conn.getresponse()
            raw = resp.read()
        except BaseException:
            # Whatever happened, this socket can no longer be trusted
            # to frame the next response.
            self.close()
            raise
        status, resp_headers = resp.status, resp.headers
        request_id = resp_headers.get("X-Request-Id")
        if request_id is not None:
            self.last_request_id = request_id
        if resp.will_close:
            # Server asked for Connection: close (e.g. an error sent
            # before the body was read) — drop quietly; not a
            # stale-socket event.
            self.close()
        else:
            self._conn_used = True
        return status, raw, resp_headers

    def _delay(self, attempt: int, retry_after: Optional[float]) -> float:
        if retry_after is not None:
            base = max(0.0, retry_after)
        else:
            base = min(
                self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1))
            )
        spread = base * self.jitter
        return max(0.0, base + self._rng.uniform(-spread, spread))


def _retry_after_hint(headers, body) -> Optional[float]:
    """The server's retry hint: the ``Retry-After`` header, else the
    JSON body's ``retry_after``, else None (computed backoff)."""
    value = headers.get("Retry-After") if headers is not None else None
    if value is None and isinstance(body, dict):
        value = body.get("retry_after")
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _json_body(raw: bytes) -> Dict[str, object]:
    try:
        body = json.loads(raw or b"{}")
    except json.JSONDecodeError:
        return {"error": f"non-JSON response body: {raw[:200]!r}"}
    return body if isinstance(body, dict) else {"response": body}
