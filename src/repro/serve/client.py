"""A small synchronous client for the job server, plus a test harness.

The client speaks plain stdlib ``http.client`` over a **pool of
persistent connections**: the server's HTTP/1.1 keep-alive means a
high-rate caller pays TCP setup once per connection, not once per
request.  A pooled connection the server has since idle-closed is
detected on use and transparently retried on a fresh one; a connection
that times out or dies *mid-response* surfaces as a typed
:class:`~repro.serve.errors.ServeTransportError` carrying the request
context (method, path, job id when identifiable, bytes/events read) --
never a bare socket error.  ``keep_alive=False`` restores the old
one-connection-per-request behaviour.

Completion is **pushed, not polled**: ``run`` / ``run_batch`` / ``wait``
ask the server to hold the request (``?wait=<seconds>``) until the jobs
settle, so a result costs one round trip.  The hold asked for is
derived, never configured: the time left to the caller's deadline,
capped at a fixed share of the socket timeout, and re-issued until the
job is terminal -- a healthy hold cannot trip the socket timeout and a
job longer than one hold still completes.

:func:`serve_in_thread` runs a :class:`JobServer` on its own event loop
in a daemon thread, so synchronous code (pytest, demos) can exercise
the full HTTP path without managing asyncio itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serve.app import JobServer
from repro.serve.errors import ServeClientError, ServeError, ServeTransportError

#: Job states a waiter treats as finished.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Share of the socket timeout one server-side hold may take; the rest
#: is the server's to answer in once the hold ends.
_HOLD_SHARE = 0.5

#: What a *stale* pooled connection raises: the peer closed it before
#: any response byte (``http.client.RemoteDisconnected`` is a
#: ``ConnectionResetError``).  Only these earn the retry -- never a
#: timeout, whose request the server may be holding on purpose.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _job_id_from_path(path: str) -> Optional[str]:
    """The job id named by a ``/jobs/{id}[...]`` path, if any."""
    segments = [s for s in path.partition("?")[0].split("/") if s]
    if len(segments) >= 2 and segments[0] == "jobs" and segments[1] != "batch":
        return segments[1]
    return None


def _held(path: str, wait: Optional[float]) -> str:
    """``path``, asking the server to hold the request ``wait`` seconds."""
    return path if wait is None else f"{path}?wait={wait:.3f}"


class ServeClient:
    """Talk to a running job server over HTTP/JSON.

    Thread-safe: the connection pool is guarded by a lock and each
    in-flight request owns its connection exclusively.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8732,
        timeout: float = 30.0,
        keep_alive: bool = True,
        pool_size: int = 4,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.keep_alive = keep_alive
        self.pool_size = pool_size
        self._pool: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # -- connection pool ----------------------------------------------

    def _fresh(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _acquire(self) -> "Tuple[http.client.HTTPConnection, bool]":
        """A connection plus whether it was pooled (already used once).

        Only pooled connections risk the stale-keep-alive race (the
        server idle-closing between our requests), so only they earn a
        retry on failure.
        """
        with self._lock:
            if self._pool:
                return self._pool.pop(), True
        return self._fresh(), False

    def _release(self, conn: http.client.HTTPConnection) -> None:
        if not self.keep_alive:
            conn.close()
            return
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Drop every pooled connection; the client stays usable."""
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> "tuple[int, Any]":
        """One round trip; returns ``(status, decoded_json)`` raw.

        Error statuses are returned, not raised -- tests assert on
        them; the typed helpers below raise :class:`ServeClientError`.
        Transport failures (server gone, socket timeout, connection
        closed before or during the response) raise
        :class:`ServeTransportError`.
        """
        body = None
        headers: Dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if not self.keep_alive:
            headers["Connection"] = "close"

        for attempt in (0, 1):
            if attempt == 0:
                conn, pooled = self._acquire()
            else:
                conn, pooled = self._fresh(), False
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                if pooled and isinstance(exc, _STALE_ERRORS):
                    continue  # stale keep-alive connection: retry fresh
                raise ServeTransportError(
                    f"{method} {path}: no response from "
                    f"{self.host}:{self.port} ({type(exc).__name__}: {exc})",
                    method=method,
                    path=path,
                    job_id=_job_id_from_path(path),
                ) from exc
            try:
                text = response.read().decode("utf-8")
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                partial = getattr(exc, "partial", b"") or b""
                raise ServeTransportError(
                    f"{method} {path}: server closed the connection "
                    f"mid-response (status {response.status}, "
                    f"{len(partial)} bytes read)",
                    method=method,
                    path=path,
                    job_id=_job_id_from_path(path),
                    partial_bytes=len(partial),
                ) from exc
            if response.will_close:
                conn.close()
            else:
                self._release(conn)
            decoded = json.loads(text) if text else None
            return response.status, decoded
        raise AssertionError("unreachable: fresh-connection attempt raises")

    def _checked(self, method: str, path: str, payload: Any = None) -> Any:
        status, decoded = self.request(method, path, payload)
        if status >= 400:
            message = (
                decoded.get("error", {}).get("message", "")
                if isinstance(decoded, dict)
                else str(decoded)
            )
            raise ServeClientError(
                f"{method} {path} -> {status}: {message}",
                status=status,
                payload=decoded,
            )
        return decoded

    # -- API ----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/stats")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._checked("GET", "/jobs")["jobs"]

    def submit(
        self,
        workload: str,
        configs: List[Dict[str, Any]],
        seed: int = 0,
        wait: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a job; returns the submit summary (job_id, dedupe).

        With ``wait`` the server holds the request up to that many
        seconds for the job to settle and answers with the full
        payload (results included) as it then stands.
        """
        return self._checked(
            "POST",
            _held("/jobs", wait),
            {"workload": workload, "configs": configs, "seed": seed},
        )

    def submit_batch(
        self, jobs: List[Dict[str, Any]], wait: Optional[float] = None
    ) -> Dict[str, Any]:
        """Submit many job specs in one request (``POST /jobs/batch``).

        Each element is a full job spec dict (``workload``, ``configs``
        or ``config``, optional ``seed``).  Returns the batch summary:
        per-job summaries (with ``location``) plus aggregated dedupe.
        With ``wait`` the server holds the request up to that many
        seconds for every job to settle, and each per-job entry is the
        full payload as it then stands.
        """
        return self._checked("POST", _held("/jobs/batch", wait), {"jobs": jobs})

    def job(self, job_id: str) -> Dict[str, Any]:
        """The job's full payload as it stands now (never held)."""
        return self._checked("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job's pending points (``DELETE /jobs/{id}``)."""
        return self._checked("DELETE", f"/jobs/{job_id}")

    def _hold_s(self, deadline: float) -> float:
        """The hold to ask of the server now: the time left to the
        caller's ``deadline``, capped so it cannot trip the socket
        timeout."""
        return max(0.0, min(deadline - time.monotonic(), self.timeout * _HOLD_SHARE))

    def _wait(self, job_id: str, deadline: float, timeout: float) -> Dict[str, Any]:
        """One held ``GET`` after another until the job is terminal or
        ``deadline`` passes (``timeout`` is what the caller asked for,
        quoted in the error)."""
        while True:
            payload = self._checked(
                "GET", _held(f"/jobs/{job_id}", self._hold_s(deadline))
            )
            if payload["state"] in TERMINAL_STATES:
                return payload
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout}s waiting for {job_id} "
                    f"(state {payload['state']}, "
                    f"{payload['settled']}/{payload['points']} settled)"
                )

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block until the job is terminal; returns its full payload.

        The server holds each ``GET`` until the job settles, so this
        returns as the result lands, not on a poll tick.
        """
        return self._wait(job_id, time.monotonic() + timeout, timeout)

    def run(
        self,
        workload: str,
        configs: List[Dict[str, Any]],
        seed: int = 0,
        timeout: float = 60.0,
    ) -> Dict[str, Any]:
        """Submit and wait; the one-call path the demo and bench use.

        One held ``POST`` carries the result back (beside its
        ``location``); only a job that outlasts a hold costs more.
        """
        deadline = time.monotonic() + timeout
        payload = self.submit(workload, configs, seed=seed, wait=self._hold_s(deadline))
        if payload["state"] not in TERMINAL_STATES:
            payload = self._wait(payload["job_id"], deadline, timeout)
        return payload

    def run_batch(
        self, jobs: List[Dict[str, Any]], timeout: float = 60.0
    ) -> List[Dict[str, Any]]:
        """Submit a batch and wait for every job; full payloads in
        order, all from the one held ``POST`` unless a job outlasts it."""
        deadline = time.monotonic() + timeout
        batch = self.submit_batch(jobs, wait=self._hold_s(deadline))
        return [
            payload
            if payload["state"] in TERMINAL_STATES
            else self._wait(payload["job_id"], deadline, timeout)
            for payload in batch["jobs"]
        ]

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's NDJSON progress events until it finishes.

        The stream is close-delimited, so it rides its own dedicated
        connection, never a pooled one.
        """
        conn = self._fresh()
        received = 0
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/events")
                response = conn.getresponse()
            except (http.client.HTTPException, OSError) as exc:
                raise ServeTransportError(
                    f"GET /jobs/{job_id}/events: no response from "
                    f"{self.host}:{self.port} ({type(exc).__name__}: {exc})",
                    method="GET",
                    path=f"/jobs/{job_id}/events",
                    job_id=job_id,
                ) from exc
            if response.status >= 400:
                text = response.read().decode("utf-8")
                decoded = json.loads(text) if text else None
                raise ServeClientError(
                    f"GET /jobs/{job_id}/events -> {response.status}",
                    status=response.status,
                    payload=decoded,
                )
            while True:
                try:
                    line = response.readline()
                except (http.client.HTTPException, OSError) as exc:
                    raise ServeTransportError(
                        f"GET /jobs/{job_id}/events: server closed the "
                        f"stream mid-flight after {received} events "
                        f"({type(exc).__name__}: {exc})",
                        method="GET",
                        path=f"/jobs/{job_id}/events",
                        job_id=job_id,
                        events_received=received,
                    ) from exc
                if not line:
                    return
                line = line.strip()
                if line:
                    received += 1
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()


class ServerHandle:
    """What :func:`serve_in_thread` yields: address + a bound client."""

    def __init__(self, server: JobServer, loop: asyncio.AbstractEventLoop):
        self.server = server
        self.loop = loop

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, timeout: float = 30.0, **kwargs) -> ServeClient:
        return ServeClient(
            self.server.host, self.server.port, timeout=timeout, **kwargs
        )


@contextlib.contextmanager
def serve_in_thread(startup_timeout: float = 10.0, **server_kwargs):
    """Run a :class:`JobServer` in a daemon thread; yield a handle.

    The server (and its asyncio primitives) is constructed *inside* the
    thread's event loop; shutdown is requested thread-safely and the
    thread joined on exit.
    """
    started = threading.Event()
    state: Dict[str, Any] = {}

    async def _main() -> None:
        server = JobServer(**server_kwargs)
        try:
            await server.start()
        except Exception as exc:
            state["error"] = exc
            started.set()
            return
        state["server"] = server
        state["loop"] = asyncio.get_running_loop()
        started.set()
        try:
            await server.wait_closed()
        finally:
            await server.close()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=startup_timeout):
        raise ServeError("job server failed to start within the timeout")
    if "error" in state:
        raise state["error"]
    server: JobServer = state["server"]
    loop: asyncio.AbstractEventLoop = state["loop"]
    try:
        yield ServerHandle(server, loop)
    finally:
        def _shutdown() -> None:
            asyncio.ensure_future(server.close())

        try:
            loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            pass  # loop already gone
        thread.join(timeout=startup_timeout)
