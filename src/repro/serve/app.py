"""The asyncio HTTP/JSON front-end: simulation as a service.

A deliberately small HTTP/1.1 server over stdlib ``asyncio`` streams --
no framework, no new dependencies.  Connections are **persistent**:
HTTP/1.1 keep-alive semantics (``Connection:`` headers honoured, close
on request for HTTP/1.0), a bounded request count per connection, and
an idle timeout between requests, so a high-rate client pays the TCP +
handshake cost once per *session*, not once per job.

Routes::

    POST   /jobs[?wait=s]        submit a job spec; 201 + dedupe summary
    POST   /jobs/batch[?wait=s]  submit many job specs in one body
    GET    /jobs                 job summaries, newest first
    GET    /jobs/{id}[?wait=s]   full status + results
    DELETE /jobs/{id}            cancel the job's pending points
    GET    /jobs/{id}/events     NDJSON progress stream until terminal
    GET    /healthz              liveness
    GET    /stats                queue depth, dedupe + data-plane counters

Completion is **pushed**: ``?wait=<seconds>`` on the three routes that
take it holds the request -- parked on the event loop, blocking nothing
-- until every job it names is terminal or the deadline passes, then
answers with the full ``GET /jobs/{id}`` payload (on a ``POST``:
inline, per job, beside ``location``), so a result costs one round trip
and no polling.  A deadline that passes first is not an error: the
response carries the job as it stands and the caller decides.  ``wait``
is clamped to :data:`MAX_WAIT_S`; a malformed value is a 400.  Without
``wait`` nothing is held and a ``POST`` answers with the summary.

Errors are structured JSON (``{"error": {"code", "message", ...}}``)
with the status taken from the raised :class:`ServeError`; an
unexpected exception is a 500 that never takes the server down -- and,
being framed with ``Content-Length``, never takes the connection down
either.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs

from repro.serve.backends import Backend, InProcessBackend, make_backend
from repro.serve.errors import JobNotFoundError, ProtocolError, ServeError
from repro.serve.jobs import TERMINAL, Job, JobManager
from repro.serve.protocol import parse_job_batch
from repro.sweep import RunCache, WorkloadEntry, workload_names

#: Largest request body accepted, to bound memory per connection.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-request header/body read timeout (first request on a
#: connection; see ``keepalive_idle_s`` for the between-request clock).
READ_TIMEOUT_S = 30.0

#: Longest a ``?wait=`` may hold one request; larger values are
#: clamped, not refused -- a caller that wants longer asks again.
MAX_WAIT_S = 60.0

#: Default idle window a kept-alive connection may sit between
#: requests before the server closes it.
KEEPALIVE_IDLE_S = 30.0

#: Default cap on requests served over one connection -- a backstop
#: against a single client pinning a connection (and its buffers)
#: forever.
MAX_REQUESTS_PER_CONNECTION = 1000

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large", 500: "Internal Server Error",
}


class JobServer:
    """The job server: routes + job manager + backend, one event loop."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: Optional[Backend] = None,
        cache: Optional[RunCache] = None,
        registry: Optional[Mapping[str, WorkloadEntry]] = None,
        max_jobs: int = 1024,
        keepalive_idle_s: float = KEEPALIVE_IDLE_S,
        max_requests_per_connection: int = MAX_REQUESTS_PER_CONNECTION,
    ):
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port on start()
        self.backend = backend if backend is not None else InProcessBackend()
        self.manager = JobManager(
            self.backend, cache=cache, registry=registry, max_jobs=max_jobs
        )
        self.keepalive_idle_s = keepalive_idle_s
        self.max_requests_per_connection = max_requests_per_connection
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = asyncio.Event()
        #: Live connection state, so close() can retire kept-alive
        #: connections instead of leaving them to be cancelled mid-read
        #: at loop teardown.
        self._conn_writers: set = set()
        self._conn_tasks: set = set()
        #: One task per request parked in a ``?wait=`` hold right now,
        #: done when the jobs it waits for are terminal.
        self._holds: set = set()
        #: Holds that parked at all / whose deadline passed before the
        #: jobs settled.
        self.waits_total = 0
        self.waits_expired = 0
        self.requests_served = 0
        self.connections_accepted = 0
        self.connections_open = 0
        #: Connections that served at least a second request -- the
        #: keep-alive win existing at all.
        self.connections_reused = 0
        #: Requests beyond the first on their connection -- each one an
        #: avoided TCP setup/teardown.
        self.requests_reused = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        """Run until :meth:`close` (used by the CLI entrypoint)."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Retire open keep-alive connections: closing the transport
        # EOFs the pending request read, so each handler returns
        # through its normal exit path.  Stragglers (e.g. a watcher
        # streaming a job that never finishes) are cancelled.
        for writer in list(self._conn_writers):
            writer.close()
        # A parked hold is not reading, so the EOF never reaches it:
        # end it, and its handler drops the connection unanswered.
        for settled in list(self._holds):
            settled.cancel()
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=2.0)
            for task in pending:
                task.cancel()
        self.backend.close()
        self._closed.set()

    # -- HTTP plumbing ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until it closes.

        HTTP/1.1 keep-alive: the loop keeps reading requests until the
        client asks to close (``Connection: close``, or an HTTP/1.0
        client that never opted in), the per-connection request cap is
        hit, the idle timeout expires between requests, or a response
        without ``Content-Length`` framing (the NDJSON event stream)
        has to close the connection to delimit itself.
        """
        self.connections_accepted += 1
        self.connections_open += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        served = 0
        try:
            while True:
                timeout = READ_TIMEOUT_S if served == 0 else self.keepalive_idle_s
                try:
                    method, path, query, headers, version, body = await asyncio.wait_for(
                        self._read_request(reader), timeout=timeout
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                    return  # unparsable, idle-expired, or closed: drop it
                served += 1
                self.requests_served += 1
                if served == 2:
                    self.connections_reused += 1
                if served > 1:
                    self.requests_reused += 1
                keep_alive = (
                    _wants_keepalive(version, headers)
                    and served < self.max_requests_per_connection
                )
                streamed = False
                try:
                    streamed = bool(
                        await self._dispatch(
                            method, path, query, body, writer, keep_alive=keep_alive
                        )
                    )
                except ServeError as exc:
                    await self._send_json(
                        writer, exc.status, exc.to_payload(), keep_alive=keep_alive
                    )
                except (ConnectionResetError, BrokenPipeError):
                    return  # client went away mid-response
                except Exception as exc:  # never let one request kill the server
                    await self._send_json(
                        writer,
                        500,
                        {"error": {"code": "internal",
                                   "message": f"{type(exc).__name__}: {exc}"}},
                        keep_alive=keep_alive,
                    )
                if streamed or not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            self.connections_open -= 1
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader
    ) -> Tuple[str, str, str, Dict[str, str], str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {request_line!r}")
        method, target, version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ValueError("body too large")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, headers, version.upper(), body

    async def _send_json(
        self,
        writer,
        status: int,
        payload: Any,
        extra_headers: Dict[str, str] = None,
        keep_alive: bool = False,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if extra_headers:
            headers.update(extra_headers)
        writer.write(_head(status, headers) + body)
        await writer.drain()

    # -- routing ------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        writer,
        keep_alive: bool = False,
    ) -> Optional[bool]:
        """Route one request; returns truthy when the response was a
        close-delimited stream (the connection cannot be reused)."""
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer, 200,
                {"status": "ok", "backend": self.backend.name,
                 "workloads": workload_names()},
                keep_alive=keep_alive,
            )
        elif path == "/stats" and method == "GET":
            stats = self.manager.stats()
            stats["uptime_s"] = round(time.time() - (self.started_at or time.time()), 3)
            stats["requests_served"] = self.requests_served
            stats["http"] = {
                "connections_accepted": self.connections_accepted,
                "connections_open": self.connections_open,
                "connections_reused": self.connections_reused,
                "requests_reused": self.requests_reused,
                "max_requests_per_connection": self.max_requests_per_connection,
                "keepalive_idle_s": self.keepalive_idle_s,
                "waits_total": self.waits_total,
                "waits_held": len(self._holds),
                "waits_expired": self.waits_expired,
            }
            await self._send_json(writer, 200, stats, keep_alive=keep_alive)
        elif path == "/jobs/batch" and method == "POST":
            await self._post_batch(body, _parse_wait(query), writer, keep_alive)
        elif path == "/jobs" and method == "POST":
            await self._post_job(body, _parse_wait(query), writer, keep_alive)
        elif path == "/jobs" and method == "GET":
            jobs = sorted(self.manager.jobs.values(), key=lambda j: j.id, reverse=True)
            await self._send_json(
                writer, 200, {"jobs": [j.summary() for j in jobs]},
                keep_alive=keep_alive,
            )
        elif len(segments) == 2 and segments[0] == "jobs" and method == "GET":
            job = self.manager.get(segments[1])  # unknown id: 404, never held
            await self._hold([job], _parse_wait(query))
            await self._send_json(writer, 200, job.to_payload(), keep_alive=keep_alive)
        elif len(segments) == 2 and segments[0] == "jobs" and method == "DELETE":
            report = self.manager.cancel(segments[1])
            await self._send_json(writer, 200, report, keep_alive=keep_alive)
        elif (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "events"
            and method == "GET"
        ):
            await self._stream_events(segments[1], writer)
            return True
        elif path in ("/healthz", "/stats", "/jobs") or (
            segments and segments[0] == "jobs"
        ):
            raise ServeErrorMethod(method, path)
        else:
            raise JobNotFoundError(f"no such route: {method} {path}")
        return False

    @staticmethod
    def _decode_body(body: bytes, what: str) -> Any:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None
        if payload is None:
            raise ProtocolError(what)
        return payload

    async def _hold(self, jobs: List[Job], wait_s: Optional[float]) -> None:
        """Park this request until every job is terminal or ``wait_s``
        has passed, whichever is first; neither is an error.  ``None``
        (the request carried no ``wait``) holds nothing.

        Only the calling connection's task waits: settle, ``DELETE``
        and worker death all wake it through the events the job emits.
        The caller keeps the ``Job`` objects, so a job evicted from the
        table meanwhile still answers with its result.
        """
        if wait_s is None:
            return
        pending = [job for job in jobs if job.state not in TERMINAL]
        if not pending:
            return  # settled inside the submit (all cache hits)
        settled = asyncio.ensure_future(_all_terminal(pending))
        self.waits_total += 1
        self._holds.add(settled)
        try:
            await asyncio.wait({settled}, timeout=wait_s)
            if settled.cancelled():
                # close() ended the hold, having closed our writer.
                raise ConnectionResetError("server closing")
            if not settled.done():
                self.waits_expired += 1
        finally:
            self._holds.discard(settled)
            settled.cancel()

    async def _submitted(
        self, jobs: List[Job], wait_s: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Each job's part of a submit response, beside its
        ``location``: the summary -- or, when the request asked to
        ``wait``, the full payload once the hold ends."""
        await self._hold(jobs, wait_s)
        views = []
        for job in jobs:
            view = job.summary() if wait_s is None else job.to_payload()
            view["location"] = f"/jobs/{job.id}"
            views.append(view)
        return views

    async def _post_job(
        self, body: bytes, wait_s: Optional[float], writer, keep_alive: bool
    ) -> None:
        payload = self._decode_body(body, "POST /jobs needs a JSON job spec body")
        job = self.manager.submit_payload(payload)
        (response,) = await self._submitted([job], wait_s)
        await self._send_json(
            writer, 201, response,
            extra_headers={"Location": response["location"]},
            keep_alive=keep_alive,
        )

    async def _post_batch(
        self, body: bytes, wait_s: Optional[float], writer, keep_alive: bool
    ) -> None:
        payload = self._decode_body(
            body, "POST /jobs/batch needs a JSON body with a 'jobs' list"
        )
        parsed = parse_job_batch(payload, resolve=self.manager.resolve)
        jobs = self.manager.submit_batch(parsed)
        summaries = await self._submitted(jobs, wait_s)
        dedupe = {"cache_hits": 0, "coalesced": 0, "scheduled": 0}
        for summary in summaries:
            for bucket, count in summary["dedupe"].items():
                dedupe[bucket] += count
        await self._send_json(
            writer, 201,
            {
                "jobs": summaries,
                "batch": {
                    "jobs": len(jobs),
                    "points": sum(s["points"] for s in summaries),
                    "dedupe": dedupe,
                },
            },
            keep_alive=keep_alive,
        )

    async def _stream_events(self, job_id: str, writer) -> None:
        job = self.manager.get(job_id)  # 404 before headers, not mid-stream
        writer.write(
            _head(
                200,
                {"Content-Type": "application/x-ndjson", "Connection": "close"},
            )
        )
        await writer.drain()
        async for event in job.stream_events():
            writer.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()


class ServeErrorMethod(ServeError):
    """Known path, wrong method (HTTP 405)."""

    status = 405
    code = "method-not-allowed"

    def __init__(self, method: str, path: str):
        super().__init__(f"{method} not allowed on {path}")


def _parse_wait(query: str) -> Optional[float]:
    """The ``wait`` query parameter in seconds, clamped to
    :data:`MAX_WAIT_S`; ``None`` when absent.  Every other parameter is
    ignored."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return None
    try:
        wait_s = float(values[-1])
    except ValueError:
        wait_s = float("nan")
    if not wait_s >= 0.0:  # negative, NaN or not a number at all
        raise ProtocolError(
            f"wait must be a number of seconds >= 0, got {values[-1]!r}",
            details={"wait": values[-1]},
        )
    return min(wait_s, MAX_WAIT_S)


async def _all_terminal(jobs: List[Job]) -> None:
    for job in jobs:
        await job.wait()


def _wants_keepalive(version: str, headers: Mapping[str, str]) -> bool:
    """HTTP/1.1 defaults to keep-alive; ``Connection: close`` (or an
    HTTP/1.0 client that never opted in) closes."""
    connection = headers.get("connection", "").lower()
    if "close" in connection:
        return False
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return True


def _head(status: int, headers: Dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8732,
    backend: str = "pool",
    workers: Optional[int] = None,
    cache_dir: Optional[str] = ".repro-cache",
    shards: int = 0,
    max_jobs: int = 1024,
) -> None:
    """Blocking entrypoint behind ``repro serve``: run until Ctrl-C."""
    cache = RunCache(cache_dir) if cache_dir else None

    async def _main() -> None:
        server = JobServer(
            host=host,
            port=port,
            backend=make_backend(backend, workers, shards=shards),
            cache=cache,
            max_jobs=max_jobs,
        )
        await server.start()
        sharding = f", shards={shards}" if shards and shards >= 2 else ""
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"(backend={backend}{sharding}, workers={server.backend.workers}, "
            f"cache={'off' if cache is None else cache.root}, "
            f"workloads: {', '.join(workload_names())})",
            flush=True,
        )
        try:
            await server.wait_closed()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
