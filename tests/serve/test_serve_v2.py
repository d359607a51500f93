"""The v2 data plane: keep-alive, batches, cancellation, worker death.

Same style as ``test_serve_e2e``: every test boots a real server on an
ephemeral port and exercises the wire path.  Raw-socket helpers cover
the HTTP mechanics (keep-alive negotiation, truncated responses) the
pooled client is designed to hide.
"""

import asyncio
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.serve import (
    BackendError,
    InProcessBackend,
    PoolBackend,
    ServeClientError,
    ServeTransportError,
    serve_in_thread,
)
from repro.sweep import RunCache, WorkloadEntry

from tests.serve._workloads import (
    CrashConfig,
    SleepyConfig,
    crash_point,
    sleepy_point,
)

LU2D_CONFIGS = [
    {"prows": 2, "pcols": 2, "n": 32},
    {"prows": 1, "pcols": 2, "n": 32},
]


def _registry():
    return {
        "sleepy": WorkloadEntry("sleepy", sleepy_point, SleepyConfig, "zzz"),
        "crash": WorkloadEntry("crash", crash_point, CrashConfig, "boom"),
    }


def _raw_roundtrip(sock, request: bytes):
    """Send one raw HTTP request; return (status_line, headers, body)."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed before headers")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return lines[0], headers, rest


def _one_shot_server(handler):
    """A raw TCP server that serves exactly one connection via handler."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def run():
        conn, _ = srv.accept()
        try:
            handler(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            srv.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread


def _read_request(conn) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                client.healthz()
                client.jobs()
                client.healthz()
                stats = client.stats()
        http = stats["http"]
        assert http["connections_accepted"] == 1
        assert http["connections_reused"] == 1
        assert http["requests_reused"] == 3
        assert stats["requests_served"] == 4

    def test_connection_close_disables_reuse(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client(keep_alive=False) as client:
                client.healthz()
                client.healthz()
                stats = client.stats()
        http = stats["http"]
        assert http["connections_accepted"] == 3
        assert http["connections_reused"] == 0
        assert http["requests_reused"] == 0

    def test_request_cap_recycles_the_connection(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=1), max_requests_per_connection=2
        ) as handle:
            with handle.client() as client:
                for _ in range(6):
                    client.healthz()
                stats = client.stats()
        http = stats["http"]
        # Three connections of exactly two requests, plus the stats call
        # opening a fresh one after the third was capped out.
        assert http["connections_accepted"] == 4
        assert http["connections_reused"] == 3
        assert http["requests_reused"] == 3

    def test_idle_timeout_then_stale_retry(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=1), keepalive_idle_s=0.2
        ) as handle:
            with handle.client() as client:
                client.healthz()
                time.sleep(0.6)  # server idles the kept-alive connection out
                # The pooled connection is dead; the client must detect it
                # and transparently retry on a fresh one.
                assert client.healthz()["status"] == "ok"
                stats = client.stats()
        assert stats["http"]["connections_accepted"] >= 2

    def test_http10_negotiation_raw(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as s:
                status, headers, _ = _raw_roundtrip(
                    s, b"GET /healthz HTTP/1.0\r\n\r\n"
                )
                assert "200" in status
                assert headers["connection"] == "close"
            with socket.create_connection((handle.host, handle.port), timeout=10) as s:
                status, headers, _ = _raw_roundtrip(
                    s, b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                assert headers["connection"] == "keep-alive"
                # The opted-in HTTP/1.0 connection really is reusable.
                status, headers, _ = _raw_roundtrip(
                    s, b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                assert "200" in status

    def test_errors_do_not_kill_the_connection(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                status, _ = client.request("GET", "/jobs/job-999")
                assert status == 404
                status, _ = client.request("POST", "/jobs", {"workload": "qcd"})
                assert status == 400
                stats = client.stats()
        # All three requests (two errors + stats) rode one connection:
        # Content-Length framing keeps error responses reusable.
        assert stats["http"]["connections_accepted"] == 1
        assert stats["http"]["requests_reused"] == 2


class TestBatchSubmit:
    def test_batch_runs_all_jobs(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=2), registry=_registry()
        ) as handle:
            with handle.client() as client:
                batch = client.submit_batch(
                    [
                        {"workload": "sleepy", "configs": [{"delay_ms": 1, "tag": "a"}]},
                        {
                            "workload": "sleepy",
                            "configs": [
                                {"delay_ms": 1, "tag": "b"},
                                {"delay_ms": 1, "tag": "c"},
                            ],
                        },
                    ]
                )
                payloads = [client.wait(j["job_id"]) for j in batch["jobs"]]
                stats = client.stats()

        assert batch["batch"]["jobs"] == 2
        assert batch["batch"]["points"] == 3
        assert [j["location"] for j in batch["jobs"]] == [
            f"/jobs/{j['job_id']}" for j in batch["jobs"]
        ]
        assert [p["state"] for p in payloads] == ["done", "done"]
        assert [r["tag"] for p in payloads for r in p["results"]] == ["a", "b", "c"]
        assert stats["batch"] == {"requests": 1, "jobs": 2, "largest": 2}

    def test_within_batch_duplicates_coalesce(self):
        spec = {"workload": "sleepy", "configs": [{"delay_ms": 50}]}
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=_registry()
        ) as handle:
            with handle.client() as client:
                batch = client.submit_batch([spec, spec, spec])
                for j in batch["jobs"]:
                    client.wait(j["job_id"])
                stats = client.stats()
        assert batch["batch"]["dedupe"] == {
            "cache_hits": 0, "coalesced": 2, "scheduled": 1,
        }
        # One simulation fed all three jobs.
        assert stats["backend"]["completed"] == 1

    def test_batch_resubmission_is_all_cache_hits(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        jobs = [
            {"workload": "lu2d", "configs": [LU2D_CONFIGS[0]]},
            {"workload": "lu2d", "configs": [LU2D_CONFIGS[1]]},
        ]
        with serve_in_thread(
            backend=InProcessBackend(workers=2), cache=cache
        ) as handle:
            with handle.client() as client:
                first = client.run_batch(jobs)
                second = client.run_batch(jobs)
        assert [p["state"] for p in second] == ["done", "done"]
        assert all(p["dedupe"] == {"cache_hits": 1, "coalesced": 0, "scheduled": 0}
                   for p in second)
        assert [p["results"] for p in second] == [p["results"] for p in first]

    def test_batch_validation_is_all_or_nothing(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                status, decoded = client.request(
                    "POST", "/jobs/batch",
                    {
                        "jobs": [
                            {"workload": "lu2d", "configs": [LU2D_CONFIGS[0]]},
                            {"workload": "lu2d", "configs": [{"bogus": 1}]},
                        ]
                    },
                )
                assert status == 400
                assert decoded["error"]["details"]["job_index"] == 1
                assert "index 1" in decoded["error"]["message"]
                # The valid job at index 0 was not half-submitted.
                assert client.jobs() == []

    def test_batch_envelope_is_validated(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                for payload in ([1, 2], {"jobs": []}, {"jobs": {}}, {"tasks": []}):
                    status, decoded = client.request("POST", "/jobs/batch", payload)
                    assert status == 400, payload
                    assert decoded["error"]["code"] == "bad-request"


class TestCancellation:
    def test_cancel_settles_pending_points(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=_registry()
        ) as handle:
            with handle.client() as client:
                submitted = client.submit(
                    "sleepy",
                    [{"delay_ms": 400, "tag": "p"}, {"delay_ms": 400, "tag": "q"}],
                )
                report = client.cancel(submitted["job_id"])
                payload = client.wait(submitted["job_id"])
                again = client.cancel(submitted["job_id"])
                stats = client.stats()

        assert report["cancelled_points"] == 2
        assert report["state"] == "cancelled"
        assert payload["state"] == "cancelled"
        assert [p["state"] for p in payload["point_states"]] == [
            "cancelled", "cancelled",
        ]
        assert payload["error"]["code"] == "cancelled"
        # Cancelling a terminal job is a no-op report, not an error.
        assert again == {
            "job_id": submitted["job_id"], "state": "cancelled",
            "cancelled_points": 0,
        }
        assert stats["jobs_cancelled"] == 1
        assert stats["points_cancelled"] == 2

    def test_cancel_unknown_job_is_404(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with pytest.raises(ServeClientError) as exc_info:
                with handle.client() as client:
                    client.cancel("job-999")
        assert exc_info.value.status == 404

    def test_cancelling_one_waiter_does_not_poison_the_other(self):
        """Coalesced jobs survive a peer's cancellation -- both ways."""
        with serve_in_thread(
            backend=InProcessBackend(workers=2), registry=_registry()
        ) as handle:
            with handle.client() as client:
                # Direction 1: cancel the job that *scheduled* the point.
                spec_a = [{"delay_ms": 300, "tag": "sched"}]
                a = client.submit("sleepy", spec_a)
                b = client.submit("sleepy", spec_a)  # coalesces onto a's point
                assert b["dedupe"]["coalesced"] == 1
                client.cancel(a["job_id"])
                done_b = client.wait(b["job_id"])
                # Direction 2: cancel the job that *coalesced*.
                spec_c = [{"delay_ms": 300, "tag": "coal"}]
                c = client.submit("sleepy", spec_c)
                d = client.submit("sleepy", spec_c)
                client.cancel(d["job_id"])
                done_c = client.wait(c["job_id"])
                stats = client.stats()

        assert done_b["state"] == "done"
        assert done_b["results"][0]["tag"] == "sched"
        assert done_c["state"] == "done"
        assert done_c["results"][0]["tag"] == "coal"
        assert stats["jobs_cancelled"] == 2
        assert stats["jobs_done"] == 2
        assert stats["points_done"] == 2
        assert stats["points_cancelled"] == 2

    def test_cancelled_jobs_events_end_terminal_cancelled(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=_registry()
        ) as handle:
            with handle.client() as client:
                submitted = client.submit("sleepy", [{"delay_ms": 400}])
                client.cancel(submitted["job_id"])
                events = list(client.events(submitted["job_id"]))
        point_events = [e for e in events if e["event"] == "point"]
        assert [e["state"] for e in point_events] == ["cancelled"]
        assert point_events[0]["error"]["code"] == "cancelled"
        assert events[-1] == {
            "event": "job",
            "job_id": submitted["job_id"],
            "state": "cancelled",
            "dedupe": {"cache_hits": 0, "coalesced": 0, "scheduled": 1},
        }

    def test_cancelled_simulation_still_lands_in_the_cache(self, tmp_path):
        """The executor cannot be preempted; the orphaned result is
        cached, so re-asking the cancelled question is a cache hit."""
        cache = RunCache(str(tmp_path / "cache"))
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=_registry(), cache=cache
        ) as handle:
            with handle.client() as client:
                submitted = client.submit("sleepy", [{"delay_ms": 200}])
                client.cancel(submitted["job_id"])
                time.sleep(0.8)  # the in-flight simulation runs to completion
                again = client.run("sleepy", [{"delay_ms": 200}])
        assert again["dedupe"] == {"cache_hits": 1, "coalesced": 0, "scheduled": 0}
        assert again["results"][0]["delay_ms"] == 200


class TestEviction:
    def test_job_table_evicts_oldest_terminal(self):
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=_registry(), max_jobs=3
        ) as handle:
            with handle.client() as client:
                ids = []
                for i in range(5):
                    payload = client.run("sleepy", [{"delay_ms": 1, "tag": f"e{i}"}])
                    ids.append(payload["job_id"])
                listed = client.jobs()
                status, _ = client.request("GET", f"/jobs/{ids[0]}")
                stats = client.stats()

        assert [j["job_id"] for j in listed] == [ids[4], ids[3], ids[2]]
        assert status == 404  # evicted jobs are gone
        assert stats["jobs_evicted"] == 2
        assert stats["jobs_tracked"] == 3
        assert stats["max_jobs"] == 3
        # Eviction forgets bookkeeping, not history: the counters still
        # remember all five jobs ran.
        assert stats["jobs_done"] == 5

    def test_run_batch_outgrowing_the_job_table_keeps_every_result(self, tmp_path):
        """Four jobs through a two-job table: the oldest are evicted as
        the batch settles, yet the held POST still answers with all
        four -- it kept the jobs it admitted.  Once cold, once from the
        cache (where eviction happens inside the submit itself)."""
        jobs = [
            {"workload": "lu2d", "configs": [{"prows": 1, "pcols": 2, "n": 16 + 8 * i}]}
            for i in range(4)
        ]
        cache = RunCache(str(tmp_path / "cache"))
        with serve_in_thread(
            backend=InProcessBackend(workers=1), cache=cache, max_jobs=2
        ) as handle:
            with handle.client() as client:
                for origin in ("scheduled", "cache_hit"):
                    evicted = client.stats()["jobs_evicted"]
                    payloads = client.run_batch(jobs)
                    assert [p["state"] for p in payloads] == ["done"] * 4
                    assert [p["point_states"][0]["origin"] for p in payloads] == [origin] * 4
                    assert [p["results"][0]["n"] for p in payloads] == [16, 24, 32, 40]
                    assert client.stats()["jobs_evicted"] - evicted >= 2
                assert client.stats()["jobs_tracked"] == 2


class TestPoolContainment:
    def test_worker_death_mid_batch_fails_only_the_killer(self):
        """A worker killed mid-batch breaks the pool under every point in
        flight; each is rerun alone, so only the killer itself fails."""
        specs = [{"workload": "sleepy", "configs": [{"delay_ms": 100, "tag": "t0"}]},
                 {"workload": "crash", "configs": [{"mode": "exit"}]}]
        specs += [{"workload": "sleepy", "configs": [{"delay_ms": 100, "tag": f"t{i}"}]}
                  for i in range(1, 6)]
        with serve_in_thread(backend=PoolBackend(workers=2), registry=_registry()) as handle:
            with handle.client() as client:
                payloads = client.run_batch(specs, timeout=120)
                assert client.healthz()["status"] == "ok"
                stats = client.stats()

        assert [p["state"] for p in payloads] == ["done", "failed"] + ["done"] * 5
        dead = payloads[1]
        assert dead["error"]["type"] == "BackendError"
        assert "lost a worker" in dead["error"]["message"]
        assert dead["error"]["details"]["point"] == 0
        tags = [p["results"][0]["tag"] for p in payloads if p["state"] == "done"]
        assert tags == [f"t{i}" for i in range(6)]
        assert stats["backend"]["failed"] == 1
        assert stats["backend"]["restarts"] >= 1

    def test_closed_backend_reruns_nothing(self):
        """A pool that breaks after ``close()`` fails its points at once:
        no quarantine pool is started during shutdown."""
        before = {child.pid for child in multiprocessing.active_children()}
        backend = PoolBackend(workers=1)

        async def scenario():
            await backend.run_point(sleepy_point, SleepyConfig(delay_ms=1), 0)
            workers = [child for child in multiprocessing.active_children()
                       if child.pid not in before]
            assert len(workers) == 1, workers
            held = asyncio.ensure_future(
                backend.run_point(sleepy_point, SleepyConfig(delay_ms=5000), 1)
            )
            await asyncio.sleep(0.3)  # the point is running on the worker
            backend.close()
            os.kill(workers[0].pid, signal.SIGKILL)
            with pytest.raises(BackendError, match="closed"):
                await held

        t0 = time.perf_counter()
        asyncio.run(scenario())
        assert time.perf_counter() - t0 < 5.0
        assert backend._lane is None
        assert backend.restarts == 0
        assert backend.utilization()["failed"] == 1


class TestTransportErrors:
    def test_connection_refused_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        from repro.serve import ServeClient

        with ServeClient(port=port, timeout=2) as client:
            with pytest.raises(ServeTransportError) as exc_info:
                client.healthz()
        err = exc_info.value
        assert err.method == "GET"
        assert err.path == "/healthz"
        assert "no response" in str(err)

    def test_timeout_on_a_pooled_connection_is_typed_and_never_retried(self):
        """A silent server may be *holding* the request: re-sending it
        on a fresh connection would submit the job twice."""
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(4)
        received = []
        release = threading.Event()

        def serve_then_go_silent():
            conn, _ = srv.accept()
            with conn:
                received.append(_read_request(conn))  # primes the client's pool
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 3\r\n\r\n{}\n"
                )
                received.append(_read_request(conn))  # read, never answered
                release.wait(timeout=10)

        thread = threading.Thread(target=serve_then_go_silent, daemon=True)
        thread.start()
        from repro.serve import ServeClient

        client = ServeClient(port=srv.getsockname()[1], timeout=0.3)
        try:
            client.healthz()
            with pytest.raises(ServeTransportError) as exc_info:
                client.request(
                    "POST", "/jobs?wait=5",
                    {"workload": "lu2d", "configs": [LU2D_CONFIGS[0]]},
                )
            # No second connection ever arrived: nothing was re-sent.
            srv.settimeout(0.05)
            with pytest.raises(socket.timeout):
                srv.accept()
        finally:
            client.close()
            release.set()
            thread.join(timeout=5)
            srv.close()
        err = exc_info.value
        assert err.method == "POST" and err.path == "/jobs?wait=5"
        assert "TimeoutError" in str(err)
        assert len(received) == 2
        assert received[1].startswith(b"POST /jobs?wait=5 ")

    def test_mid_response_close_is_typed_with_context(self):
        def handler(conn):
            _read_request(conn)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b'{"partial'
            )  # promise 1000 bytes, deliver 9, hang up

        port, thread = _one_shot_server(handler)
        from repro.serve import ServeClient

        with ServeClient(port=port, timeout=5) as client:
            with pytest.raises(ServeTransportError) as exc_info:
                client.job("job-7")
        thread.join(timeout=5)
        err = exc_info.value
        assert err.job_id == "job-7"
        assert err.partial_bytes == 9
        assert "mid-response" in str(err)
        assert err.details["path"] == "/jobs/job-7"

    def test_event_stream_break_reports_progress_so_far(self):
        def handler(conn):
            _read_request(conn)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
                b'{"event": "point", "index": 0}\n'
                b'{"event": "point", "index": 1}\n'
            )
            time.sleep(0.4)  # let the client drain both events first
            # RST instead of FIN: a close-delimited stream ending in FIN
            # is a *legitimate* end; only a reset is a broken stream.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )

        port, thread = _one_shot_server(handler)
        from repro.serve import ServeClient

        received = []
        with ServeClient(port=port, timeout=5) as client:
            with pytest.raises(ServeTransportError) as exc_info:
                for event in client.events("job-3"):
                    received.append(event)
        thread.join(timeout=5)
        err = exc_info.value
        assert [e["index"] for e in received] == [0, 1]
        assert err.job_id == "job-3"
        assert err.events_received == 2
        assert "mid-flight after 2 events" in str(err)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
