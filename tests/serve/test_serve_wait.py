"""Pushed completion: ``?wait=`` holds and the client built on them.

Real loopback HTTP throughout (:func:`serve_in_thread`); time is made
with the ``sleepy`` workload, death with ``crash``.  Nothing here sleeps
longer than a point's own delay.
"""

import asyncio
import gc
import socket
import threading
import time

import pytest

import repro.serve.app as serve_app
from repro.serve import (
    InProcessBackend,
    PoolBackend,
    ServeClientError,
    ServeError,
    ServeTransportError,
    serve_in_thread,
)
from repro.sweep import Lu2dPoint, RunCache, WorkloadEntry, lu2d_point, run_sweep

from tests.serve._workloads import (
    CrashConfig,
    SleepyConfig,
    crash_point,
    sleepy_point,
)

DETERMINISTIC_KEYS = ("ranks", "n", "virtual_time_s", "events", "messages", "bytes", "exact")

SUMMARY_KEYS = {"job_id", "workload", "state", "points", "settled", "dedupe", "location"}


def _registry():
    return {
        "sleepy": WorkloadEntry("sleepy", sleepy_point, SleepyConfig, "zzz"),
        "crash": WorkloadEntry("crash", crash_point, CrashConfig, "boom"),
    }


def _sleepy(delay_ms, tag="a"):
    return {"workload": "sleepy", "configs": [{"delay_ms": delay_ms, "tag": tag}]}


def _serve(**kwargs):
    kwargs.setdefault("backend", InProcessBackend(workers=1))
    return serve_in_thread(registry=_registry(), **kwargs)


def _until(predicate, timeout=5.0):
    """Spin (5 ms steps) until ``predicate()``; fail the test if never."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def _in_thread(call):
    """Run ``call`` in a thread; returns (thread, outcome list)."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except ServeError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestWaitParameter:
    def test_malformed_wait_is_a_400_that_keeps_the_connection(self):
        with _serve() as handle:
            client = handle.client()
            for path, body in (
                ("/jobs?wait=abc", _sleepy(1)),
                ("/jobs/batch?wait=-1", {"jobs": [_sleepy(1)]}),
                ("/jobs?wait=nan", _sleepy(1)),
                ("/jobs?wait=", _sleepy(1)),
            ):
                status, decoded = client.request("POST", path, body)
                assert status == 400, path
                assert decoded["error"]["code"] == "bad-request", path
                assert "wait" in decoded["error"]["message"], path
            # Refused before admission: nothing was half-submitted.
            assert client.jobs() == []
            job_id = client.submit("sleepy", [{"delay_ms": 1}])["job_id"]
            status, _ = client.request("GET", f"/jobs/{job_id}?wait=abc")
            assert status == 400
            # The very same connection serves the next request.
            status, decoded = client.request("GET", f"/jobs/{job_id}?wait=5&other=1")
            assert status == 200 and decoded["state"] == "done"
            stats = client.stats()
        assert stats["http"]["connections_accepted"] == 1

    def test_unknown_id_with_wait_is_an_immediate_404(self):
        with _serve() as handle:
            t0 = time.monotonic()
            with pytest.raises(ServeClientError) as exc_info:
                handle.client().wait("job-999", timeout=5)
            assert time.monotonic() - t0 < 1.0
        assert exc_info.value.status == 404

    def test_over_ceiling_wait_is_clamped_not_rejected(self, monkeypatch):
        monkeypatch.setattr(serve_app, "MAX_WAIT_S", 0.05)
        with _serve() as handle:
            client = handle.client()
            t0 = time.monotonic()
            status, decoded = client.request("POST", "/jobs?wait=1e9", _sleepy(300))
            elapsed = time.monotonic() - t0
            stats = client.stats()
        assert status == 201
        assert decoded["state"] == "running" and elapsed < 0.2
        assert stats["http"]["waits_expired"] == 1

    def test_unwaited_posts_answer_with_the_summary_only(self):
        with _serve() as handle:
            client = handle.client()
            status, single = client.request("POST", "/jobs", _sleepy(1))
            assert status == 201
            status, batch = client.request(
                "POST", "/jobs/batch", {"jobs": [_sleepy(1, "b"), _sleepy(1, "c")]}
            )
            assert status == 201
            stats = client.stats()
        assert set(single) == SUMMARY_KEYS
        assert [set(job) for job in batch["jobs"]] == [SUMMARY_KEYS] * 2
        assert set(batch) == {"jobs", "batch"}
        assert stats["http"]["waits_total"] == 0

    def test_expired_hold_is_a_200_with_the_job_as_it_stands(self):
        with _serve() as handle:
            client = handle.client()
            job_id = client.submit("sleepy", [{"delay_ms": 300}])["job_id"]
            before = client.stats()["http"]
            t0 = time.monotonic()
            status, decoded = client.request("GET", f"/jobs/{job_id}?wait=0.05")
            elapsed = time.monotonic() - t0
            after = client.stats()["http"]
            final = client.wait(job_id)
        assert status == 200 and elapsed < 0.2
        assert decoded["state"] == "running"
        assert decoded["results"] == [None] and decoded["settled"] == 0
        assert after["waits_expired"] - before["waits_expired"] == 1
        assert after["waits_held"] == 0
        assert final["state"] == "done"


class TestClientOnHolds:
    def test_cold_run_is_one_request_and_one_hold(self):
        with _serve() as handle:
            client = handle.client()
            before = client.stats()
            payload = client.run("sleepy", [{"delay_ms": 20}])
            after = client.stats()
        assert payload["state"] == "done"
        assert payload["results"][0]["delay_ms"] == 20
        assert payload["dedupe"] == {"cache_hits": 0, "coalesced": 0, "scheduled": 1}
        assert payload["location"] == f"/jobs/{payload['job_id']}"
        # One held POST, plus the closing /stats call itself.
        assert after["requests_served"] - before["requests_served"] == 2
        assert after["http"]["waits_total"] - before["http"]["waits_total"] == 1
        assert after["http"]["waits_held"] == 0
        assert after["http"]["waits_expired"] == 0

    def test_holds_are_chunked_under_the_socket_timeout(self):
        """A job longer than the socket timeout still completes: each
        hold is a fixed share of it, re-issued until terminal."""
        with _serve() as handle:
            client = handle.client(timeout=0.4)
            payload = client.run("sleepy", [{"delay_ms": 600}])
            stats = client.stats()
        assert payload["state"] == "done"
        assert payload["results"][0]["delay_ms"] == 600
        assert stats["http"]["waits_expired"] >= 2  # the POST + a GET at least
        assert stats["http"]["connections_accepted"] == 1  # nothing timed out

    def test_wait_reissues_held_gets_until_done(self):
        with _serve() as handle:
            client = handle.client(timeout=0.3)  # so each hold is 150 ms
            job_id = client.submit("sleepy", [{"delay_ms": 400}])["job_id"]
            payload = client.wait(job_id)
            stats = client.stats()
        assert payload["state"] == "done"
        assert stats["http"]["waits_expired"] >= 2

    def test_caller_deadline_raises_the_timed_out_error(self):
        with _serve() as handle:
            client = handle.client()
            t0 = time.monotonic()
            with pytest.raises(ServeError, match=r"timed out after 0\.1s") as exc_info:
                client.run("sleepy", [{"delay_ms": 500}], timeout=0.1)
            assert time.monotonic() - t0 < 0.4
        assert type(exc_info.value) is ServeError
        assert "state running, 0/1 settled" in str(exc_info.value)

    def test_delete_from_a_second_client_wakes_a_held_get(self):
        with _serve() as handle:
            holder, other = handle.client(), handle.client()
            job_id = holder.submit("sleepy", [{"delay_ms": 600}])["job_id"]
            t0 = time.monotonic()
            thread, outcome = _in_thread(lambda: holder.wait(job_id))
            _until(lambda: other.stats()["http"]["waits_held"] == 1)
            other.cancel(job_id)
            thread.join(timeout=5)
            elapsed = time.monotonic() - t0
        assert not thread.is_alive()
        assert outcome[0]["state"] == "cancelled"
        assert outcome[0]["error"]["code"] == "cancelled"
        assert elapsed < 0.5  # woken by the DELETE, not by the point

    def test_worker_death_wakes_a_held_post(self):
        with _serve(backend=PoolBackend(workers=1)) as handle:
            client = handle.client(timeout=120)
            status, decoded = client.request(
                "POST", "/jobs?wait=60",
                {"workload": "crash", "configs": [{"mode": "exit"}]},
            )
            stats = client.stats()
        assert status == 201
        assert decoded["state"] == "failed"
        assert decoded["error"]["type"] == "BackendError"
        assert decoded["error"]["details"] == {"point": 0}
        assert stats["http"]["waits_total"] == 1
        assert stats["requests_served"] == 2  # the POST and this /stats

    def test_held_batch_is_bit_identical_to_run_sweep_in_submit_order(self, tmp_path):
        a = {"prows": 2, "pcols": 2, "n": 32}
        b = {"prows": 1, "pcols": 2, "n": 32}
        c = {"prows": 2, "pcols": 1, "n": 32}
        specs = [
            {"workload": "lu2d", "configs": [a], "seed": 3},  # cache hit
            {"workload": "lu2d", "configs": [b], "seed": 3},  # fresh
            {"workload": "lu2d", "configs": [b], "seed": 3},  # duplicate of it
            {"workload": "lu2d", "configs": [c, a], "seed": 5},  # fresh sweep
        ]
        cache = RunCache(str(tmp_path / "cache"))
        with serve_in_thread(backend=InProcessBackend(workers=1), cache=cache) as handle:
            client = handle.client()
            client.run("lu2d", [a], seed=3)
            before = client.stats()["requests_served"]
            payloads = client.run_batch(specs)
            served = client.stats()["requests_served"] - before

        assert served == 2  # one held POST carried all four jobs (+ the /stats)
        assert [p["state"] for p in payloads] == ["done"] * 4
        assert [s["origin"] for p in payloads for s in p["point_states"]] == [
            "cache_hit", "scheduled", "coalesced", "scheduled", "scheduled",
        ]
        for spec, payload in zip(specs, payloads):
            direct = run_sweep(
                [Lu2dPoint(**cfg) for cfg in spec["configs"]],
                lu2d_point, workers=1, seed=spec["seed"],
            )
            assert [{k: r[k] for k in DETERMINISTIC_KEYS} for r in payload["results"]] == [
                {k: r[k] for k in DETERMINISTIC_KEYS} for r in direct
            ]


class TestHoldLifetime:
    def test_close_ends_a_parked_hold_at_once(self, caplog):
        with _serve() as handle:
            holder, other = handle.client(), handle.client()
            job_id = holder.submit("sleepy", [{"delay_ms": 2000}])["job_id"]
            thread, outcome = _in_thread(lambda: holder.wait(job_id))
            _until(lambda: other.stats()["http"]["waits_held"] == 1)
            t0 = time.monotonic()
            asyncio.run_coroutine_threadsafe(
                handle.server.close(), handle.loop
            ).result(timeout=5)
            elapsed = time.monotonic() - t0
            thread.join(timeout=5)
        assert elapsed < 1.0
        assert not thread.is_alive()
        assert isinstance(outcome[0], ServeTransportError)
        assert outcome[0].job_id == job_id
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_client_dropping_mid_hold_leaves_nothing_behind(self, caplog):
        with _serve() as handle:
            client = handle.client()
            job_id = client.submit("sleepy", [{"delay_ms": 300}])["job_id"]
            open_before = client.stats()["http"]["connections_open"]
            sock = socket.create_connection((handle.host, handle.port), timeout=5)
            sock.sendall(f"GET /jobs/{job_id}?wait=5 HTTP/1.1\r\n\r\n".encode("latin-1"))
            _until(lambda: client.stats()["http"]["waits_held"] == 1)
            sock.close()  # gone while the server is holding the request

            def settled():
                http = client.stats()["http"]
                return http["waits_held"] == 0 and http["connections_open"] == open_before

            _until(settled)
            assert client.job(job_id)["state"] == "done"
        gc.collect()  # an unretrieved task exception is logged at collection
        assert "never retrieved" not in caplog.text


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
