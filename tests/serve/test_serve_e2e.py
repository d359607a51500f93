"""End-to-end: the job server over real HTTP loopback.

Each test boots a real :class:`JobServer` on an ephemeral port in a
daemon thread (:func:`serve_in_thread`) and drives it with the stdlib
HTTP client -- the full wire path, no mocking.
"""

import builtins
import http.client
import json
from unittest import mock

import pytest

from repro.serve import InProcessBackend, PoolBackend, serve_in_thread
from repro.sweep import (
    CollectivesPoint,
    Lu2dPoint,
    RunCache,
    SweepPointError,
    WorkloadEntry,
    collectives_point,
    lu2d_point,
    run_sweep,
)

from tests.serve._workloads import (
    CrashConfig,
    SleepyConfig,
    crash_point,
    sleepy_point,
)

#: Tiny lu2d points: fast enough for a test, real enough to be exact.
LU2D_CONFIGS = [
    {"prows": 2, "pcols": 2, "n": 32},
    {"prows": 1, "pcols": 2, "n": 32},
]

#: Result keys that must be bit-identical run to run (wall-clock
#: timings are real time and legitimately vary).
DETERMINISTIC_KEYS = ("ranks", "n", "virtual_time_s", "events", "messages", "bytes", "exact")


def _deterministic(result):
    return {k: result[k] for k in DETERMINISTIC_KEYS}


def _sleepy_registry(delay_ms=500):
    entry = WorkloadEntry("sleepy", sleepy_point, SleepyConfig, "sleeps")
    return {"sleepy": entry}, delay_ms


class TestServeEndToEnd:
    def test_served_job_bit_identical_to_direct_run_sweep(self):
        with serve_in_thread(backend=InProcessBackend(workers=2)) as handle:
            with handle.client() as client:
                payload = client.run("lu2d", LU2D_CONFIGS, seed=3)
        assert payload["state"] == "done"
        assert payload["dedupe"] == {"cache_hits": 0, "coalesced": 0, "scheduled": 2}

        direct = run_sweep(
            [Lu2dPoint(**c) for c in LU2D_CONFIGS], lu2d_point, workers=1, seed=3
        )
        assert [_deterministic(r) for r in payload["results"]] == [
            _deterministic(r) for r in direct
        ]
        assert all(r["exact"] for r in payload["results"])

    def test_second_submit_is_all_cache_hits(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        with serve_in_thread(backend=InProcessBackend(workers=2), cache=cache) as handle:
            with handle.client() as client:
                first = client.run("lu2d", LU2D_CONFIGS, seed=3)
                second = client.run("lu2d", LU2D_CONFIGS, seed=3)
                stats = client.stats()

        assert first["dedupe"] == {"cache_hits": 0, "coalesced": 0, "scheduled": 2}
        assert second["dedupe"] == {"cache_hits": 2, "coalesced": 0, "scheduled": 0}
        # Cached replay is byte-for-byte the stored result -- including
        # the original wall-clock fields.
        assert second["results"] == first["results"]
        # The counters prove nothing was recomputed: two points ever
        # reached the backend, across four submitted.
        assert stats["points_total"] == 4
        assert stats["scheduled"] == 2
        assert stats["cache_hits"] == 2
        assert stats["backend"]["completed"] == 2
        # Executed points surface the engine's bring-up/event-loop
        # split; cache hits replay stored results without adding work,
        # so only the two scheduled points contribute.
        assert stats["point_wall"]["setup_wall_s"] > 0.0
        assert stats["point_wall"]["execute_wall_s"] > 0.0

    def test_equal_but_distinct_configs_served_like_run_sweep(self, tmp_path):
        """``ranks=32.0`` and ``rounds=true`` compare equal to ``32`` and
        ``1`` but are different points: served, they must miss the
        cache and come out as a direct ``run_sweep`` does."""
        cache = RunCache(str(tmp_path / "cache"))
        base = {"ranks": 32, "rounds": 1}
        with serve_in_thread(
            backend=InProcessBackend(workers=1), cache=cache
        ) as handle, handle.client() as client:
            first = client.run("collectives", [base, base], seed=5)
            as_float = client.run("collectives", [base, {"ranks": 32.0, "rounds": 1}], seed=5)
            as_bool = client.run("collectives", [base, {"ranks": 32, "rounds": True}], seed=5)

        assert first["state"] == "done"
        # Direct run_sweep rejects the float rank count at position 1 ...
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                [CollectivesPoint(**base), CollectivesPoint(ranks=32.0, rounds=1)],
                collectives_point, workers=1, seed=5,
            )
        assert excinfo.value.index == 1
        # ... and so does the server, instead of replaying the int's result.
        assert as_float["dedupe"] == {"cache_hits": 1, "coalesced": 0, "scheduled": 1}
        assert as_float["state"] == "failed"
        assert as_float["error"]["index"] == 1
        assert "TypeError" in as_float["error"]["message"]

        direct = run_sweep(
            [CollectivesPoint(**base), CollectivesPoint(ranks=32, rounds=True)],
            collectives_point, workers=1, seed=5,
        )
        keys = ("ranks", "virtual_time_s", "events", "messages", "bytes", "reduction")
        assert as_bool["dedupe"] == {"cache_hits": 1, "coalesced": 0, "scheduled": 1}
        assert as_bool["state"] == "done"
        assert [{k: r[k] for k in keys} for r in as_bool["results"]] == [
            {k: r[k] for k in keys} for r in direct
        ]

    def test_warm_resubmit_opens_no_cache_file(self, tmp_path):
        """The first hit reads the record file; later hits, single or
        batched, are answered from the cache's memory tier."""
        root = str(tmp_path / "cache")
        cache = RunCache(root)
        real_open = builtins.open

        def cache_files_opened(spy):
            return [c for c in spy.call_args_list if str(c.args[0]).startswith(root)]

        with serve_in_thread(
            backend=InProcessBackend(workers=2), cache=cache
        ) as handle, handle.client() as client:
            cold = client.run("lu2d", LU2D_CONFIGS, seed=3)
            with mock.patch("builtins.open", side_effect=real_open) as spy:
                from_disk = client.run("lu2d", LU2D_CONFIGS, seed=3)
            assert len(cache_files_opened(spy)) == len(LU2D_CONFIGS)
            before = client.stats()["cache"]
            with mock.patch("builtins.open", side_effect=real_open) as spy:
                single = client.run("lu2d", LU2D_CONFIGS, seed=3)
                batched = client.run_batch(
                    [{"workload": "lu2d", "configs": LU2D_CONFIGS, "seed": 3}]
                )
            assert cache_files_opened(spy) == []
            after = client.stats()["cache"]

        assert cold["dedupe"]["scheduled"] == len(LU2D_CONFIGS)
        for warm in (from_disk, single, *batched):
            assert warm["dedupe"]["cache_hits"] == len(LU2D_CONFIGS)
            assert warm["results"] == cold["results"]
        assert after["mem_hits"] - before["mem_hits"] == 2 * len(LU2D_CONFIGS)
        assert after["hits"] - before["hits"] == 2 * len(LU2D_CONFIGS)
        assert after["mem_bytes"] == before["mem_bytes"] > 0

    def test_different_seed_is_not_a_cache_hit(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        with serve_in_thread(backend=InProcessBackend(workers=2), cache=cache) as handle:
            with handle.client() as client:
                client.run("lu2d", LU2D_CONFIGS[:1], seed=3)
                other = client.run("lu2d", LU2D_CONFIGS[:1], seed=4)
        assert other["dedupe"]["cache_hits"] == 0
        assert other["dedupe"]["scheduled"] == 1

    def test_concurrent_duplicate_submits_coalesce(self):
        registry, delay_ms = _sleepy_registry()
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=registry
        ) as handle:
            with handle.client() as client:
                spec = [{"delay_ms": delay_ms}]
                a = client.submit("sleepy", spec, seed=1)
                b = client.submit("sleepy", spec, seed=1)  # identical, in flight
                done_a = client.wait(a["job_id"])
                done_b = client.wait(b["job_id"])
                stats = client.stats()

        assert a["dedupe"] == {"cache_hits": 0, "coalesced": 0, "scheduled": 1}
        assert b["dedupe"] == {"cache_hits": 0, "coalesced": 1, "scheduled": 0}
        assert done_a["results"] == done_b["results"]
        # One simulation fed both jobs.
        assert stats["scheduled"] == 1
        assert stats["coalesced"] == 1
        assert stats["backend"]["completed"] == 1

    def test_events_stream_reports_progress_then_terminal(self):
        registry, _ = _sleepy_registry(delay_ms=50)
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=registry
        ) as handle:
            with handle.client() as client:
                submitted = client.submit(
                    "sleepy", [{"delay_ms": 50, "tag": "x"}, {"delay_ms": 50, "tag": "y"}]
                )
                events = list(client.events(submitted["job_id"]))

        point_events = [e for e in events if e["event"] == "point"]
        assert len(point_events) == 2
        assert [e["settled"] for e in point_events] == [1, 2]
        assert all(e["state"] == "done" for e in point_events)
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "done"

    def test_job_listing_is_newest_first(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                first = client.run("lu2d", LU2D_CONFIGS[:1])
                second = client.run("lu2d", LU2D_CONFIGS[1:])
                listed = client.jobs()
        assert [j["job_id"] for j in listed] == [second["job_id"], first["job_id"]]


class TestServeErrors:
    def test_malformed_specs_get_structured_4xx(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                cases = [
                    ({"workload": "qcd", "configs": [{}]}, "unknown-workload"),
                    ({"workload": "lu2d"}, "bad-request"),
                    ({"workload": "lu2d", "configs": [{"prows": 2}]}, "bad-request"),
                    ({"workload": "lu2d", "configs": [{}], "nope": 1}, "bad-request"),
                    ([1, 2], "bad-request"),
                ]
                for payload, code in cases:
                    status, decoded = client.request("POST", "/jobs", payload)
                    assert status == 400, payload
                    assert decoded["error"]["code"] == code, payload
                    assert decoded["error"]["message"]
                # A malformed spec never half-submits a job.
                assert client.jobs() == []

    def test_non_json_body_is_a_400(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
            try:
                conn.request(
                    "POST", "/jobs", body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                decoded = json.loads(response.read().decode("utf-8"))
            finally:
                conn.close()
        assert response.status == 400
        assert decoded["error"]["code"] == "bad-request"
        assert "JSON" in decoded["error"]["message"]

    def test_unknown_job_and_route_are_404_wrong_method_is_405(self):
        with serve_in_thread(backend=InProcessBackend(workers=1)) as handle:
            with handle.client() as client:
                status, decoded = client.request("GET", "/jobs/job-999")
                assert status == 404 and decoded["error"]["code"] == "not-found"
                status, decoded = client.request("GET", "/nope")
                assert status == 404
                status, decoded = client.request("DELETE", "/jobs")
                assert status == 405 and decoded["error"]["code"] == "method-not-allowed"

    def test_workload_exception_fails_job_cleanly(self):
        registry = {"crash": WorkloadEntry("crash", crash_point, CrashConfig, "boom")}
        with serve_in_thread(
            backend=InProcessBackend(workers=1), registry=registry
        ) as handle:
            with handle.client() as client:
                payload = client.run("crash", [{"mode": "raise"}], seed=9)
                # The server survives and keeps serving real work.
                assert client.healthz()["status"] == "ok"
                after = client.run("lu2d", LU2D_CONFIGS[:1])

        assert payload["state"] == "failed"
        assert payload["error"]["type"] == "SweepPointError"
        assert "ValueError" in payload["error"]["message"]
        assert payload["error"]["index"] == 0
        assert payload["error"]["config_token"]
        assert after["state"] == "done"


class TestPoolBackend:
    def test_worker_death_fails_job_and_server_recovers(self):
        registry = {
            "crash": WorkloadEntry("crash", crash_point, CrashConfig, "boom"),
            "sleepy": WorkloadEntry("sleepy", sleepy_point, SleepyConfig, "zzz"),
        }
        with serve_in_thread(
            backend=PoolBackend(workers=1), registry=registry
        ) as handle:
            with handle.client() as client:
                dead = client.run("crash", [{"mode": "exit"}], timeout=120)
                assert client.healthz()["status"] == "ok"
                # The replaced pool serves the next job normally.
                alive = client.run("sleepy", [{"delay_ms": 1}], timeout=120)
                stats = client.stats()

        assert dead["state"] == "failed"
        assert dead["error"]["type"] == "BackendError"
        assert "lost a worker" in dead["error"]["message"]
        assert alive["state"] == "done"
        assert alive["results"][0]["delay_ms"] == 1
        assert stats["backend"]["restarts"] >= 1
        assert stats["backend"]["failed"] == 1
        assert stats["jobs_failed"] == 1 and stats["jobs_done"] == 1

    def test_pool_results_match_inprocess(self):
        with serve_in_thread(backend=PoolBackend(workers=2)) as handle:
            with handle.client() as client:
                pooled = client.run("lu2d", LU2D_CONFIGS, seed=3, timeout=120)
        with serve_in_thread(backend=InProcessBackend(workers=2)) as handle:
            with handle.client() as client:
                threaded = client.run("lu2d", LU2D_CONFIGS, seed=3)
        assert [_deterministic(r) for r in pooled["results"]] == [
            _deterministic(r) for r in threaded["results"]
        ]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
