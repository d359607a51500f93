"""Job-server throughput: cache-hit round trips per second.

The service's promise is that a repeated question costs an HTTP round
trip, not a simulation.  These benchmarks measure exactly that price:

``serve_throughput``
    The v1 data plane -- one job per ``POST /jobs`` round trip on a
    fresh connection each time.  Kept as the committed reference the
    v2 plane must beat.

``serve_throughput_v2``
    The v2 data plane -- a pooled keep-alive client pushing
    ``POST /jobs/batch`` requests of many cache-hit jobs each, so the
    TCP setup and the per-request parse/probe cost are amortised across
    a whole batch.  The test *asserts* v2 is at least 5x the committed
    v1 baseline: the tentpole's claim, enforced on every perf-smoke.

``serve_pool``
    Engine events/sec through a two-worker pool backend: distinct
    collectives points run on the process pool the server uses by
    default.

All records land in ``BENCH_engine.json`` via ``--bench-json`` and are
gated by ``check_bench_regression.py`` like every other engine number.
"""

import json
import os
import tempfile
import time

from repro.serve import InProcessBackend, PoolBackend, serve_in_thread
from repro.sweep import RunCache

#: The committed baseline the v2 plane is measured against.
_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_engine.json"
)


def _committed_v1_jobs_per_sec(default=633.0):
    try:
        with open(_BASELINE_PATH) as fh:
            return float(json.load(fh)["serve_throughput"]["events_per_sec"])
    except (OSError, ValueError, KeyError):
        return default

#: Jobs per timed batch; best batch of BEST_OF is recorded.
BATCH = 40
BEST_OF = 3

CONFIG = {"prows": 2, "pcols": 2, "n": 32}


def test_bench_serve_cache_hit_throughput(bench_record):
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        cache = RunCache(tmp)
        with serve_in_thread(backend=InProcessBackend(workers=1), cache=cache) as handle:
            # keep_alive=False pins this record to the v1 plane it has
            # always measured: one connection per request.
            client = handle.client(keep_alive=False)

            # Warm the cache: the one and only simulation in this test.
            warm = client.run("lu2d", [CONFIG], seed=3)
            assert warm["state"] == "done"
            assert warm["dedupe"]["scheduled"] == 1

            best = float("inf")
            for _ in range(BEST_OF):
                t0 = time.perf_counter()
                for _ in range(BATCH):
                    payload = client.run("lu2d", [CONFIG], seed=3)
                    assert payload["dedupe"] == {
                        "cache_hits": 1, "coalesced": 0, "scheduled": 0,
                    }
                best = min(best, time.perf_counter() - t0)

            stats = client.stats()

    # Nothing beyond the warm-up point ever reached the backend.
    assert stats["backend"]["completed"] == 1
    assert stats["cache_hits"] == BEST_OF * BATCH

    entry = bench_record(
        "serve_throughput",
        events=BATCH,
        wall_s=best,
        jobs=BATCH,
        mode="cache_hit_http_round_trip",
    )
    # Sanity floor, far below any real machine: dozens of cache-hit
    # round trips per second, not units.
    assert entry["events_per_sec"] > 10.0


#: v2 plane: batch POSTs per timed round x jobs per batch.
V2_POSTS = 5
V2_JOBS_PER_POST = 64


def test_bench_serve_batched_keepalive_throughput(bench_record):
    """The tentpole number: batched submits over a pooled keep-alive
    connection must serve cache-hit jobs at >= 5x the v1 baseline."""
    spec = {"workload": "lu2d", "configs": [CONFIG], "seed": 3}
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        cache = RunCache(tmp)
        with serve_in_thread(backend=InProcessBackend(workers=1), cache=cache) as handle:
            client = handle.client()  # keep-alive pooled connections

            warm = client.run("lu2d", [CONFIG], seed=3)
            assert warm["state"] == "done"
            assert warm["dedupe"]["scheduled"] == 1

            best = float("inf")
            for _ in range(BEST_OF):
                t0 = time.perf_counter()
                for _ in range(V2_POSTS):
                    batch = client.submit_batch([spec] * V2_JOBS_PER_POST)
                    # Every job settles inside the submit: pure cache.
                    assert batch["batch"]["dedupe"]["scheduled"] == 0
                    assert all(j["state"] == "done" for j in batch["jobs"])
                best = min(best, time.perf_counter() - t0)

            stats = client.stats()

    jobs = V2_POSTS * V2_JOBS_PER_POST
    # Nothing beyond the warm-up point ever reached the backend, and
    # the whole timed run reused kept-alive connections.
    assert stats["backend"]["completed"] == 1
    assert stats["http"]["requests_reused"] > 0

    entry = bench_record(
        "serve_throughput_v2",
        events=jobs,
        wall_s=best,
        jobs=jobs,
        posts_per_round=V2_POSTS,
        jobs_per_post=V2_JOBS_PER_POST,
        mode="cache_hit_batched_keepalive",
    )
    floor = 5.0 * _committed_v1_jobs_per_sec()
    assert entry["events_per_sec"] >= floor, (
        f"v2 data plane served {entry['events_per_sec']:.0f} jobs/s, "
        f"below the 5x-v1 floor of {floor:.0f}"
    )


#: Distinct collectives points pushed through the pool backend.
POOL_POINTS = 12
POOL_CONFIG = {"ranks": 16, "rounds": 2}


def test_bench_serve_pool_backend(bench_record):
    """Engine events/sec through one two-worker pool."""
    with serve_in_thread(backend=PoolBackend(workers=2)) as handle, handle.client() as client:
        # Warm-up: spawn both pool workers off the clock.  The same
        # configs at another seed are other keys but identical work.
        warm = client.run("collectives", [POOL_CONFIG] * POOL_POINTS, seed=99, timeout=300)
        assert warm["state"] == "done"

        best, best_events = float("inf"), 0
        for round_seed in range(BEST_OF):
            t0 = time.perf_counter()
            payload = client.run(
                "collectives", [POOL_CONFIG] * POOL_POINTS, seed=round_seed, timeout=300
            )
            wall = time.perf_counter() - t0
            assert payload["state"] == "done"
            events = sum(r["events"] for r in payload["results"])
            if wall < best:
                best, best_events = wall, events

        stats = client.stats()

    assert stats["backend"]["completed"] == POOL_POINTS * (BEST_OF + 1)
    assert stats["backend"]["restarts"] == 0

    entry = bench_record(
        "serve_pool",
        events=best_events,
        wall_s=best,
        points=POOL_POINTS,
        workers=2,
        mode="pool_collectives",
    )
    assert entry["events_per_sec"] > 0.0
