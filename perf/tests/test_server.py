"""The harness against a real ``repro serve`` subprocess."""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from ledger import PERF_DIR, REPO_ROOT, measure
from ledger import server as proc
from ledger.requests import WORKLOADS
from repro.serve import ServeClient

GOOD = {"call": "run", "jobs": [{"workload": "collectives", "configs": [{"ranks": 8}], "seed": 1}]}
BAD = {"call": "run", "jobs": [{"workload": "no-such-workload", "configs": [{}], "seed": 1}]}


def _fresh(seed):
    request = json.loads(json.dumps(GOOD))
    request["jobs"][0]["seed"] = seed
    return request


@pytest.fixture
def server(tmp_path):
    with proc.ServerProcess(REPO_ROOT, str(tmp_path), worker_cpus={0}) as srv:
        yield srv


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_proc_reader_follows_pool_workers_and_teardown_leaves_nothing(server):
    with ServeClient(port=server.port) as client:
        assert server.tree() == [server.pid]  # the pool spawns lazily
        measure.send(client, _fresh(1))
        tree = server.tree()
        assert len(tree) >= 2 and tree[0] == server.pid
        worker_only = [pid for pid in tree if pid != server.pid]
        assert proc.cpu_seconds(tree) >= proc.cpu_seconds([server.pid]) > 0
        assert proc.cpu_seconds(worker_only) >= 0
        assert proc.peak_rss_mb(tree) > proc.peak_rss_mb([server.pid]) > 0
    pgid, cache_dir = server.pid, server.cache_dir
    assert os.path.isdir(cache_dir)
    server.stop()
    assert not _group_alive(pgid)
    assert not os.path.exists(cache_dir)
    server.stop()  # idempotent


def test_failing_request_is_counted_not_dropped(server):
    with ServeClient(port=server.port) as client:
        r = measure.run_round(
            client, server, WORKLOADS["cold_small"], [_fresh(2), BAD, _fresh(3)], index=1
        )
    assert (r.requests, r.failed, len(r.latencies_s)) == (3, 1, 3)
    assert "no-such-workload" in r.failures[0]
    assert not r.aborted
    assert r.stats_delta["scheduled"] == 2
    assert r.first_request_stats is not None


def test_wrong_origin_is_a_failure(server):
    """The same point twice: the second is a cache hit, which a cold
    workload must count as failed."""
    with ServeClient(port=server.port) as client:
        r = measure.run_round(
            client, server, WORKLOADS["cold_small"], [_fresh(4), _fresh(4)], index=1
        )
    assert r.failed == 1 and "cache_hit" in r.failures[0]


def test_dead_server_fails_the_rest_without_hanging(server):
    class KillingClient(ServeClient):
        """Kills the server the moment the second request is sent."""

        sent = 0

        def run(self, *args, **kwargs):
            self.sent += 1
            if self.sent == 2:
                os.kill(server.pid, signal.SIGKILL)
                server._proc.wait()
            return super().run(*args, **kwargs)

    pgid = server.pid
    # The orphaned pool worker inherited the listening socket, so the
    # dead server's port still accepts: only the socket timeout ends it.
    with KillingClient(port=server.port, timeout=2.0) as client:
        r = measure.run_round(
            client, server, WORKLOADS["cold_small"],
            [_fresh(10 + i) for i in range(5)], index=1,
        )
    assert r.aborted and r.failed == 4 and len(r.latencies_s) == 5
    assert _group_alive(pgid)  # SIGKILL orphaned the pool worker ...
    server.stop()
    assert not _group_alive(pgid)  # ... and stop() reaps the whole group


def test_traced_round_records_nested_spans(server):
    tracer = measure.Tracer()
    with ServeClient(port=server.port) as client:
        r = measure.run_round(
            client, server, WORKLOADS["cold_small"], [_fresh(20), _fresh(21)],
            index=2, tracer=tracer,
        )
        assert "submit" not in vars(client)  # shadows removed again
    names = {name for _, name, _, _, _ in r.spans}
    assert names >= {"request", "verify", "serve.client.submit", "serve.client.fetch"}
    assert {rid for rid, *_ in r.spans} == {0, 1}
    for rid, name, parent, start, end in r.spans:
        assert end >= start
        assert (parent is None) == (name == "request")
    assert r.response_bytes > 0 and tracer.spans == []


def test_benchmark_refuses_a_checkout_without_the_product(tmp_path):
    shutil.copytree(PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "cold_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "missing" in done.stderr
