"""One workload, start to finish: set-up, timed rounds, teardown, checks.

Closed loop, one client thread, one pooled connection.  Each workload
gets fresh servers and cache directories.  Set-up (launch -> first
``/healthz`` -> prefill/warm-up done) is performed ``SETUP_REPEATS``
times so ``setup_s`` is a median like everything else; the last server
is the one measured.  Timed rounds have a fixed request count and run
until ``seconds`` have elapsed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.serve import ServeClient, ServeError

from ledger import layers, measure, metrics
from ledger.requests import Workload, prefill_requests, round_requests
from ledger.server import HarnessError, ServerProcess, peak_rss_mb

SETUP_REPEATS = 3

#: Failure messages kept per workload (the count is never truncated).
MAX_FAILURE_MESSAGES = 10


@dataclass
class Context:
    repo_root: str
    work_dir: str
    #: CPUs for the pool workers (``ledger.server.cpu_plan``).
    worker_cpus: Set[int]
    #: ``perf/golden.json`` decoded, or None.
    golden: Optional[Dict[str, Any]] = None

    def golden_digest(self, workload: str, seed: int, round_index: int) -> Optional[str]:
        if self.golden is None or self.golden["seed"] != seed:
            return None
        digests = self.golden["workloads"].get(workload, [])
        return digests[round_index - 1] if round_index <= len(digests) else None


def _set_up(ctx: Context, workload: Workload, seed: int) -> Tuple[ServerProcess, ServeClient, float]:
    """A prepared server and its client, plus how long that took."""
    server = ServerProcess(ctx.repo_root, ctx.work_dir, ctx.worker_cpus)
    t0 = time.perf_counter()
    server.start()
    client = ServeClient(port=server.port)
    requests = [] if workload.cold else prefill_requests(seed)
    requests += round_requests(workload, seed, 0)[: workload.warmup_requests]
    try:
        # The pool spawns its workers on the first job: pin them then.
        measure.warm_up(client, workload, requests[:1])
        server.pin_workers()
        measure.warm_up(client, workload, requests[1:])
    except BaseException as exc:
        client.close()
        server.stop()
        if isinstance(exc, ServeError):
            raise HarnessError(f"{workload.name} set-up failed: {exc}") from exc
        raise
    return server, client, time.perf_counter() - t0


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, ctx: Context
) -> Dict[str, Any]:
    """Measure one workload; returns its result record."""
    setup_s: List[float] = []
    # Per-layer runs report no setup_s: they set up once.
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        server, client, elapsed = _set_up(ctx, workload, seed)
        setup_s.append(elapsed)
        client.close()
        server.stop()
    server, client, elapsed = _set_up(ctx, workload, seed)
    setup_s.append(elapsed)

    rounds: List[measure.Round] = []
    tracer = measure.Tracer() if trace else None
    round_trip_ms = 0.0
    try:
        start = time.perf_counter()
        while True:
            index = len(rounds) + 1
            # Traced runs alternate untraced/traced rounds on the same
            # server; the gap between the two is the tracing overhead.
            traced = trace and index % 2 == 0
            rounds.append(
                measure.run_round(
                    client, server, workload, round_requests(workload, seed, index),
                    index, tracer if traced else None,
                )
            )
            elapsed = time.perf_counter() - start
            if rounds[-1].aborted:
                break
            if trace and len(rounds) % 2:
                continue  # always end on a traced round
            # Stop at the round count whose total is nearest `seconds`.
            if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
                break
        if trace and server.alive():
            # The HTTP floor: /healthz on the kept-alive connection.
            round_trip_ms = layers.median_us(client.healthz, 200) / 1e3
        rss_mb = peak_rss_mb(server.tree())
    finally:
        client.close()
        server.stop()

    # Everything below runs with the server gone: nothing competes
    # with it for the CPU, and nothing here is timed.
    failures = [message for r in rounds for message in r.failures]
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        if r.first_request_stats is None:
            continue  # its first request already counted as failed
        expected = ctx.golden_digest(workload.name, seed, r.index)
        if expected is not None:
            ok = r.stats_digest == expected
            what = "simulated statistics differ from perf/golden.json"
        else:
            first = round_requests(workload, seed, r.index)[0]
            ok = r.first_request_stats == measure.direct_stats(first)
            what = "served statistics differ from entry.fn(config, seed)"
        if not ok:
            failed += 1
            failures.append(f"round {r.index}: {what}")

    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "attempted": sum(r.requests for r in rounds),
        "failed": failed,
        "correct": failed == 0,
        "latency_samples": sum(len(r.latencies_s) for r in rounds),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "exact": metrics.exact_counts(rounds[0]),
    }
    if any(r.aborted for r in rounds):
        record["metrics"] = {}  # the server died: nothing here is a measurement
    elif trace:
        sampled = round_requests(workload, seed, 2)[: workload.replay_requests]
        record["metrics"] = metrics.per_layer(
            rounds, layers.replay(sampled, ctx.work_dir), round_trip_ms
        )
        record["spans"] = [
            {"round": r.index, "request": rid, "name": name, "parent": parent,
             "start_s": begin - start, "end_s": end - start}
            for r in rounds
            for rid, name, parent, begin, end in r.spans
        ]
    else:
        record["metrics"] = metrics.end_to_end(rounds, setup_s, rss_mb)
    return record
