"""From raw rounds to named metrics.

A metric's value is the **median over rounds**; its spread is the
inter-quartile range over the same rounds.  Exact counts (simulated
statistics, hit/scheduled shares, evictions) come from timed round 1,
whose request list is fixed by the seed however long the run lasts.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Sequence

from ledger.measure import Round, Span


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Q3 - Q1 as ``statistics.quantiles(n=4)`` gives them (0 below
    two samples, where quartiles are undefined)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def sample(values: Sequence[float]) -> Dict[str, Any]:
    """One metric's record: median, spread, and the per-round values."""
    values = [float(v) for v in values]
    return {"value": median(values), "iqr": iqr(values), "n": len(values),
            "rounds": values}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- end to end ---------------------------------------------------------


def end_to_end(
    rounds: List[Round], setup_s: List[float], rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    """The user-visible metrics, from untraced rounds only."""
    return {
        "jobs_per_s": sample([
            r.jobs * _share(r.requests - r.failed, r.requests) / r.wall_s for r in rounds
        ]),
        "latency_p50_ms": sample([median(r.latencies_s) * 1e3 for r in rounds]),
        "cpu_s_per_job": sample([r.cpu_s / r.jobs for r in rounds]),
        "server_rss_mb": sample([rss_mb]),
        "setup_s": sample(setup_s),
    }


def exact_counts(first: Round) -> Dict[str, Any]:
    """What must repeat bit-for-bit between two runs of one seed."""
    delta = first.stats_delta
    return {
        "points": first.points,
        "cache_hits": int(delta["cache_hits"]),
        "coalesced": int(delta["coalesced"]),
        "scheduled": int(delta["scheduled"]),
        "evicted": int(delta["jobs_evicted"]),
        "events": first.events,
        "messages": first.messages,
        "bytes": first.bytes,
        "virtual_time_s": first.virtual_time_s,
        "stats_digest": first.stats_digest,
    }


# -- per layer ----------------------------------------------------------


def _by_request(spans: Iterable[Span]) -> Dict[int, Dict[str, float]]:
    """Per request id: total seconds under each span name, plus the
    terminal fetches that happened *inside* a wait (``fetch_in_wait``)."""
    table: Dict[int, Dict[str, float]] = {}
    for rid, name, parent, start, end in spans:
        row = table.setdefault(rid, {})
        row[name] = row.get(name, 0.0) + (end - start)
        if name == "serve.client.fetch" and parent == "serve.client.wait":
            row["fetch_in_wait"] = row.get("fetch_in_wait", 0.0) + (end - start)
    return table


def _traced_round(r: Round) -> Dict[str, float]:
    """One traced round's client-side layer metrics."""
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}
    for _, name, _, start, end in r.spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
    request_s = unattributed_s = waiting_s = 0.0
    for rid, row in _by_request(r.spans).items():
        if "request" not in row:
            continue  # a failed request's partial spans
        # Waiting that was not itself the terminal fetch: polls + sleeps.
        waiting = row.get("serve.client.wait", 0.0) - row.get("fetch_in_wait", 0.0)
        attributed = (
            row.get("serve.client.submit", 0.0)
            + row.get("serve.client.fetch", 0.0)
            + row.get("verify", 0.0)
            # The engine ran while the client waited: its own wall_s
            # explains that much of the wait and no more.
            + min(waiting, r.request_point_wall_s[rid])
        )
        request_s += row["request"]
        waiting_s += waiting
        unattributed_s += row["request"] - attributed
    calls = count.get("serve.client.poll", 0) + count.get("serve.client.fetch", 0)
    ok = r.requests - r.failed
    return {
        "serve.client.submit_ms":
            _share(total.get("serve.client.submit", 0.0), count.get("serve.client.submit", 0)) * 1e3,
        "serve.client.fetch_ms":
            _share(total.get("serve.client.fetch", 0.0), count.get("serve.client.fetch", 0)) * 1e3,
        "serve.client.wait_ms": _share(waiting_s, ok) * 1e3,
        "serve.client.polls_per_job": _share(calls, r.jobs),
        "serve.app.response_bytes_per_job": _share(r.response_bytes, r.jobs),
        "trace.unattributed_share": _share(unattributed_s, request_s),
    }


def _any_round(r: Round) -> Dict[str, float]:
    """Layer metrics every round yields (no spans needed)."""
    delta = r.stats_delta
    scheduled = delta["scheduled"]
    overhead = [
        latency - engine
        for latency, engine in zip(r.latencies_s, r.request_point_wall_s)
    ]
    return {
        "serve.app.requests_per_job": _share(delta["requests_served"], r.jobs),
        "serve.app.reuse_share": _share(delta["requests_reused"], delta["requests_served"]),
        "serve.jobs.overhead_ms": statistics.mean(overhead) * 1e3,
        "serve.backends.busy_share": _share(r.point_wall_s, r.wall_s),
        "simmpi.setup_ms_per_point": _share(r.point_setup_s, scheduled) * 1e3,
        "simmpi.execute_ms_per_point": _share(r.point_execute_s, scheduled) * 1e3,
        "simmpi.host_us_per_event":
            _share(r.point_execute_s, r.events) * 1e6 if scheduled else 0.0,
    }


def per_layer(
    rounds: List[Round],
    replayed: Dict[str, float],
    round_trip_ms: float,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from a run that alternated untraced and
    traced rounds on one server."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    metrics: Dict[str, Dict[str, Any]] = {}

    for rows in ([_traced_round(r) for r in traced], [_any_round(r) for r in rounds]):
        for name in rows[0]:
            metrics[name] = sample([row[name] for row in rows])

    latencies = [s for r in rounds for s in r.latencies_s]
    metrics["serve.client.latency_p90_ms"] = sample([percentile(latencies, 90) * 1e3])
    metrics["serve.app.round_trip_ms"] = sample([round_trip_ms])

    first = rounds[0]
    delta = first.stats_delta
    points = delta["points_total"]
    for name, value in (
        ("serve.jobs.cache_hit_share", _share(delta["cache_hits"], points)),
        ("serve.jobs.coalesced_share", _share(delta["coalesced"], points)),
        ("serve.jobs.scheduled_share", _share(delta["scheduled"], points)),
        ("serve.jobs.evicted", delta["jobs_evicted"]),
        ("simmpi.events_per_point", _share(first.events, first.points)),
        ("simmpi.messages_per_point", _share(first.messages, first.points)),
        ("simmpi.bytes_per_point", _share(first.bytes, first.points)),
        ("simmpi.virtual_time_s", _share(first.virtual_time_s, first.points)),
    ):
        metrics[name] = sample([value])

    for name, value in replayed.items():
        metrics[name] = sample([value])

    def jobs_per_s(side: List[Round]) -> float:
        return median([r.jobs / r.wall_s for r in side])

    metrics["trace.overhead_share"] = sample(
        [1.0 - _share(jobs_per_s(traced), jobs_per_s(untraced))]
    )
    return metrics
