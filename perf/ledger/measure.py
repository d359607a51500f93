"""The run protocol: closed-loop rounds, verification, client spans.

One client thread drives one server through the public
:class:`~repro.serve.ServeClient` exactly as shipped (``run`` /
``run_batch``, default ``poll_s``).  A request's latency runs from the
call to its decoded *and verified* result.  Tracing never touches
``src/``: the :class:`Tracer` shadows the client's public methods on
the instance, so ``run()`` itself is still the shipped code path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serve import ServeClient, ServeError
from repro.serve.client import TERMINAL_STATES
from repro.sweep import config_from_dict, get_workload, sweep_seeds

from ledger import server as proc
from ledger.requests import Request, Workload, request_jobs, request_points

#: Per-request ceiling: a dead or wedged server fails requests, it does
#: not hang the run (``ServeClient.run``'s own default).
REQUEST_TIMEOUT_S = 60.0

#: The statistic that proves a point computed the right thing.
CHECK_FIELD = {"collectives": "reduction", "halo": "corner", "lu2d": "exact"}

Span = Tuple[Optional[int], str, Optional[str], float, float]


class VerifyError(Exception):
    """A served result is not what the request should have produced."""


def point_stats(workload: str, result: Dict[str, Any]) -> List[Any]:
    """The exact simulated statistics pinned per point."""
    return [
        result["virtual_time_s"],
        result["messages"],
        result["bytes"],
        result[CHECK_FIELD[workload]],
    ]


def verify(request: Request, payloads: List[Dict[str, Any]], origin: str) -> List[Any]:
    """Check one request's payloads; returns its per-point statistics."""
    if len(payloads) != len(request["jobs"]):
        raise VerifyError(f"{len(payloads)} payloads for {len(request['jobs'])} jobs")
    stats = []
    for job, payload in zip(request["jobs"], payloads):
        if payload["state"] != "done":
            raise VerifyError(f"{payload['job_id']} ended {payload['state']}")
        results = payload["results"]
        if len(results) != len(job["configs"]):
            raise VerifyError(f"{payload['job_id']}: {len(results)} results")
        for state, result in zip(payload["point_states"], results):
            if state["origin"] != origin:
                raise VerifyError(
                    f"{payload['job_id']}: point was {state['origin']}, expected {origin}"
                )
            if job["workload"] == "lu2d" and result["exact"] is not True:
                raise VerifyError(f"{payload['job_id']}: LU factors not exact")
            stats.append(point_stats(job["workload"], result))
    return stats


def direct_stats(request: Request, memo: Optional[Dict[Any, Any]] = None) -> List[Any]:
    """The same statistics computed without the server: ``entry.fn``
    on each config with the seed ``run_sweep`` would derive.  ``memo``
    (config, seed) -> stats spares recomputing repeated points."""
    if memo is None:
        memo = {}
    stats = []
    for job in request["jobs"]:
        entry = get_workload(job["workload"])
        seeds = sweep_seeds(job["seed"], len(job["configs"]))
        for raw, seed in zip(job["configs"], seeds):
            config = config_from_dict(entry.config_type, raw)
            if (config, seed) not in memo:
                memo[config, seed] = point_stats(job["workload"], entry.fn(config, seed))
            stats.append(memo[config, seed])
    return stats


def digest(stats: Any) -> str:
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def send(client: ServeClient, request: Request) -> List[Dict[str, Any]]:
    if request["call"] == "run":
        (job,) = request["jobs"]
        return [client.run(job["workload"], job["configs"], seed=job["seed"],
                           timeout=REQUEST_TIMEOUT_S)]
    return client.run_batch(request["jobs"], timeout=REQUEST_TIMEOUT_S)


# -- tracing ------------------------------------------------------------


class Tracer:
    """Spans around the calls into ``serve.client``, kept in memory.

    A span is ``(request_id, name, parent_name, start, end)``; the spans
    of one request share its id and nest strictly, so the parent's name
    identifies it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Decoded response bodies, sized after the round (not in it).
        self.responses: List[Any] = []
        self.request_id: Optional[int] = None
        self._stack: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.request_id, name, parent, start, end))

    def _timed(self, name: str, call, keep_response: bool):
        def traced(*args, **kwargs):
            with self.span(name):
                response = call(*args, **kwargs)
            if keep_response:
                self.responses.append(response)
            return response

        return traced

    def install(self, client: ServeClient) -> None:
        """Shadow the client's public calls with timed ones."""
        job = client.job

        def traced_job(job_id):
            parent = self._stack[-1] if self._stack else None
            start = time.perf_counter()
            payload = job(job_id)
            end = time.perf_counter()
            # The GET that returns the terminal payload is the fetch;
            # every earlier one is a poll.
            name = (
                "serve.client.fetch"
                if payload["state"] in TERMINAL_STATES
                else "serve.client.poll"
            )
            self.spans.append((self.request_id, name, parent, start, end))
            self.responses.append(payload)
            return payload

        client.submit = self._timed("serve.client.submit", client.submit, True)
        client.submit_batch = self._timed(
            "serve.client.submit", client.submit_batch, True
        )
        client.wait = self._timed("serve.client.wait", client.wait, False)
        client.job = traced_job

    @staticmethod
    def uninstall(client: ServeClient) -> None:
        for name in ("submit", "submit_batch", "wait", "job"):
            vars(client).pop(name, None)

    def drain(self) -> Tuple[List[Span], List[Any]]:
        spans, self.spans = self.spans, []
        responses, self.responses = self.responses, []
        return spans, responses


# -- one round ----------------------------------------------------------


@dataclass
class Round:
    """What one round measured (raw; metrics derive from it later)."""

    index: int
    traced: bool
    requests: int
    jobs: int
    points: int
    wall_s: float
    cpu_s: float
    latencies_s: List[float]
    #: One message per failed request.
    failures: List[str]
    #: Σ ``wall_s`` / ``setup_wall_s`` / ``execute_wall_s`` over the
    #: points this round *scheduled* (cache hits reuse old work).
    point_wall_s: float
    point_setup_s: float
    point_execute_s: float
    #: Per request: Σ scheduled point ``wall_s`` (for overhead/attribution).
    request_point_wall_s: List[float]
    #: Exact simulated totals over every point returned.
    events: int
    messages: int
    bytes: float
    virtual_time_s: float
    stats_digest: str
    first_request_stats: Optional[List[Any]]
    #: ``/stats`` counter deltas over the round.
    stats_delta: Dict[str, float]
    spans: List[Span] = field(default_factory=list)
    response_bytes: int = 0
    aborted: bool = False

    @property
    def failed(self) -> int:
        return len(self.failures)


_STAT_COUNTERS = ("points_total", "cache_hits", "coalesced", "scheduled", "jobs_evicted",
                  "requests_served")


def _counters(stats: Dict[str, Any]) -> Dict[str, float]:
    flat = {name: stats[name] for name in _STAT_COUNTERS}
    flat["requests_reused"] = stats["http"]["requests_reused"]
    return flat


def run_round(
    client: ServeClient,
    server: "proc.ServerProcess",
    workload: Workload,
    requests: List[Request],
    index: int,
    tracer: Optional[Tracer] = None,
) -> Round:
    """Send ``requests`` one after another; time and verify each."""
    origin = workload.expected_origin
    latencies: List[float] = []
    failures: List[str] = []
    served: List[Tuple[int, List[Dict[str, Any]], List[Any]]] = []
    aborted = False

    before = _counters(client.stats())
    tree = server.tree()
    cpu0 = proc.cpu_seconds(tree)
    if tracer is not None:
        tracer.install(client)
    t_round = time.perf_counter()
    try:
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request_id = i
            t0 = time.perf_counter()
            try:
                with tracer.span("request") if tracer else contextlib.nullcontext():
                    payloads = send(client, request)
                    with tracer.span("verify") if tracer else contextlib.nullcontext():
                        stats = verify(request, payloads, origin)
            except (ServeError, VerifyError, KeyError, TypeError) as exc:
                latencies.append(time.perf_counter() - t0)
                failures.append(f"request {i}: {type(exc).__name__}: {exc}")
                if not server.alive():
                    # A dead server fails the rest of the workload at
                    # once instead of timing each request out.
                    rest = len(requests) - i - 1
                    failures.extend(
                        f"request {j}: server is gone" for j in range(i + 1, len(requests))
                    )
                    latencies.extend([0.0] * rest)
                    aborted = True
                    break
                continue
            latencies.append(time.perf_counter() - t0)
            served.append((i, payloads, stats))
    finally:
        wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.uninstall(client)
            tracer.request_id = None
    cpu = proc.cpu_seconds(tree) - cpu0
    delta = {name: 0.0 for name in before}
    if not aborted:
        try:
            after = _counters(client.stats())
        except ServeError:
            aborted = True
        else:
            delta = {name: after[name] - before[name] for name in before}
            delta["requests_served"] -= 1  # the closing /stats call itself
            delta["requests_reused"] -= 1

    # Bookkeeping happens here, outside the round's wall.
    all_stats: List[Any] = []
    first_stats: Optional[List[Any]] = None
    totals = {"wall_s": 0.0, "setup_wall_s": 0.0, "execute_wall_s": 0.0}
    events = messages = 0
    nbytes = virtual = 0.0
    request_point_wall = [0.0] * len(requests)
    for i, payloads, stats in served:
        all_stats.append(stats)
        if i == 0:
            first_stats = stats
        for payload in payloads:
            for state, result in zip(payload["point_states"], payload["results"]):
                events += result["events"]
                messages += result["messages"]
                nbytes += result["bytes"]
                virtual += result["virtual_time_s"]
                if state["origin"] == "scheduled":
                    request_point_wall[i] += result["wall_s"]
                    for key in totals:
                        totals[key] += result[key]

    spans: List[Span] = []
    response_bytes = 0
    if tracer is not None:
        spans, responses = tracer.drain()
        # Re-encoding a decoded body the way the server encoded it
        # (sorted keys + newline) gives its exact byte length.
        response_bytes = sum(
            len(json.dumps(body, sort_keys=True)) + 1 for body in responses
        )
    return Round(
        index=index,
        traced=tracer is not None,
        requests=len(requests),
        jobs=sum(request_jobs(r) for r in requests),
        points=sum(request_points(r) for r in requests),
        wall_s=wall,
        cpu_s=cpu,
        latencies_s=latencies,
        failures=failures,
        point_wall_s=totals["wall_s"],
        point_setup_s=totals["setup_wall_s"],
        point_execute_s=totals["execute_wall_s"],
        request_point_wall_s=request_point_wall,
        events=events,
        messages=messages,
        bytes=nbytes,
        virtual_time_s=virtual,
        stats_digest=digest(all_stats),
        first_request_stats=first_stats,
        stats_delta=delta,
        spans=spans,
        response_bytes=response_bytes,
        aborted=aborted,
    )


def warm_up(client: ServeClient, workload: Workload, requests: List[Request]) -> None:
    """Send set-up requests (prefill, warm-up); any failure is fatal --
    timed rounds on a half-prepared server would measure something else."""
    for request in requests:
        payloads = send(client, request)
        for payload in payloads:
            if payload["state"] != "done":
                raise proc.HarnessError(
                    f"{workload.name} set-up: {payload['job_id']} ended {payload['state']}"
                )
