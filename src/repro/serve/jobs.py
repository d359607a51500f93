"""The job table: content-addressed dedupe, coalescing, progress.

Every sweep point a job carries is identified by
:func:`repro.sweep.cache.cache_key` over ``(workload, config,
derived_seed)`` -- the same key the on-disk
:class:`~repro.sweep.cache.RunCache` uses.  Submission classifies each
point exactly once:

``cache_hit``
    The key is already in the cache: the stored result is attached
    immediately, no simulation (a repeated hit is answered from the
    cache's memory tier without opening a file).
``coalesced``
    An identical point is *in flight* for another job (or earlier in
    this one): the point attaches to the existing future -- one
    simulation feeds every waiter.
``scheduled``
    Genuinely new work: a future is registered in the in-flight map and
    the point is dispatched to the backend; the result lands in the
    cache before waiters are woken, so later duplicates are cache hits.

All bookkeeping runs on the event loop (single-threaded); only the
simulation itself leaves it through the backend.  Progress is an
append-only per-job event list; watchers (the ``/events`` stream)
follow it with an :class:`asyncio.Event` edge trigger.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.serve.errors import JobNotFoundError
from repro.serve.protocol import JobSpec, parse_job_spec, registry_resolver
from repro.sweep import (
    RunCache,
    WorkloadEntry,
    batch_cache_keys,
    describe_config,
    sweep_seeds,
)
from repro.util.errors import SweepPointError

#: Distinguishes "not in the cache" from a legitimately cached None.
_MISS = object()

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Terminal lifecycle: a cancelled job ends here, not at FAILED, so
#: clients can tell "the machine said no" from "the user said stop".
CANCELLED = "cancelled"

TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: Point origins (how the submission classified the point).
CACHE_HIT, COALESCED, SCHEDULED = "cache_hit", "coalesced", "scheduled"


class Job:
    """One submitted job: n points, their origins, results, events."""

    def __init__(self, job_id: str, spec: JobSpec, keys: List[str]):
        self.id = job_id
        self.spec = spec
        self.keys = keys
        n = spec.points
        self.origins: List[str] = [""] * n
        self.results: List[Any] = [None] * n
        self.point_done: List[bool] = [False] * n
        self.errors: List[Optional[Dict[str, Any]]] = [None] * n
        self.settled = 0
        self.state = QUEUED
        self.cancel_requested = False
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.events: List[Dict[str, Any]] = []
        self._changed = asyncio.Event()

    @property
    def dedupe(self) -> Dict[str, int]:
        return {
            "cache_hits": self.origins.count(CACHE_HIT),
            "coalesced": self.origins.count(COALESCED),
            "scheduled": self.origins.count(SCHEDULED),
        }

    def summary(self) -> Dict[str, Any]:
        """The submit-response / job-list view."""
        return {
            "job_id": self.id,
            "workload": self.spec.workload,
            "state": self.state,
            "points": self.spec.points,
            "settled": self.settled,
            "dedupe": self.dedupe,
        }

    def to_payload(self) -> Dict[str, Any]:
        """The full ``GET /jobs/{id}`` view."""
        payload = self.summary()
        payload["seed"] = self.spec.seed
        payload["point_states"] = [
            {
                "origin": self.origins[i],
                "state": self._point_state(i),
            }
            for i in range(self.spec.points)
        ]
        payload["results"] = list(self.results)
        failures = [e for e in self.errors if e]
        if failures:
            payload["error"] = failures[0]
            payload["failures"] = failures
        if self.finished_at is not None:
            payload["elapsed_s"] = round(self.finished_at - self.created_at, 6)
        return payload

    def _point_state(self, i: int) -> str:
        if not self.point_done[i]:
            return "pending"
        error = self.errors[i]
        if error is None:
            return DONE
        return CANCELLED if error.get("code") == "cancelled" else FAILED

    def _emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        self._changed.set()

    async def stream_events(self):
        """Yield events as they land; returns once the job is terminal.

        Mutations happen on the same loop, so checking-then-waiting is
        race-free: nothing can append between our check and ``wait()``.
        """
        cursor = 0
        while True:
            while cursor < len(self.events):
                yield self.events[cursor]
                cursor += 1
            if self.state in TERMINAL:
                return
            self._changed.clear()
            await self._changed.wait()

    async def wait(self) -> None:
        """Block until the job is terminal (the edge trigger, and the
        race-freedom, of :meth:`stream_events`)."""
        while self.state not in TERMINAL:
            self._changed.clear()
            await self._changed.wait()


class JobManager:
    """Owns the job table, the in-flight map, and the counters."""

    def __init__(
        self,
        backend,
        cache: Optional[RunCache] = None,
        registry: Optional[Mapping[str, WorkloadEntry]] = None,
        max_jobs: int = 1024,
    ):
        self.backend = backend
        self.cache = cache
        self.resolve: Callable[[str], WorkloadEntry] = registry_resolver(registry)
        self.jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Live points (across all jobs) attached to each in-flight
        #: key.  Cancellation decrements; when the last waiter leaves,
        #: the simulation's future is cancelled so its result is not
        #: delivered to anyone (it is still cached if it completes).
        self._waiters: Dict[str, int] = {}
        #: Cap on the job table; terminal jobs beyond it are evicted
        #: oldest-first (``<= 0`` disables the cap).  Running jobs are
        #: never evicted, so a burst of active work can exceed the cap
        #: until it settles.
        self.max_jobs = max_jobs
        self._ids = itertools.count(1)
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "jobs_evicted": 0,
            "points_total": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "scheduled": 0,
            "points_done": 0,
            "points_failed": 0,
            "points_cancelled": 0,
            "batch_requests": 0,
            "batch_jobs": 0,
        }
        self.largest_batch = 0
        #: Wall seconds actually spent by this server's executed points
        #: (origin SCHEDULED only -- cache hits and coalesced points
        #: reuse another execution's work), split the way the engine
        #: reports it: machine bring-up vs the event loop.  Workload
        #: dicts carry ``setup_wall_s``/``execute_wall_s`` per point.
        self.point_wall: Dict[str, float] = {
            "setup_wall_s": 0.0,
            "execute_wall_s": 0.0,
        }

    # -- submission ---------------------------------------------------

    def submit_payload(self, payload: Any) -> Job:
        """Validate a decoded request body and submit it."""
        entry, spec = parse_job_spec(payload, resolve=self.resolve)
        return self.submit(entry, spec)

    def submit(self, entry: WorkloadEntry, spec: JobSpec) -> Job:
        """Classify and dispatch every point; returns the live job."""
        seeds = sweep_seeds(spec.seed, spec.points)
        keys = batch_cache_keys(entry.fn, spec.configs, seeds)
        return self._admit(entry, spec, seeds, keys)

    def submit_batch(self, parsed: "List[tuple]") -> List[Job]:
        """Submit many validated ``(entry, spec)`` jobs in one pass.

        The whole batch's cache keys are computed up front
        (:func:`~repro.sweep.cache.batch_cache_keys`, one amortised
        pass per job) and the cache is probed **once per distinct
        key** across the batch, before any job is admitted to the
        table.  Classification then runs against the probe map and the
        in-flight map, so a point scheduled by an earlier job in the
        batch coalesces later duplicates exactly as concurrent HTTP
        submissions would -- no await between probe and admission means
        no race.
        """
        keyed = []
        for entry, spec in parsed:
            seeds = sweep_seeds(spec.seed, spec.points)
            keys = batch_cache_keys(entry.fn, spec.configs, seeds)
            keyed.append((entry, spec, seeds, keys))

        probe: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            probe = {}
            for _, _, _, keys in keyed:
                for key in keys:
                    if key not in probe:
                        probe[key] = self.cache.get(key, _MISS)

        jobs = [
            self._admit(entry, spec, seeds, keys, probe=probe)
            for entry, spec, seeds, keys in keyed
        ]
        self.counters["batch_requests"] += 1
        self.counters["batch_jobs"] += len(jobs)
        self.largest_batch = max(self.largest_batch, len(jobs))
        return jobs

    def _admit(
        self,
        entry: WorkloadEntry,
        spec: JobSpec,
        seeds: List[int],
        keys: List[str],
        probe: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Admit one job whose keys are already computed.

        ``probe`` is a batch-wide ``{key: cached-or-_MISS}`` map; when
        absent the cache is probed per point (the single-submit path).
        """
        job = Job(f"job-{next(self._ids)}", spec, keys)
        self.jobs[job.id] = job
        self.counters["jobs_submitted"] += 1
        self.counters["points_total"] += spec.points
        job.state = RUNNING

        for i, (config, seed, key) in enumerate(zip(spec.configs, seeds, keys)):
            if self.cache is None:
                cached = _MISS
            elif probe is not None:
                cached = probe.get(key, _MISS)
            else:
                cached = self.cache.get(key, _MISS)
            if cached is not _MISS and key not in self._inflight:
                job.origins[i] = CACHE_HIT
                self.counters["cache_hits"] += 1
                self._settle_point(job, i, result=cached)
                continue
            fut = self._inflight.get(key)
            if fut is None:
                fut = asyncio.get_running_loop().create_future()
                self._inflight[key] = fut
                job.origins[i] = SCHEDULED
                self.counters["scheduled"] += 1
                asyncio.ensure_future(
                    self._run_point(entry, config, seed, i, key, fut)
                )
            else:
                job.origins[i] = COALESCED
                self.counters["coalesced"] += 1
            self._waiters[key] = self._waiters.get(key, 0) + 1
            fut.add_done_callback(self._settle_callback(job, i, config))
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(f"no such job: {job_id}") from None

    # -- cancellation and eviction ------------------------------------

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job's unsettled points; returns a cancel summary.

        Every pending point settles *now* with a structured
        ``cancelled`` error (waking ``/events`` watchers), and the
        job's claim on each in-flight simulation is released.  A
        simulation whose **only** remaining waiter was this job has its
        future cancelled -- nobody is listening, so nobody is woken --
        but points from *other* jobs coalesced onto the same key keep
        the future alive and receive their results untouched.
        Cancelling a terminal (or already-cancelled) job is a no-op
        that reports the current state.
        """
        job = self.get(job_id)
        if job.state in TERMINAL:
            return {
                "job_id": job.id,
                "state": job.state,
                "cancelled_points": 0,
            }
        job.cancel_requested = True
        cancelled = 0
        for i in range(job.spec.points):
            if job.point_done[i]:
                continue
            key = job.keys[i]
            self._settle_point(
                job,
                i,
                error={
                    "type": "Cancelled",
                    "code": "cancelled",
                    "message": f"{job.id} cancelled by DELETE",
                    "index": i,
                },
            )
            self._release_waiter(key)
            cancelled += 1
        return {
            "job_id": job.id,
            "state": job.state,
            "cancelled_points": cancelled,
        }

    def _release_waiter(self, key: str) -> None:
        """Drop one waiter from ``key``; cancel orphaned simulations."""
        count = self._waiters.get(key)
        if count is None:
            return
        if count > 1:
            self._waiters[key] = count - 1
            return
        del self._waiters[key]
        fut = self._inflight.pop(key, None)
        if fut is not None and not fut.done():
            # The executor may still burn CPU on the point (threads and
            # processes cannot be preempted mid-simulation), but its
            # result will be delivered to no one.  It still lands in
            # the cache, so the work is not wasted if anyone re-asks.
            fut.cancel()

    def _evict(self) -> None:
        """Hold the job table at ``max_jobs``, oldest-terminal-first."""
        if self.max_jobs <= 0:
            return
        while len(self.jobs) > self.max_jobs:
            victim = next(
                (j for j in self.jobs.values() if j.state in TERMINAL), None
            )
            if victim is None:
                return  # everything is active; the cap waits
            del self.jobs[victim.id]
            self.counters["jobs_evicted"] += 1

    # -- execution ----------------------------------------------------

    async def _run_point(self, entry, config, seed, index, key, fut) -> None:
        """Drive one scheduled point through the backend; resolve its
        in-flight future, caching successes first so post-completion
        duplicates are cache hits."""
        try:
            result = await self.backend.run_point(entry.fn, config, seed, index)
        except Exception as exc:
            self._inflight.pop(key, None)
            self._waiters.pop(key, None)
            if not fut.cancelled():
                fut.set_exception(exc)
        else:
            if self.cache is not None:
                self.cache.put(key, result)
            self._inflight.pop(key, None)
            self._waiters.pop(key, None)
            if not fut.cancelled():
                fut.set_result(result)

    def _settle_callback(self, job: Job, index: int, config: Any):
        def on_done(fut: asyncio.Future) -> None:
            if fut.cancelled():
                self._settle_point(
                    job, index,
                    error={"type": "Cancelled", "code": "cancelled",
                           "message": "point cancelled",
                           "index": index, "config_token": describe_config(config)},
                )
                return
            exc = fut.exception()
            if exc is None:
                self._settle_point(job, index, result=fut.result())
            else:
                error = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "index": index,
                    "config_token": describe_config(config),
                }
                if isinstance(exc, SweepPointError) and exc.config_token:
                    error["config_token"] = exc.config_token
                details = getattr(exc, "details", None)
                if details:  # e.g. BackendError names the lost point
                    error["details"] = dict(details)
                self._settle_point(job, index, error=error)

        return on_done

    def _settle_point(
        self,
        job: Job,
        index: int,
        result: Any = None,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        if job.point_done[index]:  # defensive: never settle twice
            return
        job.point_done[index] = True
        job.results[index] = result
        job.errors[index] = error
        job.settled += 1
        cancelled = error is not None and error.get("code") == "cancelled"
        if error is None:
            self.counters["points_done"] += 1
            if job.origins[index] == SCHEDULED and isinstance(result, dict):
                self.point_wall["setup_wall_s"] += float(
                    result.get("setup_wall_s", 0.0)
                )
                self.point_wall["execute_wall_s"] += float(
                    result.get("execute_wall_s", 0.0)
                )
        elif cancelled:
            self.counters["points_cancelled"] += 1
        else:
            self.counters["points_failed"] += 1
        job._emit(
            {
                "event": "point",
                "job_id": job.id,
                "index": index,
                "origin": job.origins[index],
                "state": job._point_state(index),
                "settled": job.settled,
                "points": job.spec.points,
                **({"error": error} if error else {}),
            }
        )
        if job.settled == job.spec.points:
            if job.cancel_requested:
                job.state = CANCELLED
            else:
                job.state = FAILED if any(job.errors) else DONE
            job.finished_at = time.time()
            self.counters[
                {DONE: "jobs_done", FAILED: "jobs_failed", CANCELLED: "jobs_cancelled"}[
                    job.state
                ]
            ] += 1
            job._emit(
                {
                    "event": "job",
                    "job_id": job.id,
                    "state": job.state,
                    "dedupe": job.dedupe,
                }
            )
            self._evict()

    # -- introspection ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Distinct points currently in flight (scheduled, unsettled)."""
        return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        active = sum(1 for j in self.jobs.values() if j.state in (QUEUED, RUNNING))
        payload: Dict[str, Any] = dict(self.counters)
        payload["jobs_active"] = active
        payload["jobs_tracked"] = len(self.jobs)
        payload["max_jobs"] = self.max_jobs
        payload["queue_depth"] = self.queue_depth
        payload["batch"] = {
            "requests": self.counters["batch_requests"],
            "jobs": self.counters["batch_jobs"],
            "largest": self.largest_batch,
        }
        payload["point_wall"] = {
            k: round(v, 6) for k, v in self.point_wall.items()
        }
        payload["cache"] = (
            {"enabled": True, "dir": self.cache.root, **self.cache.stats()}
            if self.cache is not None
            else {"enabled": False}
        )
        payload["backend"] = self.backend.utilization()
        return payload
