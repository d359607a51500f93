"""Pluggable execution backends for the job server.

The front-end (routes, job table, dedupe) is one fixed piece; *where*
sweep points actually execute is a backend decision -- the SHARP-style
split between launcher and interchangeable execution engines.  A
backend exposes one awaitable operation::

    result = await backend.run_point(fn, config, seed, index)

plus ``utilization()`` for ``/stats`` and ``close()`` for shutdown.
Both shipped backends funnel the call through
:func:`repro.sweep.call_sweep_point`, so workload failures surface as
the same :class:`~repro.util.errors.SweepPointError` the sweep runner
raises -- one failure vocabulary across CLI and service.

``InProcessBackend``
    A thread pool in the server process.  No pickling, so tests can run
    closures and private workloads; simulation work holds the GIL, so
    it is a correctness/test backend, not a throughput one.

``PoolBackend``
    A persistent ``concurrent.futures.ProcessPoolExecutor`` (a
    multiprocessing worker pool with health detection).  Workload
    functions and configs must be picklable -- exactly the registry
    contract.  A dead worker (OOM-kill, segfault, ``os._exit``) breaks
    the pool: the affected points fail with :class:`BackendError`, the
    pool is replaced in place, and the server keeps serving.

``ShardedBackend``
    The multi-host story: N child backends (pool servers by default)
    behind one interface, points routed by **consistent hashing on the
    point's cache key** -- the same content hash the RunCache and the
    dedupe layer use -- so a given (workload, config, seed) always
    lands on the same shard and whatever warm state that shard holds
    stays useful.  A shard dying fails only *its* in-flight points
    (annotated with the shard index) and is replaced in place, leaving
    the hash ring -- and therefore every other point's routing --
    untouched.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import signal
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.serve.errors import BackendError
from repro.sweep import cache_key, call_sweep_point
from repro.util.errors import ConfigurationError


class Backend:
    """Interface: run one sweep point somewhere, asynchronously.

    ``key`` is the point's content-address (``sweep.cache.cache_key``);
    callers that already computed it pass it so routing backends do not
    hash twice.  Backends that do not route may ignore it.
    """

    name = "abstract"

    async def run_point(
        self,
        fn: Callable[[Any, int], Any],
        config: Any,
        seed: int,
        index: int = 0,
        key: Optional[str] = None,
    ) -> Any:
        raise NotImplementedError

    def utilization(self) -> Dict[str, Any]:
        """Point-in-time load for ``/stats``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers; idempotent."""


class _ExecutorBackend(Backend):
    """Shared machinery: dispatch to a concurrent.futures executor."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError(f"backend workers must be >= 1, got {workers}")
        self.workers = workers
        self.busy = 0
        self.completed = 0
        self.failed = 0

    def _executor(self):
        raise NotImplementedError

    async def run_point(self, fn, config, seed, index=0, key=None):
        loop = asyncio.get_running_loop()
        executor = self._executor()
        self.busy += 1
        try:
            result = await loop.run_in_executor(
                executor, call_sweep_point, fn, config, seed, index
            )
        except BrokenExecutor as exc:
            self.failed += 1
            self._on_broken(executor)
            raise BackendError(
                f"{self.name} backend lost a worker running point {index}; "
                "the pool was replaced and the server stays up",
                details={"point": index},
            ) from exc
        except Exception:
            self.failed += 1
            raise
        else:
            self.completed += 1
            return result
        finally:
            self.busy -= 1

    def _on_broken(self, executor) -> None:
        """React to a broken executor (process backends replace it)."""

    def utilization(self) -> Dict[str, Any]:
        return {
            "backend": self.name,
            "workers": self.workers,
            "busy": self.busy,
            "completed": self.completed,
            "failed": self.failed,
        }


class InProcessBackend(_ExecutorBackend):
    """Run points on server-process threads (tests, demos, tiny jobs)."""

    name = "inprocess"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def _executor(self):
        return self._pool

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class PoolBackend(_ExecutorBackend):
    """Run points on a persistent process pool; survives worker death."""

    name = "pool"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers or os.cpu_count() or 1)
        self._pool = self._new_pool()
        self.restarts = 0

    def _new_pool(self) -> ProcessPoolExecutor:
        # A worker dies on SIGTERM, whatever handler the server it forked from set.
        return ProcessPoolExecutor(self.workers, initializer=signal.signal,
                                   initargs=(signal.SIGTERM, signal.SIG_DFL))

    def _executor(self):
        return self._pool

    def _on_broken(self, executor) -> None:
        # Several in-flight points can observe the same broken pool;
        # only the first one swaps in a replacement.
        if executor is self._pool:
            self.restarts += 1
            self._pool = self._new_pool()
            executor.shutdown(wait=False)

    def utilization(self) -> Dict[str, Any]:
        info = super().utilization()
        info["restarts"] = self.restarts
        return info

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class _HashRing:
    """A consistent-hash ring over shard indices.

    Each shard owns ``replicas`` pseudo-random positions on a 64-bit
    ring (SHA-256 of ``"shard-{s}-{r}"``); a cache key is placed by its
    leading 64 bits and routed clockwise to the next shard position.
    The layout depends only on (shard count, replicas), so every server
    with the same shard count routes a key identically -- and replacing
    a dead shard *in place* changes nothing at all.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ConfigurationError(f"hash ring needs >= 1 shard, got {shards}")
        if replicas < 1:
            raise ConfigurationError(f"hash ring needs >= 1 replica, got {replicas}")
        points = []
        for shard in range(shards):
            for replica in range(replicas):
                digest = hashlib.sha256(f"shard-{shard}-{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def lookup(self, key: str) -> int:
        """The shard owning ``key`` (a sha256 hex cache key)."""
        position = int(key[:16], 16)
        i = bisect.bisect_right(self._hashes, position)
        if i == len(self._hashes):
            i = 0  # wrap around the ring
        return self._shards[i]


class ShardedBackend(Backend):
    """Split points across several child backends by cache-key hash.

    The default child is a :class:`PoolBackend` -- N independent pool
    servers behind one front door, the commodity scale-out shape.  A
    custom ``factory(index) -> Backend`` swaps in anything else (tests
    use in-process shards).  Failure containment is per shard: a
    worker death inside shard *k* fails only the points in flight on
    *k* (the :class:`BackendError` is annotated with the shard index)
    while the shard heals itself in place; :meth:`replace_shard` is the
    explicit big hammer for a shard wedged beyond self-repair, and
    neither changes the ring, so cache affinity survives.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 2,
        workers: Optional[int] = None,
        factory: Optional[Callable[[int], Backend]] = None,
        replicas: int = 64,
    ):
        if shards < 1:
            raise ConfigurationError(f"sharded backend needs >= 1 shard, got {shards}")
        if factory is None:
            per_shard = workers  # None = each pool sizes itself
            factory = lambda index: PoolBackend(per_shard)  # noqa: E731
        self._factory = factory
        self.shards: List[Backend] = [factory(i) for i in range(shards)]
        self.ring = _HashRing(shards, replicas)
        self.points_by_shard = [0] * shards
        self.failed_by_shard = [0] * shards
        self.shards_replaced = 0

    @property
    def workers(self) -> int:
        return sum(getattr(shard, "workers", 1) for shard in self.shards)

    def shard_for(self, key: str) -> int:
        """Which shard a cache key routes to (tests and /stats use it)."""
        return self.ring.lookup(key)

    async def run_point(self, fn, config, seed, index=0, key=None):
        if key is None:
            key = cache_key(fn, config, seed)
        shard = self.ring.lookup(key)
        self.points_by_shard[shard] += 1
        try:
            return await self.shards[shard].run_point(
                fn, config, seed, index, key=key
            )
        except BackendError as exc:
            # Containment: only this shard's points fail; the child has
            # already replaced its own pool.  Name the shard so the
            # job-level failure says where the machine died.
            self.failed_by_shard[shard] += 1
            exc.details["shard"] = shard
            raise

    def replace_shard(self, index: int) -> Backend:
        """Rebuild shard ``index`` in place via the factory.

        The ring is untouched: the replacement inherits exactly the key
        range its predecessor owned.
        """
        old = self.shards[index]
        self.shards[index] = self._factory(index)
        self.shards_replaced += 1
        try:
            old.close()
        except Exception:
            pass  # a wedged shard must not block its own replacement
        return self.shards[index]

    def utilization(self) -> Dict[str, Any]:
        per_shard = [shard.utilization() for shard in self.shards]
        return {
            "backend": self.name,
            "shards": len(self.shards),
            "workers": self.workers,
            "busy": sum(u.get("busy", 0) for u in per_shard),
            "completed": sum(u.get("completed", 0) for u in per_shard),
            "failed": sum(u.get("failed", 0) for u in per_shard),
            "restarts": sum(u.get("restarts", 0) for u in per_shard),
            "points_by_shard": list(self.points_by_shard),
            "failed_by_shard": list(self.failed_by_shard),
            "shards_replaced": self.shards_replaced,
            "per_shard": per_shard,
        }

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


#: Backend factories by CLI name.
BACKENDS: Dict[str, Callable[..., Backend]] = {
    "inprocess": InProcessBackend,
    "pool": PoolBackend,
}


def make_backend(
    name: str, workers: Optional[int] = None, shards: int = 0
) -> Backend:
    """Build a backend by registry name (``inprocess`` or ``pool``).

    ``shards >= 2`` wraps the named backend in a
    :class:`ShardedBackend`: N independent instances (``workers`` each)
    behind consistent-hash routing -- ``repro serve --shards N``.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
    if shards and shards >= 2:
        def shard_factory(index: int) -> Backend:
            return factory() if workers is None else factory(workers)

        return ShardedBackend(shards=shards, factory=shard_factory)
    if workers is None:
        return factory()
    return factory(workers)
