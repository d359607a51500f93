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
    the pool, which is replaced in place; every point that was in
    flight on it is rerun once, alone, in a one-worker quarantine pool.
    Only the point that kills that worker too fails, with
    :class:`BackendError`, and the server keeps serving.
"""

from __future__ import annotations

import asyncio
import os
import signal
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.serve.errors import BackendError
from repro.sweep import call_sweep_point
from repro.util.errors import ConfigurationError


class Backend:
    """Run one sweep point on a ``concurrent.futures`` executor, asynchronously."""

    name = "abstract"

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError(f"backend workers must be >= 1, got {workers}")
        self.workers = workers
        self.busy = 0
        self.completed = 0
        self.failed = 0
        self._pool = self._new_pool()

    def _new_pool(self) -> Executor:
        raise NotImplementedError

    async def run_point(
        self, fn: Callable[[Any, int], Any], config: Any, seed: int, index: int = 0
    ) -> Any:
        self.busy += 1
        try:
            result = await self._call(fn, config, seed, index)
        except Exception:
            self.failed += 1
            raise
        else:
            self.completed += 1
            return result
        finally:
            self.busy -= 1

    def _call(self, fn, config, seed, index) -> Awaitable[Any]:
        return asyncio.get_running_loop().run_in_executor(
            self._pool, call_sweep_point, fn, config, seed, index
        )

    def utilization(self) -> Dict[str, Any]:
        """Point-in-time load for ``/stats``."""
        return {
            "backend": self.name,
            "workers": self.workers,
            "busy": self.busy,
            "completed": self.completed,
            "failed": self.failed,
        }

    def close(self) -> None:
        """Release workers; idempotent."""
        self._pool.shutdown(wait=False, cancel_futures=True)


class InProcessBackend(Backend):
    """Run points on server-process threads (tests, demos, tiny jobs)."""

    name = "inprocess"

    def __init__(self, workers: int = 1):
        super().__init__(workers)

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.workers, thread_name_prefix="repro-serve")


def _init_worker() -> None:
    """A worker dies on SIGTERM and ignores SIGINT, whatever handlers the
    server it forked from set: Ctrl-C belongs to the server."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class PoolBackend(Backend):
    """Run points on a persistent process pool; a dead worker fails only
    the point that killed it."""

    name = "pool"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers or os.cpu_count() or 1)
        self.restarts = 0
        self._closed = False
        # The quarantine lane: made on the first break, one rerun at a time.
        self._lane: Optional[ProcessPoolExecutor] = None
        self._lane_lock: Optional[asyncio.Lock] = None

    def _new_pool(self, workers: Optional[int] = None) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(workers or self.workers, initializer=_init_worker)

    async def _call(self, fn, config, seed, index):
        pool = self._pool
        try:
            return await super()._call(fn, config, seed, index)
        except BrokenExecutor:
            # Several in-flight points can observe the same broken pool;
            # only the first one swaps in a replacement.
            if pool is self._pool and not self._closed:
                self.restarts += 1
                self._pool = self._new_pool()
                pool.shutdown(wait=False)
            return await self._rerun(fn, config, seed, index)

    async def _rerun(self, fn, config, seed, index):
        """Rerun a point whose pool broke alone on a one-worker pool, so a
        point that breaks this lane is the one that killed a worker."""
        if self._lane_lock is None:
            self._lane_lock = asyncio.Lock()
        async with self._lane_lock:
            if self._closed:
                raise self._lost(index, "the backend is closed")
            if self._lane is None:
                self._lane = self._new_pool(1)
            lane = self._lane
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    lane, call_sweep_point, fn, config, seed, index
                )
            except BrokenExecutor as exc:
                self._lane = None
                lane.shutdown(wait=False)
                raise self._lost(index, "it killed its worker when run alone") from exc

    def _lost(self, index: int, why: str) -> BackendError:
        return BackendError(
            f"{self.name} backend lost a worker running point {index}; {why}, "
            "and the server stays up",
            details={"point": index},
        )

    def utilization(self) -> Dict[str, Any]:
        info = super().utilization()
        info["restarts"] = self.restarts
        return info

    def close(self) -> None:
        self._closed = True
        super().close()
        if self._lane is not None:
            self._lane.shutdown(wait=False, cancel_futures=True)


#: Backend factories by CLI name.
BACKENDS: Dict[str, Callable[..., Backend]] = {
    "inprocess": InProcessBackend,
    "pool": PoolBackend,
}


def make_backend(name: str, workers: Optional[int] = None) -> Backend:
    """Build a backend by registry name (``inprocess`` or ``pool``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
    if workers is None:
        return factory()
    return factory(workers)
