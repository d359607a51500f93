"""The sweep runner: ordered, seeded, worker-count-independent.

Determinism contract
--------------------
``run_sweep(configs, workload, seed=s)`` returns
``[workload(configs[i], seed_i) for i]`` where ``seed_i`` is the i-th
child of ``numpy.random.SeedSequence(s)`` -- derived from the master
seed and the config's *position* only.  Worker processes change where
each point executes, never what it computes:

* seeds are spawned up front on the parent, indexed by position;
* results are collected by position (``Pool.map`` order), not by
  completion order;
* the workload receives an integer seed, so any engine or RNG it
  builds is self-contained per point.

Consequently ``workers=1`` (in-process, no pickling needed) and any
``workers=N`` produce identical result lists, asserted in tests.

Workloads running under ``workers > 1`` must be picklable module-level
callables with picklable configs/results (the usual multiprocessing
rules); the serial path has no such restriction.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.sweep.cache import (
    ENTRY_OVERHEAD_BYTES,
    BoundedLRU,
    RunCache,
    cache_key,
    describe_config,
)
from repro.util.errors import ConfigurationError, SweepPointError

#: Distinguishes "not in the cache" from a legitimately cached None.
_MISS = object()

#: Bound on the :func:`sweep_seeds` memo.  One job may carry thousands
#: of seeds, so entries are charged by size, not counted.
SEED_MEMO_BYTES = 1 << 20

#: What one memoised seed costs: a 63-bit int object and its slot.
_SEED_BYTES = 48

_SEED_MEMO = BoundedLRU(
    SEED_MEMO_BYTES, lambda seeds: len(seeds) * _SEED_BYTES + ENTRY_OVERHEAD_BYTES
)


def sweep_seeds(seed: int, n: int) -> List[int]:
    """The per-config integer seeds ``run_sweep`` hands the workload.

    Child ``SeedSequence.spawn`` streams collapsed to one 63-bit
    integer each: statistically independent across configs, stable
    across processes and platforms, and small enough to pass to any
    ``Engine(seed=...)`` or ``default_rng`` call.  Results for plain
    ``int`` arguments are memoised (every admission of a job derives
    its seeds, and a resubmitted job asks again); each call returns a
    fresh list.
    """
    if n < 0:
        raise ConfigurationError(f"cannot derive {n} sweep seeds")
    # Only plain ints are memoised: 1.0, True and np.int64(1) are equal
    # keys to 1, but SeedSequence rejects the float.
    memoizable = type(seed) is int and type(n) is int
    seeds = _SEED_MEMO.get((seed, n)) if memoizable else None
    if seeds is None:
        children = np.random.SeedSequence(seed).spawn(n)
        seeds = tuple(int(c.generate_state(1, dtype=np.uint64)[0] >> 1) for c in children)
        if memoizable:
            _SEED_MEMO.put((seed, n), seeds)
    return list(seeds)


def call_sweep_point(
    workload: Callable[[Any, int], Any], config: Any, seed: int, index: int = 0
) -> Any:
    """Run one sweep point; failures become :class:`SweepPointError`.

    A raw worker exception names neither the point's position nor its
    config, which is all a caller fanning out hundreds of points has to
    go on.  The wrapper pins both (the original exception stays chained
    as ``__cause__`` and summarised in the message, since causes do not
    survive the process-pool pickle boundary).  The job server's
    backends reuse this shim so per-job failure reports match
    ``run_sweep``'s.
    """
    try:
        return workload(config, seed)
    except SweepPointError:
        raise
    except Exception as exc:
        token = describe_config(config)
        raise SweepPointError(
            f"sweep point {index} ({token}) failed: {type(exc).__name__}: {exc}",
            index=index,
            config_token=token,
        ) from exc


def _invoke(task: tuple) -> Any:
    """Worker-side shim: unpack one (workload, config, seed, index) task."""
    workload, config, seed, index = task
    return call_sweep_point(workload, config, seed, index)


def run_sweep(
    configs: Sequence[Any],
    workload: Callable[[Any, int], Any],
    *,
    workers: Optional[int] = None,
    seed: int = 0,
    cache: Optional["RunCache"] = None,
) -> List[Any]:
    """Run ``workload(config, seed_i)`` for every config; ordered results.

    Parameters
    ----------
    configs:
        The sweep points, in output order.
    workload:
        ``workload(config, seed) -> result``.  Must be a picklable
        module-level callable when ``workers > 1``.
    workers:
        Process count.  ``None`` uses ``os.cpu_count()``; ``1`` (or a
        single config) runs serially in-process.  Worker count never
        changes the returned results, only the wall time.
    seed:
        Master seed for :func:`sweep_seeds`.
    cache:
        Optional :class:`~repro.sweep.cache.RunCache`.  Points whose
        ``(workload, config, seed_i)`` content key is already stored
        are served from disk; only the misses are simulated (with the
        seeds their *original positions* would have received, so a
        partially cached sweep returns the same results as an uncached
        one) and then stored back.  Hit/miss counts accumulate on the
        cache object.
    """
    configs = list(configs)
    n = len(configs)
    seeds = sweep_seeds(seed, n)

    if cache is not None:
        keys = [cache_key(workload, config, s) for config, s in zip(configs, seeds)]
        results: List[Any] = [cache.get(key, _MISS) for key in keys]
        miss_idx = [i for i, r in enumerate(results) if r is _MISS]
        if miss_idx:
            fresh = _run_all(
                [configs[i] for i in miss_idx],
                workload,
                [seeds[i] for i in miss_idx],
                workers,
                indices=miss_idx,
            )
            for i, result in zip(miss_idx, fresh):
                results[i] = result
                cache.put(keys[i], result)
        return results

    return _run_all(configs, workload, seeds, workers)


def _run_all(
    configs: Sequence[Any],
    workload: Callable[[Any, int], Any],
    seeds: Sequence[int],
    workers: Optional[int],
    indices: Optional[Sequence[int]] = None,
) -> List[Any]:
    """Execute every (config, seed) pair; ordered results.

    ``indices`` carries each point's *original* sweep position (a
    partially cached sweep runs only the misses) so failure reports
    name the position the caller sees.
    """
    n = len(configs)
    if indices is None:
        indices = range(n)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, n) if n else 1
    if workers <= 1:
        return [
            call_sweep_point(workload, config, s, i)
            for config, s, i in zip(configs, seeds, indices)
        ]
    tasks = [
        (workload, config, s, i) for config, s, i in zip(configs, seeds, indices)
    ]
    # chunksize=1: sweep points are coarse (whole simulations), so
    # balance beats batching.  Pool.map preserves task order.
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_invoke, tasks, chunksize=1)
