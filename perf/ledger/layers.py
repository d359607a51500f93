"""In-process replay: the same generated inputs, one layer at a time.

The traced rounds say where a request's time went *between* processes;
this module says what each layer's public function costs on its own, by
calling it directly on a sample of the very requests the server saw.
Every number is host time measured from outside the function -- nothing
in ``src/`` is instrumented.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import statistics
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.machine.presets import get_machine
from repro.serve import PoolBackend, parse_job_batch, parse_job_spec
from repro.sweep import (
    RunCache,
    batch_cache_keys,
    config_from_dict,
    get_workload,
    run_sweep,
    sweep_seeds,
)

from ledger.requests import Request

#: Engine replays (direct point, run_sweep, pool round trip) stop here;
#: the cheap layers replay every sampled point.
MAX_ENGINE_POINTS = 16

#: Pairs in the ``hops_array`` probe vector.
HOPS_PAIRS = 1024

_MISS = object()


def median_us(fn: Callable[[], Any], repeats: int) -> float:
    """Median microseconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def _resolve(requests: List[Request]) -> List[Tuple[Any, List[Any], List[int], int]]:
    """Each sampled job as ``(entry, configs, derived_seeds, job_seed)``."""
    jobs = []
    for request in requests:
        for job in request["jobs"]:
            entry = get_workload(job["workload"])
            configs = [config_from_dict(entry.config_type, raw) for raw in job["configs"]]
            jobs.append((entry, configs, sweep_seeds(job["seed"], len(configs)), job["seed"]))
    return jobs


def replay(requests: List[Request], work_dir: str) -> Dict[str, float]:
    """Per-layer costs of ``requests``, keyed by metric name."""
    metrics: Dict[str, float] = {}
    jobs = _resolve(requests)
    n_jobs = len(jobs)
    points = [
        (entry, config, seed)
        for entry, configs, seeds, _ in jobs
        for config, seed in zip(configs, seeds)
    ]
    engine_points = points[:MAX_ENGINE_POINTS]

    # serve.protocol: validation of the decoded body, as the route does it.
    def parse_all() -> None:
        for request in requests:
            if request["call"] == "run":
                parse_job_spec(request["jobs"][0])
            else:
                parse_job_batch({"jobs": request["jobs"]})

    metrics["serve.protocol.parse_us_per_job"] = median_us(parse_all, 20) / n_jobs

    # sweep.runner / sweep.cache: seed derivation and key derivation.
    metrics["sweep.runner.seeds_us_per_job"] = median_us(
        lambda: [sweep_seeds(seed, len(configs)) for _, configs, _, seed in jobs], 20
    ) / n_jobs
    metrics["sweep.cache.key_us_per_point"] = median_us(
        lambda: [batch_cache_keys(e.fn, configs, seeds) for e, configs, seeds, _ in jobs], 20
    ) / len(points)

    # sweep.workloads: the point function called directly.
    results, walls = [], []
    for entry, config, seed in engine_points:
        t0 = time.perf_counter()
        result = entry.fn(config, seed)
        walls.append(time.perf_counter() - t0)
        results.append(result)
    metrics["sweep.workloads.point_ms"] = statistics.mean(walls) * 1e3
    metrics["sweep.workloads.wrapper_ms"] = statistics.mean(
        wall - result["setup_wall_s"] - result["execute_wall_s"]
        for wall, result in zip(walls, results)
    ) * 1e3
    # What the point function spends outside its own ``wall_s`` clock
    # (matrix build, exactness check): the two replays below subtract
    # it, so each is left with only what its own layer adds.
    outside = [wall - result["wall_s"] for wall, result in zip(walls, results)]

    # sweep.runner: what run_sweep adds around the same points.
    overhead_s, swept_points = 0.0, 0
    for entry, configs, _, job_seed in jobs:
        if swept_points + len(configs) > len(engine_points):
            break
        t0 = time.perf_counter()
        swept = run_sweep(configs, entry.fn, workers=1, seed=job_seed)
        overhead_s += time.perf_counter() - t0 - sum(r["wall_s"] for r in swept)
        swept_points += len(configs)
    overhead_s -= sum(outside[:swept_points])
    metrics["sweep.runner.overhead_us_per_point"] = overhead_s / swept_points * 1e6

    # sweep.cache: put, hit and miss on a scratch directory.
    with tempfile.TemporaryDirectory(prefix="replay-cache-", dir=work_dir) as root:
        cache = RunCache(root)
        keys = [batch_cache_keys(e.fn, [c], [s])[0] for e, c, s in engine_points]
        miss, put, hit = [], [], []
        for key, result in zip(keys, results):
            t0 = time.perf_counter()
            cache.get(key, _MISS)
            t1 = time.perf_counter()
            cache.put(key, result)
            t2 = time.perf_counter()
            cache.get(key, _MISS)
            t3 = time.perf_counter()
            miss.append(t1 - t0)
            put.append(t2 - t1)
            hit.append(t3 - t2)
        metrics["sweep.cache.get_miss_us"] = statistics.median(miss) * 1e6
        metrics["sweep.cache.put_us"] = statistics.median(put) * 1e6
        metrics["sweep.cache.get_hit_us"] = statistics.median(hit) * 1e6
        sizes = [size for _, size, _ in cache.entries()]
        metrics["sweep.cache.bytes_per_entry"] = statistics.mean(sizes)

    # serve.backends: the pool round trip around the same points.
    try:
        metrics["serve.backends.ipc_us_per_point"] = asyncio.run(
            _pool_ipc_us(engine_points, outside)
        )
    finally:
        _wait_pool_gone()

    # machine: preset construction and vectorised hop counts.
    names = sorted({config.machine for _, config, _ in points})
    rng = np.random.default_rng(0)
    get_us, hops_us = [], []
    for name in names:
        get_us.append(median_us(lambda: get_machine(name), 20))
        topology = get_machine(name).topology
        srcs = rng.integers(0, topology.n_nodes, HOPS_PAIRS)
        dsts = rng.integers(0, topology.n_nodes, HOPS_PAIRS)
        hops_us.append(median_us(lambda: topology.hops_array(srcs, dsts), 50))
    metrics["machine.get_machine_us"] = statistics.mean(get_us)
    metrics["machine.hops_array_us"] = statistics.mean(hops_us)
    return metrics


async def _pool_ipc_us(points: List[Tuple[Any, Any, int]], outside: List[float]) -> float:
    """Median (round trip - the point's own ``wall_s`` - what its
    function spends outside that clock) through a one-worker
    :class:`PoolBackend`, after one unmeasured pass that spawns the
    worker and imports what the points need."""
    backend = PoolBackend(workers=1)
    try:
        seen = set()
        for entry, config, seed in points:
            if entry.name not in seen:
                seen.add(entry.name)
                await backend.run_point(entry.fn, config, seed)
        samples = []
        for (entry, config, seed), extra in zip(points, outside):
            t0 = time.perf_counter()
            result = await backend.run_point(entry.fn, config, seed)
            samples.append(time.perf_counter() - t0 - result["wall_s"] - extra)
    finally:
        backend.close()
    return statistics.median(samples) * 1e6


def _wait_pool_gone() -> None:
    """``PoolBackend.close()`` does not wait.  The executor's manager
    thread and its worker must both be gone before this process is --
    and before interpreter exit trips over the half-closed executor."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(timeout=10.0)
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
