"""Workloads and their request lists, generated from ``--seed``.

Pure data: nothing here imports ``repro`` -- the server only ever sees
the JSON these functions build.  A *request* is one client call::

    {"call": "run" | "run_batch",
     "jobs": [{"workload": str, "configs": [dict, ...], "seed": int}, ...]}

A *round* is a fixed-length list of requests, a pure function of
``(workload, seed, round_index)``, so simulated statistics and
hit/scheduled counts repeat exactly between runs of one seed.  Round 0
is the discarded warm-up; timed rounds count from 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List

Job = Dict[str, Any]
Request = Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: how long a round is and what it is made of."""

    name: str
    why: str
    #: Requests per timed round (fixed, so counts repeat exactly).
    round_requests: int
    #: Leading requests of round 0 sent, unverified-for-time, before
    #: the first timed round: enough to spawn the pool worker and
    #: import every module the workload's points touch.
    warmup_requests: int
    #: Leading requests of the first traced round replayed in-process
    #: through each layer's public function.
    replay_requests: int
    #: Cold workloads must schedule every point; warm ones must hit.
    cold: bool

    @property
    def expected_origin(self) -> str:
        return "scheduled" if self.cold else "cache_hit"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cold_small",
            "1-point jobs of 6-7 ms engine time, fresh seeds: the serving plane "
            "(HTTP round trips, 20 ms poll, IPC, cache write) is ~70% of latency",
            round_requests=100, warmup_requests=8, replay_requests=8, cold=True,
        ),
        Workload(
            "cold_macro",
            "batch of two 8-point closed-form sweeps up to 1024 ranks on all "
            "four preset topologies: macro/stencil evaluators are >90%",
            round_requests=4, warmup_requests=1, replay_requests=1, cold=True,
        ),
        Workload(
            "cold_eventloop",
            "1-point lu2d 8x8 n=128 (25,800 events, pure event path): the "
            "engine event loop and lu2d wrapper are >90%",
            round_requests=4, warmup_requests=2, replay_requests=2, cold=True,
        ),
        Workload(
            "warm_batch",
            "batches of 64 one-point jobs drawn Zipf(1) from 1024 pre-filled "
            "points: all cache hits, zero engine work, reads beside cold writes",
            round_requests=80, warmup_requests=4, replay_requests=1, cold=False,
        ),
    )
}

#: The cold_small cycle: 6-7 ms of engine each.  Long enough that no
#: job is ever finished by the client's first poll (1-3 ms points won
#: that race 4-27% of the time, round by round, and jobs_per_s swung
#: 20% with it), short enough to stay inside one 20 ms poll sleep.
COLD_SMALL_POINTS = (
    ("collectives", {"ranks": 128}),
    ("halo", {"rows": 8, "cols": 16, "steps": 8}),
    ("collectives", {"ranks": 96, "algorithm": "reduce_bcast"}),
    ("halo", {"rows": 16, "cols": 16, "steps": 4}),
)

#: The warm_batch catalogue cycle: 1-2 ms points, so pre-filling 1024 of
#: them stays a few seconds of set-up.
CATALOGUE_POINTS = (
    ("collectives", {"ranks": 32}),
    ("halo", {"rows": 4, "cols": 8}),
    ("collectives", {"ranks": 16, "algorithm": "reduce_bcast"}),
    ("halo", {"rows": 4, "cols": 4, "steps": 4}),
)

#: cold_macro: the four multi-node presets (two Mesh2D sizes, the CM-5's
#: FullyConnected, the iPSC/860 Hypercube), each at the largest rank
#: count its registry entry allows.
MACRO_COLLECTIVES = [
    {"ranks": ranks, "machine": machine, "algorithm": algorithm}
    for ranks, machine in ((1024, "paragon"), (528, "delta"), (512, "cm5"), (128, "ipsc860"))
    for algorithm in ("recursive_doubling", "reduce_bcast")
]
MACRO_HALO = [
    {"rows": rows, "cols": cols, "steps": steps, "machine": "paragon"}
    for rows, cols in ((16, 64), (32, 32), (16, 32), (8, 64))
    for steps in (5, 10)
]

CATALOGUE_SIZE = 1024
WARM_BATCH_JOBS = 64
#: ``POST /jobs/batch`` accepts at most 256 jobs (MAX_BATCH_JOBS).
PREFILL_BATCH_JOBS = 256

#: Job seeds are ``base + (round << _ROUND_SHIFT) + position``; a round
#: holds at most 80 x 64 jobs, so positions never reach the next round.
_ROUND_SHIFT = 14
_ZIPF_CUM_WEIGHTS = list(
    itertools.accumulate(1.0 / (rank + 1) for rank in range(CATALOGUE_SIZE))
)


def seed_base(seed: int, name: str) -> int:
    """Where this (seed, workload)'s job seeds start: disjoint ranges
    per pair, so no cold request ever repeats a (config, seed)."""
    return random.Random(f"{seed}/{name}").getrandbits(40) << 20


def catalogue(seed: int) -> List[Job]:
    """warm_batch's working set: 1024 distinct one-point jobs."""
    base = seed_base(seed, "warm_batch")
    return [
        {"workload": workload, "configs": [dict(config)], "seed": base + k}
        for k, (workload, config) in zip(
            range(CATALOGUE_SIZE), itertools.cycle(CATALOGUE_POINTS)
        )
    ]


def prefill_requests(seed: int) -> List[Request]:
    """The set-up requests that put the whole catalogue on disk."""
    jobs = catalogue(seed)
    return [
        {"call": "run_batch", "jobs": jobs[i : i + PREFILL_BATCH_JOBS]}
        for i in range(0, len(jobs), PREFILL_BATCH_JOBS)
    ]


def round_requests(workload: Workload, seed: int, round_index: int) -> List[Request]:
    """The request list of one round (0 = warm-up, 1.. = timed)."""
    base = seed_base(seed, workload.name) + (round_index << _ROUND_SHIFT)
    n = workload.round_requests
    if workload.name == "cold_small":
        return [
            {"call": "run",
             "jobs": [{"workload": name, "configs": [dict(config)], "seed": base + i}]}
            for i, (name, config) in zip(range(n), itertools.cycle(COLD_SMALL_POINTS))
        ]
    if workload.name == "cold_macro":
        return [
            {"call": "run_batch",
             "jobs": [
                 {"workload": "collectives",
                  "configs": [dict(c) for c in MACRO_COLLECTIVES], "seed": base + 2 * i},
                 {"workload": "halo",
                  "configs": [dict(c) for c in MACRO_HALO], "seed": base + 2 * i + 1},
             ]}
            for i in range(n)
        ]
    if workload.name == "cold_eventloop":
        return [
            {"call": "run",
             "jobs": [{
                 "workload": "lu2d",
                 "configs": [{"prows": 8, "pcols": 8, "n": 128,
                              "machine": ("delta", "paragon")[i % 2],
                              "overlap": bool((i // 2) % 2)}],
                 "seed": base + i,
             }]}
            for i in range(n)
        ]
    if workload.name == "warm_batch":
        jobs = catalogue(seed)
        rng = random.Random(f"{seed}/warm_batch/{round_index}")
        return [
            {"call": "run_batch",
             "jobs": [
                 jobs[k]
                 for k in rng.choices(
                     range(CATALOGUE_SIZE), cum_weights=_ZIPF_CUM_WEIGHTS,
                     k=WARM_BATCH_JOBS,
                 )
             ]}
            for _ in range(n)
        ]
    raise KeyError(f"no request generator for workload {workload.name!r}")


def request_jobs(request: Request) -> int:
    return len(request["jobs"])


def request_points(request: Request) -> int:
    return sum(len(job["configs"]) for job in request["jobs"])
