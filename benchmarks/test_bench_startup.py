"""Machine bring-up at 10^5..10^6 ranks: the lazy-startup numbers.

Three workloads behind the ``startup_*``/``halo_1m`` records in
``BENCH_engine.json``:

* ``startup_1m`` -- a 1024x1024 (2^20-rank) Paragon brought up lazily
  under a macro certificate.  Setup builds the seed-stream table, the
  lazy ``CommTable``, and the columnar ``MachineState``; no per-rank
  Comm/rng/generator frame exists until a rank resumes, and ghost
  replay -- selected because the certificate proves the program
  symmetric -- resumes only rank 0.  The test also asserts that
  setup scales sub-linearly: 64x the ranks of a 16384-rank machine may
  cost at most 16x its setup wall.
* ``startup_200k`` -- the CI smoke scale: a 500x400 machine brought up
  and run end-to-end, small enough to sit comfortably inside the
  ``timeout 60`` of the ``startup-smoke`` CI step.
* ``halo_1m`` -- a certified, symmetric five-step ocean-style halo
  epoch on the full 2^20-rank torus, priced closed-form by ghost
  replay.  The
  makespan is asserted exactly: it must match the event path bit for
  bit (the A/B equivalence tests prove that at event-tractable scales).

Run with ``--bench-json BENCH_engine.json`` to refresh the committed
baseline; CI gates fresh runs with ``benchmarks/check_bench_regression.py``
(the ``startup-smoke`` step uses ``--only startup`` so the bring-up
family can be checked without rerunning every engine workload).
"""

import time

import numpy as np

from repro.analyze.certify import certify_macro
from repro.machine.presets import intel_paragon
from repro.simmpi.engine import Engine
from repro.simmpi.stencil import grid_halo

#: 10^6 ranks in this codebase means the full 1024x1024 Paragon grid.
MILLION = 1024 * 1024


def _bring_up_program(comm, x):
    """The cheapest certifiable world collective: one binomial bcast.

    Startup benchmarks want the *setup* clock; the single tree
    broadcast keeps the priced epoch negligible while still sending
    ``run()`` through certified ghost replay.
    """
    out = yield from comm.bcast(x, root=0, algorithm="tree")
    return out


def halo_epoch_program(comm, rows, cols, cells, steps):
    """Ocean-style ghost exchange on a ``rows x cols`` torus.

    The stencil spec is built in-program from the assumed grid shape
    (the symbolic interpreter concretises ``grid_halo`` calls), and the
    payloads are the four edge strips of a ``cells x cells`` tile --
    uniform across ranks, so the certificate carries
    ``uniform_exchange`` and ``symmetric``, and ghost replay prices
    each exchange from rank 0's row alone.
    """
    field = np.zeros((cells, cells))
    spec = grid_halo(rows, cols)
    for _ in range(steps):
        yield from comm.exchange(
            spec, [field[:1, :], field[-1:, :], field[:, :1], field[:, -1:]]
        )
        yield from comm.compute(flops=2.0 * cells * cells)
    return float(field[0, 0])


#: Lazy bring-up is milliseconds; a single run costs almost nothing,
#: so take more samples than the heavyweight benchmarks to tame the
#: scheduler noise on such short walls.
SETUP_BEST_OF = 5


def _lazy_setup(n_rows, n_cols, repeats=SETUP_BEST_OF):
    """Best-of certified lazy bring-up on an ``n_rows x n_cols`` machine.

    Returns (SimResult, best setup seconds, best total wall seconds).
    Best-of matters here: the first touch of the fresh numpy columns
    pays the allocator's page faults, which is memory-system noise, not
    bring-up cost.
    """
    p = n_rows * n_cols
    machine = intel_paragon(n_rows, n_cols)
    cert = certify_macro(_bring_up_program, p)
    best_setup = best_wall = float("inf")
    res = None
    for _ in range(repeats):
        engine = Engine(machine, p, certificate=cert)
        t0 = time.perf_counter()
        res = engine.run(_bring_up_program, 3.5)
        best_wall = min(best_wall, time.perf_counter() - t0)
        best_setup = min(best_setup, res.setup_wall_s)
    return res, best_setup, best_wall


def test_bench_startup_1m(bench_record):
    """2^20-rank bring-up, and how it scales from 16384 ranks.

    Building a Comm, rng and generator frame per rank would make setup
    linear in the rank count: 64x the ranks, 64x the wall.  Lazy
    bring-up builds O(1) tables plus a few numpy columns, so 64x the
    ranks must cost at most 16x the best-of-5 setup wall (about 4-6x
    on a 2-core host).
    """
    _, small_setup, _ = _lazy_setup(128, 128)
    res, lazy_setup, _ = _lazy_setup(1024, 1024)
    assert res.ranks_materialized == 1
    assert res.returns[0] == 3.5
    growth = lazy_setup / small_setup
    assert growth <= 16.0, (
        f"setup grew {growth:.1f}x for 64x the ranks "
        f"({small_setup * 1e3:.2f} ms at 16384, {lazy_setup * 1e3:.2f} ms at 2^20)"
    )
    bench_record(
        "startup_1m",
        events=MILLION,  # ranks brought up; events/sec reads as ranks/sec
        wall_s=lazy_setup,
        ranks=MILLION,
        ranks_materialized=res.ranks_materialized,
    )


def test_bench_startup_200k(bench_record):
    """The CI smoke scale: 200000 ranks brought up and run end-to-end."""
    res, setup, wall = _lazy_setup(500, 400)
    assert res.ranks_materialized == 1
    assert res.returns[0] == 3.5
    bench_record(
        "startup_200k",
        events=200_000,
        wall_s=setup,
        ranks=200_000,
        ranks_materialized=res.ranks_materialized,
        total_wall_s=round(wall, 4),
    )


_HALO_STEPS = 5
_HALO_CELLS = 64


def test_bench_halo_1m(bench_record):
    """A certified halo epoch on the full 2^20-rank torus, closed-form.

    The event path is intractable at this scale (it is the cost being
    displaced), so bit-identity is pinned by value: the makespan below
    was cross-checked against the event path at 16 and 256 ranks by the
    ghost-evaluation A/B tests, and the closed-form pricing is
    scale-exact by construction.  A drift here is a correctness bug.
    """
    p = MILLION
    machine = intel_paragon(1024, 1024)
    cert = certify_macro(
        halo_epoch_program,
        p,
        assume={
            "rows": 1024,
            "cols": 1024,
            "cells": _HALO_CELLS,
            "steps": _HALO_STEPS,
        },
    )
    assert cert.uniform_exchange and cert.symmetric
    engine = Engine(machine, p, certificate=cert)
    t0 = time.perf_counter()
    res = engine.run(
        halo_epoch_program, 1024, 1024, _HALO_CELLS, _HALO_STEPS
    )
    wall = time.perf_counter() - t0
    assert res.ranks_materialized == 1
    assert res.macro_fallbacks == 0
    # Machine-independent pin: the ghost-priced makespan of this epoch.
    assert res.time == 0.0018200887864823353
    bench_record(
        "halo_1m",
        # Rank-requests priced on behalf of the whole machine: each of
        # rank 0's replayed requests (res.events) stands in for all p.
        events=p * res.events,
        wall_s=wall,
        ranks=p,
        virtual_time_s=round(res.time, 9),
        macro_events=res.events,
        setup_wall_s=round(res.setup_wall_s, 4),
    )
