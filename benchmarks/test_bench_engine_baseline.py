"""Engine throughput baseline: the numbers behind ``BENCH_engine.json``.

Seven workloads spanning the engine's hot paths -- a 512-rank
block-cyclic LU (point-to-point heavy, the headline number), a 64-rank
LU on the macro path (group panel broadcasts from cached plans), a
64-rank SUMMA (broadcast heavy), a 32-rank collectives suite, a 2048-rank
collective run exercising the collective macro-ops, a 16384-rank
halo epoch exercising the stencil macro-ops, and a 1024-rank symbolic
lint of the shipped programs exercising the static verifier -- each
timed best-of-N untraced and recorded through the ``bench_record``
fixture.
Run with ``--bench-json BENCH_engine.json`` to refresh the committed
baseline; the CI perf-smoke job compares a fresh run against it with
``benchmarks/check_bench_regression.py``.

The 512-rank LU, the SUMMA and the 32-rank suite pass
``macro_ops=False`` so their numbers keep measuring the per-message
event cascade (and stay comparable with the committed history); the
64-rank LU times the mixed event/macro path a served lu2d point takes;
the 2048-rank collectives and 16384-rank halo
benchmarks measure the macro path against that cascade and assert the
speedup.

The assertions pin the *simulated* outcomes (makespan, event count),
which must be machine-independent: a drift there is a correctness bug,
not a performance regression.
"""

import ast
import os
import statistics
import time

from repro.analyze import analyze_paths
from repro.analyze.symbolic import iter_program_defs
from repro.linalg.blocklu import make_test_matrix
from repro.linalg.decomp import ProcessGrid2D
from repro.linalg.lu2d import lu2d
from repro.linalg.summa import summa
from repro.machine.presets import intel_paragon, touchstone_delta
from repro.simmpi import run_program
from repro.simmpi.stencil import grid_halo

BEST_OF = 3


def _best_of(fn, repeats=BEST_OF):
    """Run ``fn`` ``repeats`` times; return (result, best wall seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_bench_lu2d_512_throughput(bench_record):
    """The headline number: untraced 512-rank LU on the Delta preset."""
    machine = touchstone_delta()
    a = make_test_matrix(192, seed=7)
    grid = ProcessGrid2D(16, 32)
    res, wall = _best_of(lambda: lu2d(machine, grid, a, nb=2, seed=7, macro_ops=False))
    sim = res.sim
    # Bit-identity guard: these values are invariant across engine
    # optimisations (asserted exactly in the A/B equivalence tests).
    assert sim.events == 462178
    assert abs(sim.time - 0.179691431) < 1e-9
    entry = bench_record(
        "lu2d_512",
        events=sim.events,
        wall_s=wall,
        ranks=512,
        virtual_time_s=round(sim.time, 9),
    )
    assert entry["events_per_sec"] > 0


def test_bench_lu2d_64_macro(bench_record):
    """The ledger's ``cold_eventloop`` point, in-process: a 64-rank LU
    (Delta, 8x8 grid, n = 128, nb = 2) on the default macro path, where
    its 2 159 eight-rank panel broadcasts are priced in closed form from
    cached round plans."""
    machine = touchstone_delta()
    a = make_test_matrix(128, seed=0)
    grid = ProcessGrid2D(8, 8)
    res, wall = _best_of(lambda: lu2d(machine, grid, a, nb=2, seed=0))
    sim = res.sim
    assert sim.events == 25800
    assert sim.total_messages == 15113
    assert sim.macro_fallbacks == 0
    assert sim.time == 0.08366494070052319
    bench_record(
        "lu2d_64_macro",
        events=sim.events,
        wall_s=wall,
        ranks=64,
        virtual_time_s=round(sim.time, 9),
    )


def test_bench_summa_64_throughput(bench_record):
    """Broadcast-dominated path: 64-rank SUMMA, panel 32."""
    machine = touchstone_delta()
    a = make_test_matrix(128, seed=3)
    b = make_test_matrix(128, seed=4)
    grid = ProcessGrid2D(8, 8)
    res, wall = _best_of(
        lambda: summa(machine, grid, a, b, panel=32, seed=3, macro_ops=False)
    )
    sim = res.sim
    assert sim.events > 0
    bench_record(
        "summa_64",
        events=sim.events,
        wall_s=wall,
        ranks=64,
        virtual_time_s=round(sim.time, 9),
    )


def _collectives_suite(comm):
    """32 ranks x 10 rounds over the whole collective menu."""
    acc = float(comm.rank)
    for round_ in range(10):
        acc = yield from comm.bcast(acc + round_, root=round_ % comm.size)
        total = yield from comm.reduce(acc, root=0)
        if total is not None:  # reduce only lands on the root
            acc = total
        acc = yield from comm.allreduce(acc % 1e6)
        yield from comm.barrier()
        parts = yield from comm.alltoall(
            [float(comm.rank + j) for j in range(comm.size)]
        )
        acc += parts[0]
    return acc


def test_bench_collectives_suite_throughput(bench_record):
    """The collective algorithms end-to-end on the Delta preset."""
    machine = touchstone_delta()
    res, wall = _best_of(
        lambda: run_program(machine, 32, _collectives_suite, macro_ops=False)
    )
    # The final alltoall leaves rank r holding rank 0's element 0 + r,
    # so returns are rank-offset copies of a common collective value.
    assert res.returns[31] - res.returns[0] == 31.0
    bench_record(
        "collectives_32",
        events=res.events,
        wall_s=wall,
        ranks=32,
        virtual_time_s=round(res.time, 9),
    )


def _collectives_2048(comm):
    """Dense log-p collectives at paper scale (2048-node Paragon).

    Recursive-doubling allreduce and the dissemination barrier each
    generate p*log2(p) messages per call -- the event cascades the
    macro path collapses hardest (tree collectives, at p-1 messages,
    gain far less; they are covered by ``_collectives_suite``).
    """
    acc = float(comm.rank)
    for _ in range(3):
        acc = yield from comm.allreduce(acc % 1e6, algorithm="recursive_doubling")
        yield from comm.barrier()
    return acc


def test_bench_collectives_2048_macro(bench_record):
    """The macro-op payoff: 2048-rank collectives, macro vs event path.

    The event path runs once (it is the slow side being displaced); the
    macro path is timed best-of-N.  Results must be bit-identical, and
    the wall-time speedup is the number this PR exists for.
    """
    machine = intel_paragon(32, 64)
    ref, ref_wall = _best_of(
        lambda: run_program(machine, 2048, _collectives_2048, macro_ops=False),
        repeats=1,
    )
    res, wall = _best_of(lambda: run_program(machine, 2048, _collectives_2048))
    # Bit-identity guard: the macro path must be invisible in results.
    assert res.time == ref.time
    assert res.stats == ref.stats
    assert res.returns == ref.returns
    assert res.events < ref.events
    speedup = ref_wall / wall
    assert speedup >= 5.0, f"macro path speedup {speedup:.1f}x < 5x"
    bench_record(
        "collectives_2048",
        events=ref.events,
        wall_s=wall,
        ranks=2048,
        virtual_time_s=round(res.time, 9),
        macro_events=res.events,
        event_path_wall_s=round(ref_wall, 4),
        macro_speedup=round(speedup, 1),
    )


_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LINT_TREES = ["examples", "src/repro/linalg", "src/repro/apps"]


def _count_rank_programs(trees):
    count = 0
    for tree in trees:
        for root, _, files in os.walk(tree):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(root, name)) as handle:
                    module = ast.parse(handle.read())
                count += len(list(iter_program_defs(module)))
    return count


def test_bench_lint_1024_symbolic(bench_record):
    """The verifier's throughput: whole-program symbolic lint of every
    shipped rank program at a 1024-rank world.

    Each program is partially evaluated once, then the cross-rank
    matchers instantiate and check per-rank schedules, so the natural
    event unit is rank-schedules (programs x ranks).  The shipped trees
    must stay clean -- a finding here is a correctness bug, not a
    performance regression.
    """
    cwd = os.getcwd()
    os.chdir(_REPO_ROOT)
    try:
        n_programs = _count_rank_programs(_LINT_TREES)
        assert n_programs >= 10
        findings, wall = _best_of(
            lambda: analyze_paths(_LINT_TREES, n_ranks=1024)
        )
    finally:
        os.chdir(cwd)
    assert findings == []
    bench_record(
        "lint_1024",
        events=n_programs * 1024,
        wall_s=wall,
        ranks=1024,
        programs=n_programs,
    )


_HALO_STEPS = 5
_HALO_SPEC = grid_halo(128, 128)


def _halo_epoch(comm):
    """Ocean-style halo epoch on the full 128x128 Paragon torus.

    Two declared stencil phases per step -- the height ghosts, a local
    update, then the velocity ghosts -- exactly the shape
    ``apps.ocean`` runs, at the rank count the Grand Challenge
    lattice machines were built for.  Compute is charged sparsely so
    the measurement stays on the communication machinery.
    """
    h = float(comm.rank)
    v = comm.rank + 0.5
    for _ in range(_HALO_STEPS):
        hn = yield from comm.exchange(_HALO_SPEC, [h, h + 1.0, h + 2.0, h + 3.0])
        v = v + hn[0] - hn[1]
        vn = yield from comm.exchange(_HALO_SPEC, [v, v + 1.0, v + 2.0, v + 3.0])
        h = h + vn[2] - vn[3]
        if comm.rank % 64 == 0:
            yield from comm.compute(flops=1e5)
    return h


def test_bench_halo_16384_macro(bench_record):
    """The stencil macro-op payoff: a 16384-rank halo epoch, closed-form
    vs event path.

    The two paths run interleaved, ``BEST_OF`` runs each, and the
    speedup is the ratio of their medians: a burst of host load then
    moves one sample of one side, not the whole ratio (one event-path
    run against a best-of-3 macro run failed the 5x floor on host load
    alone).  Results must be bit-identical on every run.  ``wall_s``
    stays the macro path's best run, comparable with the committed
    history.
    """
    machine = intel_paragon(128, 128)
    ref_walls, walls = [], []
    for _ in range(BEST_OF):
        ref, ref_wall = _best_of(
            lambda: run_program(machine, 16384, _halo_epoch, macro_ops=False),
            repeats=1,
        )
        res, wall = _best_of(lambda: run_program(machine, 16384, _halo_epoch), repeats=1)
        ref_walls.append(ref_wall)
        walls.append(wall)
        # Bit-identity guard: the macro path must be invisible in results.
        assert res.time == ref.time
        assert res.stats == ref.stats
        assert res.returns == ref.returns
        assert res.events < ref.events
        # Simulated outcomes are machine-independent pins.
        assert ref.events == 1312000
        assert abs(ref.time - 0.0123578996006144) < 1e-9
    ref_wall = statistics.median(ref_walls)
    speedup = ref_wall / statistics.median(walls)
    assert speedup >= 5.0, f"stencil macro speedup {speedup:.1f}x < 5x"
    bench_record(
        "halo_16384",
        events=ref.events,
        wall_s=min(walls),
        ranks=16384,
        virtual_time_s=round(res.time, 9),
        macro_events=res.events,
        event_path_wall_s=round(ref_wall, 4),
        macro_speedup=round(speedup, 1),
    )
