"""The macro plan table and the run-level FIFO bound.

``_Run._last_hi`` replaces a scan of the FIFO table at every macro
invocation, so it must stay an upper bound on every recorded arrival
whatever mix of traffic wrote them.  The plan table is bounded by
``macro.PLAN_CAP_PAIRS``: a rotating-root world broadcast builds a new
plan per root, and the table must clear instead of growing past the
cap, without changing a result.  Stencil exchanges keep their rounds
in the same table, one plan per declared spec.  A plan narrower than
``macro.VECTOR_WIDTH`` prices pair by pair on the run's memoryviews, a
wider one on its NumPy columns, and either way the resume times handed
to the event loop are plain floats.
"""

import numpy as np
import pytest

import repro.simmpi.engine as engine_mod
import repro.simmpi.macro as macro
from repro.analyze.certify import certify_macro
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine, grid_halo

from .test_macro_equivalence import _assert_identical


def _spy_evaluate(monkeypatch, check):
    """Call ``check(run, plan)`` at every macro evaluation, before it
    prices (the event loop and ghost replay both call through the
    engine module's binding)."""
    calls = []
    evaluate = engine_mod._macro_evaluate

    def spy(run, plan, reqs, ghost=False):
        check(run, plan)
        calls.append(plan)
        return evaluate(run, plan, reqs, ghost)

    monkeypatch.setattr(engine_mod, "_macro_evaluate", spy)
    return calls


def _run(program, p, macro_ops, eager=float("inf")):
    engine = Engine(
        touchstone_delta(), p, seed=5, eager_threshold_bytes=eager,
        macro_ops=macro_ops,
    )
    return engine.run(program)


def _mixed_traffic(comm):
    """Eager and rendezvous point-to-point around sub-group collectives."""
    half = comm.size // 2
    low = comm.rank < half
    sub = comm.group(list(range(half)) if low else list(range(half, comm.size)))
    acc = float(comm.rank)
    for step in range(4):
        peer = (comm.rank + half) % comm.size
        nbytes = 64 if step % 2 else 4096  # eager, then rendezvous at 1 KiB
        if low:
            yield from comm.send(acc, peer, tag=step, nbytes=nbytes)
        else:
            msg = yield from comm.recv(source=peer, tag=step)
            acc += msg.payload
        yield from comm.compute(seconds=1e-5 * (comm.rank % 3))
        acc = yield from sub.bcast(acc, root=step % sub.size)
        total = yield from sub.reduce(acc, root=(step + 1) % sub.size)
        acc = yield from sub.allreduce(acc, algorithm="recursive_doubling")
        yield from sub.barrier()
        if total is not None:
            acc += total
    return acc


def test_last_hi_bounds_every_recorded_arrival(monkeypatch):
    def check(run, plan):
        assert run._last_hi >= max(run._last_arrival.values(), default=float("-inf"))

    calls = _spy_evaluate(monkeypatch, check)
    macro_res = _run(_mixed_traffic, 12, True, eager=1024.0)
    # 2 groups x 4 steps x 4 collectives.  A few fall back before
    # evaluation: the next step's eager send can reach a member still
    # inside one.
    assert macro_res.macro_fallbacks > 0
    assert len(calls) + macro_res.macro_fallbacks == 32
    _assert_identical(macro_res, _run(_mixed_traffic, 12, False, eager=1024.0))


def _rotating_root(comm):
    v = float(comm.rank)
    for step in range(3 * comm.size):
        v = yield from comm.bcast(v + step, root=step % comm.size)
    return v


@pytest.mark.parametrize("cap", [64, 16])
def test_plan_table_stays_under_its_cap(monkeypatch, cap):
    """16 roots x 31 pairs per plan: a cap of 64 holds two plans and
    clears on every third root; a cap of 16 holds none."""
    monkeypatch.setattr(macro, "PLAN_CAP_PAIRS", cap)
    held = []

    def check(run, plan):
        assert run._plan_pairs <= cap
        assert run._plan_pairs == sum(pl.size for pl in run._plans.values())
        held.append(len(run._plans))

    _spy_evaluate(monkeypatch, check)
    res = _run(_rotating_root, 16, True)
    assert len(held) == 48
    assert max(held) == (2 if cap == 64 else 0)
    _assert_identical(res, _run(_rotating_root, 16, False))


def _two_phase_halo(comm):
    """Three steps of two declared phases: all four neighbours with
    scalars, then the row axis with arrays."""
    both = grid_halo(4, 4)
    rows = grid_halo(4, 4, axis=0)
    h = float(comm.rank)
    for _ in range(3):
        hn = yield from comm.exchange(both, [h, h + 1.0, h + 2.0, h + 3.0])
        h = h + hn[0] - hn[1] + hn[2] - hn[3]
        vn = yield from comm.exchange(rows, [np.full(3, h), np.full(3, -h)])
        h += float(vn[0][0] - vn[1][1])
    return h


def test_exchange_builds_one_plan_per_spec_and_reuses_it(monkeypatch):
    keys = []

    def check(run, plan):
        keys.extend(k for k, v in run._plans.items() if v is plan)

    calls = _spy_evaluate(monkeypatch, check)
    res = _run(_two_phase_halo, 16, True)
    assert res.macro_fallbacks == 0
    assert len(calls) == 6
    assert len({id(pl) for pl in calls}) == 2
    assert keys == [
        (None, "exchange", spec, 0)
        for _ in range(3) for spec in (grid_halo(4, 4), grid_halo(4, 4, axis=0))
    ]
    _assert_identical(res, _run(_two_phase_halo, 16, False))


@pytest.mark.parametrize("cap", [100, 16])
def test_exchange_plans_stay_under_the_cap(monkeypatch, cap):
    """The two plans hold 16 + 4 * 16 = 80 and 16 + 2 * 16 = 48 pairs: a
    cap of 100 holds one at a time, a cap of 16 neither."""
    monkeypatch.setattr(macro, "PLAN_CAP_PAIRS", cap)
    held = []

    def check(run, plan):
        assert run._plan_pairs <= cap
        assert run._plan_pairs == sum(pl.size for pl in run._plans.values())
        held.append(len(run._plans))

    _spy_evaluate(monkeypatch, check)
    res = _run(_two_phase_halo, 16, True)
    assert len(held) == 6
    assert max(held) == (1 if cap == 100 else 0)
    _assert_identical(res, _run(_two_phase_halo, 16, False))


def _narrow_and_wide(comm):
    """Tree bcast and RD allreduce over groups of 8 (widest rounds of 4
    and 8 pairs), then world tree bcast, barrier and flat bcast over 32
    (16, 32 and 0 pairs)."""
    sub = comm.group([r for r in range(comm.size) if r // 8 == comm.rank // 8])
    v = yield from sub.bcast(float(comm.rank), root=comm.rank // 8)
    v = yield from sub.allreduce(v, algorithm="recursive_doubling")
    v = yield from comm.bcast(v, root=5)
    yield from comm.barrier()
    return (yield from comm.bcast(v, root=1, algorithm="flat"))


def _world_bcast_barrier(comm):
    v = yield from comm.bcast(2.5, root=0)
    yield from comm.barrier()
    return v


def test_narrow_plans_price_on_lists_and_wide_on_arrays(monkeypatch):
    seen = []

    def check(run, plan):
        # Only a narrow plan's rounds carry the per-pair lists the pair
        # loop walks.
        assert all((rnd.pairs is not None) == plan.narrow for rnd in plan.rounds)
        seen.append((plan.width, plan.narrow))

    _spy_evaluate(monkeypatch, check)
    run_macro = engine_mod._Run._run_macro

    def resumed_at_floats(self, key, reqs):
        run_macro(self, key, reqs)
        assert all(type(event[0]) is float for event in self._heap)
        assert self._fast is None or type(self._fast[0]) is float

    monkeypatch.setattr(engine_mod._Run, "_run_macro", resumed_at_floats)
    res = _run(_narrow_and_wide, 32, True)
    assert res.macro_fallbacks == 0
    assert set(seen) == {
        (4, True), (8, True), (0, True), (16, False), (32, False)
    }
    # Ghost replay prices on the same two forms.
    for p in (8, 32):
        cert = certify_macro(_world_bcast_barrier, p)
        assert cert.symmetric
        ghost = Engine(touchstone_delta(), p, certificate=cert)
        assert ghost.run(_world_bcast_barrier).returns == [2.5] * p
    assert set(seen[-4:]) == {(4, True), (8, True), (16, False), (32, False)}
    _assert_identical(res, _run(_narrow_and_wide, 32, False))
