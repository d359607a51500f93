"""The macro plan table and the run-level FIFO bound.

``_Run._last_hi`` replaces a scan of the FIFO table at every macro
invocation, so it must stay an upper bound on every recorded arrival
whatever mix of traffic wrote them.  The plan table is bounded by
``macro.PLAN_CAP_PAIRS``: a rotating-root world broadcast builds a new
plan per root, and the table must clear instead of growing past the
cap, without changing a result.
"""

import pytest

import repro.simmpi.macro as macro
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine

from .test_macro_equivalence import _assert_identical


def _spy_sched(monkeypatch, check):
    """Call ``check(run, plan)`` at every macro invocation."""
    calls = []
    init = macro._Sched.__init__

    def spy(self, run, plan, clocks):
        check(run, plan)
        calls.append(plan)
        init(self, run, plan, clocks)

    monkeypatch.setattr(macro._Sched, "__init__", spy)
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

    calls = _spy_sched(monkeypatch, check)
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

    _spy_sched(monkeypatch, check)
    res = _run(_rotating_root, 16, True)
    assert len(held) == 48
    assert max(held) == (2 if cap == 64 else 0)
    _assert_identical(res, _run(_rotating_root, 16, False))
