"""The closed-form table is the one list of what runs in closed form.

Every ``macro.TABLE`` entry must park on a ``CollectiveReq`` under
macro-ops, evaluate without falling back, and pass ``certify_macro``;
pairs outside the table must do none of that.  The tests walk the
table, so a pair added to it is checked with no edit here (a new
*kind* needs one program below).  The symbolic interpreter's model of
the collective API -- positional signatures and default algorithms --
must match the ``Comm`` methods, or certification would check a pair
other than the one the engine dispatches.

The narrow form of ``macro._Sched`` prices a round pair by pair, so a
rendezvous handshake there reads the destination's clock after the
round's earlier sends.  That equals the vectorised round only if every
round priced at a rendezvous size has disjoint sources and
destinations: the acyclic entries' rounds are disjoint, and the cyclic
rounds bail before they are priced.  Both halves are checked against
the table, as is the plan's ``disjoint`` bit that picks the fused
send-then-receive pair loop.  Evaluators price in place on the run's
state, so every bail must come before the first priced message: a
``None`` from ``evaluate`` leaves the run exactly as it found it.
"""

import inspect

import numpy as np
import pytest

import repro.simmpi.collectives as coll
import repro.simmpi.engine as engine_mod
import repro.simmpi.macro as macro
from repro.analyze import symbolic
from repro.analyze.certify import CertificationError, certify_macro
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine
from repro.simmpi.comm import Comm
from repro.simmpi.group import GroupComm
from repro.simmpi.stencil import grid_halo, strip_halo
from repro.util.errors import DeadlockError

P = 4


# One rank program per kind; ``alg`` is the algorithm under test, which
# the certificate pins through ``assume``.

def _barrier(comm, alg):
    yield from comm.barrier()


def _bcast(comm, alg):
    yield from comm.bcast(1.0, root=1, algorithm=alg)


def _reduce(comm, alg):
    yield from comm.reduce(1.0, root=1)


def _allreduce(comm, alg):
    yield from comm.allreduce(1.0, algorithm=alg)


def _gather(comm, alg):
    yield from comm.gather(1.0, algorithm=alg)


def _scatter(comm, alg):
    yield from comm.scatter([1.0, 2.0, 3.0, 4.0], algorithm=alg)


def _allgather(comm, alg):
    yield from comm.allgather(1.0, algorithm=alg)


def _alltoall(comm, alg):
    yield from comm.alltoall([1.0, 2.0, 3.0, 4.0], algorithm=alg)


def _scan(comm, alg):
    yield from comm.scan(1.0)


def _exchange(comm, alg):
    yield from comm.exchange(grid_halo(2, 2), [1.0, 2.0, 3.0, 4.0])


PROGRAMS = {
    fn.__name__[1:]: fn
    for fn in (_barrier, _bcast, _reduce, _allreduce, _gather, _scatter,
               _allgather, _alltoall, _scan, _exchange)
}

#: Message algorithms with no closed form.
OUTSIDE = [
    ("gather", "tree"),
    ("scatter", "tree"),
    ("allgather", "ring_nb"),
    ("alltoall", "nonblocking"),
    ("scan", "hillis_steele"),
]


def _parked(monkeypatch, kind, algorithm):
    """Run ``kind``'s program with macro-ops on; return the run and the
    ``(kind, algorithm)`` of every request that parked in the engine."""
    seen = set()
    handle = engine_mod._Run._handle_collective

    def spy(self, state, request):
        seen.add((request.kind, request.algorithm))
        handle(self, state, request)

    monkeypatch.setattr(engine_mod._Run, "_handle_collective", spy)
    res = Engine(touchstone_delta(), P, seed=1).run(PROGRAMS[kind], algorithm)
    return res, seen


@pytest.mark.parametrize("kind,algorithm", sorted(macro.TABLE))
def test_every_table_entry_parks_evaluates_and_certifies(monkeypatch, kind, algorithm):
    res, parked = _parked(monkeypatch, kind, algorithm)
    entry = macro.TABLE[(kind, algorithm)]
    # An exchange parks with its spec in the algorithm slot.
    assert {(k, macro.closed_form(k, a)) for k, a in parked} == {(kind, entry)}
    assert res.macro_fallbacks == 0
    cert = certify_macro(PROGRAMS[kind], P, assume={"alg": algorithm})
    assert len(cert.collectives) + len(cert.exchanges) == 1


@pytest.mark.parametrize("kind,algorithm", OUTSIDE)
def test_pairs_outside_the_table_never_park_and_are_refused(monkeypatch, kind, algorithm):
    assert (kind, algorithm) not in macro.SUPPORTED
    _, parked = _parked(monkeypatch, kind, algorithm)
    assert parked == set()
    with pytest.raises(CertificationError, match="no closed-form macro evaluator"):
        certify_macro(PROGRAMS[kind], P, assume={"alg": algorithm})


def _plan(p, kind, algorithm, root=0):
    """The world plan of ``(kind, algorithm)`` over ``p`` ranks; an
    exchange runs the wrapped strip spec."""
    run = engine_mod._Run(Engine(touchstone_delta(), p))
    if kind == "exchange":
        algorithm = strip_halo(p)
    return macro.plan(run, None, kind, algorithm, root)


def _derived(p=6):
    """``(ACYCLIC, CHAINS)`` from the plans at ``p`` (not a power of
    two, so recursive doubling has its fold and hand-back)."""
    plans = {entry: _plan(p, *entry, root=1) for entry in sorted(macro.TABLE)}
    return (
        [e for e, pl in plans.items() if any(r.disjoint for r in pl.rounds)],
        [e for e, pl in plans.items() if not pl.rounds],
    )


#: Entries with a disjoint round: their evaluators can price a
#: rendezvous-sized round.  Entries with no rounds are chains: they
#: price message by message.
ACYCLIC, CHAINS = _derived()


def test_derived_lists_name_the_trees_folds_and_chains():
    assert ACYCLIC == [
        ("allreduce", "recursive_doubling"),
        ("bcast", "tree"),
        ("bcast", "tree_nb"),
        ("reduce", "binomial"),
    ]
    assert CHAINS == [("bcast", "flat"), ("bcast", "ring")]


@pytest.mark.parametrize("kind,algorithm", sorted(macro.TABLE))
def test_disjoint_bit_is_no_rank_on_both_ends(monkeypatch, kind, algorithm):
    monkeypatch.setattr(macro, "VECTOR_WIDTH", 1 << 30)  # every plan narrow
    for p in range(2, 65):
        for root in range(p) if kind in ("bcast", "reduce") else [0]:
            for rnd in _plan(p, kind, algorithm, root).rounds:
                srcs, dsts = rnd.srcs.tolist(), rnd.dsts.tolist()
                assert rnd.disjoint == (not set(srcs) & set(dsts)), (p, root)
                assert [(s, d) for s, d, _, _ in rnd.pairs] == list(zip(srcs, dsts))


def _rendezvous_rounds(kind, algorithm, p, root):
    """The rounds of ``(kind, algorithm)`` at ``(p, root)`` that its
    evaluator may price at a rendezvous size."""
    rounds = list(macro.TABLE[(kind, algorithm)].rounds(p, root, algorithm))
    if kind == "allreduce":
        # Only the fold and hand-back, present when p is not a power
        # of two; the butterfly between them bails.
        return [rounds[0], rounds[-1]] if p & (p - 1) else []
    return rounds


@pytest.mark.parametrize("kind,algorithm", ACYCLIC)
def test_rendezvous_rounds_have_disjoint_sources_and_destinations(kind, algorithm):
    for p in range(2, 65):
        for root in range(p):
            for srcs, dsts in _rendezvous_rounds(kind, algorithm, p, root):
                assert len(srcs)
                assert not set(srcs.tolist()) & set(dsts.tolist()), (p, root)


@pytest.mark.parametrize(
    "kind,algorithm", sorted(set(macro.TABLE) - set(CHAINS))
)
def test_cyclic_rounds_bail_before_pricing_a_rendezvous_size(
    monkeypatch, kind, algorithm
):
    """Under an all-rendezvous threshold, no round with a rank on both
    ends reaches the narrow form's pair loops with a rendezvous size:
    the evaluator either prices only eager or disjoint rounds, or bails
    to the event path first."""
    priced = []

    def checked(price):
        def spy(self, rnd, nbytes):
            assert self.narrow
            srcs, dsts = rnd.srcs.tolist(), rnd.dsts.tolist()
            rendezvous = int(np.max(nbytes)) > self.eager_max
            assert not (rendezvous and set(srcs) & set(dsts))
            priced.append(rnd)
            return price(self, rnd, nbytes)
        return spy

    results = []
    evaluate = engine_mod._macro_evaluate

    def spy_evaluate(*args, **kwargs):
        results.append(evaluate(*args, **kwargs))
        return results[-1]

    # round_trip fuses a disjoint round's pair loop; every other round
    # goes through send_round.
    for name in ("round_trip", "send_round"):
        monkeypatch.setattr(macro._Sched, name, checked(getattr(macro._Sched, name)))
    monkeypatch.setattr(engine_mod, "_macro_evaluate", spy_evaluate)
    engine = Engine(touchstone_delta(), P, seed=1, eager_threshold_bytes=0.0)
    try:
        engine.run(PROGRAMS[kind], algorithm)
    except DeadlockError:
        pass  # the event path's legitimate answer to a cyclic rendezvous
    # The macro layer ran: it priced rounds, or it bailed.
    assert priced or None in results


def _straddling(comm, kind, alg):
    """A barrier (to fill the FIFO table), unequal compute, then one
    ``kind`` collective whose payloads straddle the test thresholds:
    128-byte arrays, an alltoall whose last shift round alone carries
    a 2 KiB block, and an allgather of mixed sizes."""
    p, r = comm.size, comm.rank
    yield from comm.barrier()
    yield from comm.compute(seconds=1e-6 * (r * 7 % 5))
    big = np.full(16, float(r))
    if kind == "barrier":
        yield from comm.barrier()
    elif kind == "bcast":
        yield from comm.bcast(big, root=p // 2, algorithm=alg)
    elif kind == "reduce":
        yield from comm.reduce(big, root=p // 2)
    elif kind == "allreduce":
        yield from comm.allreduce(big, algorithm=alg)
    elif kind == "allgather":
        yield from comm.allgather(big if r % 2 else float(r), algorithm=alg)
    elif kind == "alltoall":
        blocks = [float(d) for d in range(p)]
        blocks[(r - 1) % p] = np.full(256, float(r))
        yield from comm.alltoall(blocks, algorithm=alg)
    else:
        yield from comm.exchange(strip_halo(p), [big, big + 1.0])


def _state(run):
    ms = run.ms
    return ({name: getattr(ms, name).copy() for name in ms.__slots__
             if isinstance(getattr(ms, name), np.ndarray)},
            dict(run._last_arrival), run._last_hi)


@pytest.mark.parametrize("kind,algorithm", sorted(macro.TABLE))
def test_a_bail_leaves_the_run_untouched(monkeypatch, kind, algorithm):
    """Whenever ``evaluate`` returns ``None``, the clock and stats
    columns and the FIFO clamp state are exactly what they were."""
    bails = set()
    evaluate = engine_mod._macro_evaluate

    def spy(run, plan, reqs, ghost=False):
        columns, last, hi = _state(run)
        out = evaluate(run, plan, reqs, ghost)
        if out is None:
            after, last_after, hi_after = _state(run)
            for name, col in columns.items():
                np.testing.assert_array_equal(after[name], col, err_msg=name)
            assert last_after == last and hi_after == hi
            bails.add((len(plan.members), run._eager_max))
        return out

    monkeypatch.setattr(engine_mod, "_macro_evaluate", spy)
    for p in (3, 4, 5, 8, 13, 16):
        for eager in (0.0, 64.0, 1024.0, float("inf")):
            engine = Engine(touchstone_delta(), p, seed=1, eager_threshold_bytes=eager)
            try:
                engine.run(_straddling, kind, algorithm)
            except DeadlockError:
                pass  # the event path's answer to a cyclic rendezvous
    if kind == "allreduce":
        # The fold is acyclic and rendezvous-sized here; the butterfly
        # behind it bails.
        assert {(5, 64.0), (13, 64.0)} <= bails
    if kind == "alltoall":
        # Every shift round but the last is eager at 1 KiB.
        assert {(p, 1024.0) for p in (3, 4, 5, 8, 13, 16)} <= bails


def test_reduce_bcast_composes_two_table_entries(monkeypatch):
    _, parked = _parked(monkeypatch, "allreduce", "reduce_bcast")
    assert parked == {("reduce", "binomial"), ("bcast", "tree")}
    assert ("allreduce", "reduce_bcast") in symbolic.MACRO_ELIGIBLE
    certify_macro(_allreduce, P, assume={"alg": "reduce_bcast"})


def test_macro_eligible_is_the_table_plus_reduce_bcast():
    assert symbolic.MACRO_ELIGIBLE == macro.SUPPORTED | {("allreduce", "reduce_bcast")}


@pytest.mark.parametrize("cls", [Comm, GroupComm])
def test_symbolic_signatures_match_the_comm_methods(cls):
    for kind, params in symbolic._COLLECTIVE_SIGNATURES.items():
        signature = inspect.signature(getattr(cls, kind))
        assert tuple(signature.parameters)[1:] == params, kind
        algorithm = signature.parameters.get("algorithm")
        if algorithm is not None:
            assert algorithm.default == symbolic._COLLECTIVE_DEFAULT_ALGO[kind], kind


def test_symbolic_default_algorithms_are_the_dispatched_names(monkeypatch):
    """Every collective dispatches under the name the interpreter
    certifies: its default algorithm, or the fixed name of a kind
    without an ``algorithm`` parameter."""
    dispatched = {}
    dispatch = coll._dispatch

    def spy(comm, kind, algorithm, *args, **kwargs):
        dispatched.setdefault(kind, algorithm)
        return dispatch(comm, kind, algorithm, *args, **kwargs)

    monkeypatch.setattr(coll, "_dispatch", spy)

    def every_default(comm):
        yield from comm.barrier()
        yield from comm.bcast(1.0)
        yield from comm.reduce(1.0)
        yield from comm.allreduce(1.0)
        yield from comm.gather(1.0)
        yield from comm.allgather(1.0)
        yield from comm.scatter([1.0] * comm.size)
        yield from comm.alltoall([1.0] * comm.size)
        yield from comm.scan(1.0)
        yield from comm.reduce_scatter([1.0] * comm.size)

    Engine(touchstone_delta(), P, macro_ops=False).run(every_default)
    assert set(dispatched) == set(symbolic._COLLECTIVE_DEFAULT_ALGO)
    for kind, algorithm in dispatched.items():
        assert symbolic._COLLECTIVE_DEFAULT_ALGO[kind] == algorithm, kind
