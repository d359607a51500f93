"""The closed-form table is the one list of what runs in closed form.

Every ``macro.TABLE`` entry must park on a ``CollectiveReq`` under
macro-ops, evaluate without falling back, and pass ``certify_macro``;
pairs outside the table must do none of that.  The tests walk the
table, so a pair added to it is checked with no edit here (a new
*kind* needs one program below).  The symbolic interpreter's model of
the collective API -- positional signatures and default algorithms --
must match the ``Comm`` methods, or certification would check a pair
other than the one the engine dispatches.

The list form of ``macro._Sched`` prices a round pair by pair, so a
rendezvous handshake there reads the destination's clock after the
round's earlier sends.  That equals the vectorised round only if every
round priced at a rendezvous size has disjoint sources and
destinations: the acyclic entries' rounds are disjoint, and the cyclic
rounds bail before they are priced.  Both halves are checked against
the table.
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
from repro.simmpi.stencil import grid_halo
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


#: Entries whose evaluator can price a rendezvous-sized round.
ACYCLIC = [
    ("allreduce", "recursive_doubling"),
    ("bcast", "tree"),
    ("bcast", "tree_nb"),
    ("reduce", "binomial"),
]
#: Entries with no rounds: they price message by message.
CHAINS = [("bcast", "ring"), ("bcast", "flat")]


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
    ends reaches the list form's pair loop with a rendezvous size: the
    evaluator either prices only eager or disjoint rounds, or bails to
    the event path first."""
    priced = []
    send_round = macro._Sched.send_round

    def spy(self, rnd, nbytes):
        assert self.narrow
        srcs, dsts = rnd[0].tolist(), rnd[1].tolist()
        rendezvous = int(np.max(nbytes)) > self.eager_max
        assert not (rendezvous and set(srcs) & set(dsts))
        priced.append(rnd)
        return send_round(self, rnd, nbytes)

    results = []
    evaluate = engine_mod._macro_evaluate

    def spy_evaluate(*args, **kwargs):
        results.append(evaluate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(macro._Sched, "send_round", spy)
    monkeypatch.setattr(engine_mod, "_macro_evaluate", spy_evaluate)
    engine = Engine(touchstone_delta(), P, seed=1, eager_threshold_bytes=0.0)
    try:
        engine.run(PROGRAMS[kind], algorithm)
    except DeadlockError:
        pass  # the event path's legitimate answer to a cyclic rendezvous
    # The macro layer ran: it priced rounds, or it bailed.
    assert priced or None in results


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
