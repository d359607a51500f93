"""Generated-input differential test: macro path == event path.

Hypothesis draws a partition of up to 24 ranks into sub-groups, an
eager threshold, and a sequence of sub-group collectives -- every
closed-form evaluator in ``macro.SUPPORTED``: tree, tree_nb, ring and
flat bcast, binomial reduce, recursive-doubling allreduce, dissemination
barrier, ring allgather and cyclic alltoall -- with scalar or array
payloads (alltoall sends one per group member).  A step may be
preceded by point-to-point traffic between two members of its group,
whose arrival can outlast the collective's own message on the same
pair and so fire the FIFO clamp inside the closed form.  Every draw
must price bit-identically with macro-ops on and off; a draw that
deadlocks must deadlock identically on both paths.

The scenario always ends by revisiting its first step's (group, root)
as broadcasts of three payload sizes: a rendezvous-sized ``tree_nb``
(which bails to the event path under a finite threshold), then a
scalar ``tree_nb`` that reuses the plan the bail left behind, then a
blocking ``tree`` of a third size.  Messages from the root to its
first child before the first and the last of these make the clamp
fire and then read its result back through ``Message.arrival_time``.

Groups this small price on list columns, pair by pair (their widest
round is under ``macro.VECTOR_WIDTH``), so every draw runs a second
time with the cutoff patched to 0, where every plan prices on NumPy
columns.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simmpi.macro as macro_layer
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine
from repro.util.errors import DeadlockError

from .test_macro_equivalence import _assert_identical

BCASTS = ("tree", "tree_nb", "ring", "flat")
KINDS = (*BCASTS, "reduce", "allreduce", "barrier", "allgather", "alltoall")
THRESHOLDS = (float("inf"), 0.0, 256.0)


@st.composite
def scenarios(draw):
    p = draw(st.integers(2, 24))
    perm = draw(st.permutations(range(p)))
    cuts = sorted(set(draw(st.lists(st.integers(1, p - 1), max_size=3))))
    bounds = [0, *cuts, p]
    groups = [tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:])]
    step = st.tuples(
        st.integers(0, len(groups) - 1),  # group
        st.sampled_from(KINDS),
        st.integers(0, 23),  # root, reduced mod the group size
        st.one_of(st.none(), st.integers(0, 64)),  # scalar, or ndarray length
        st.one_of(  # point-to-point (from, hop, nbytes) before the step
            st.none(),
            st.tuples(st.integers(0, 23), st.integers(0, 4), st.integers(0, 16384)),
        ),
    )
    steps = draw(st.lists(step, min_size=1, max_size=8))
    g0, _, r0, _, _ = steps[0]
    steps += [
        # 512 B: rendezvous at 256 or 0.  It follows a long message from
        # the root to its first tree child, which the broadcast's own
        # message on that pair would overtake: the FIFO clamp fires.
        (g0, "tree_nb", r0, 64, (0, 0, 16384)),
        (g0, "tree_nb", r0, None, None),  # 8 B: same plan, macro at 256
        # An empty message on that pair reads the clamp table.
        (g0, "tree", r0, 3, (0, 0, 0)),
    ]
    return groups, draw(st.sampled_from(THRESHOLDS)), steps


def _payload(length, rank, i):
    if length is None:
        return float(rank * 31 + i)
    return np.arange(length, dtype=np.float64) * (rank + 1) + i


def _comparable(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, list):
        return [_comparable(v) for v in value]
    return value


def _program(comm, groups, steps):
    gi = next(i for i, g in enumerate(groups) if comm.rank in g)
    sub = comm.group(list(groups[gi]))
    size = sub.size
    out = []
    for i, (g, kind, root, length, p2p) in enumerate(steps):
        if g != gi:
            continue
        root %= size
        if p2p is not None:
            # From root + a to 2**hop ranks further on: a pair the
            # tree, dissemination and butterfly rounds often reuse.
            a, hop, nbytes = p2p
            src = (root + a) % size
            dst = (src + (1 << hop)) % size
            if src != dst:
                if sub.rank == src:
                    yield from sub.send(float(i), dst, tag=7, nbytes=nbytes)
                elif sub.rank == dst:
                    msg = yield from sub.recv(source=src, tag=7)
                    # The arrival carries the FIFO clamp, including
                    # what an earlier collective left in the table.
                    out.append((msg.payload, msg.arrival_time))
        value = _payload(length, comm.rank, i)
        if kind in BCASTS:
            got = yield from sub.bcast(value, root=root, algorithm=kind)
        elif kind == "reduce":
            got = yield from sub.reduce(value, op="sum", root=root)
        elif kind == "allreduce":
            got = yield from sub.allreduce(
                value, op="sum", algorithm="recursive_doubling"
            )
        elif kind == "allgather":
            got = yield from sub.allgather(value, algorithm="ring")
        elif kind == "alltoall":
            values = [_payload(length, comm.rank, i + j) for j in range(size)]
            got = yield from sub.alltoall(values, algorithm="cyclic")
        else:
            got = yield from sub.barrier()
        out.append(_comparable(got))
    return out


def _outcome(groups, eager, steps, macro):
    engine = Engine(
        touchstone_delta(),
        sum(len(g) for g in groups),
        seed=3,
        eager_threshold_bytes=eager,
        macro_ops=macro,
    )
    try:
        return engine.run(_program, groups, steps)
    except DeadlockError as exc:
        return exc


def _check(scenario):
    groups, eager, steps = scenario
    ref = _outcome(groups, eager, steps, False)
    macro = _outcome(groups, eager, steps, True)
    if isinstance(ref, DeadlockError) or isinstance(macro, DeadlockError):
        assert type(macro) is type(ref)
        assert str(macro) == str(ref)
        return
    _assert_identical(macro, ref)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_generated_group_collectives_bit_identical(scenario):
    _check(scenario)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_generated_group_collectives_bit_identical_on_arrays(scenario):
    with mock.patch.object(macro_layer, "VECTOR_WIDTH", 0):
        _check(scenario)
