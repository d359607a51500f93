"""Collective operations built from point-to-point messages.

Nothing here is costed analytically: the collectives are real message
algorithms (binomial trees, recursive doubling, dissemination, rings)
whose virtual-time cost *emerges* from the engine's alpha-beta link
model.  This is what makes the tree-vs-ring and mesh-vs-hypercube
ablation benchmarks meaningful.  Under engine macro-ops a call whose
``(kind, algorithm)`` pair is in :data:`repro.simmpi.macro.TABLE`
parks on one engine-level event instead, and its message algorithm
runs only if the closed form falls back (see :func:`_dispatch`).

Every invocation draws a fresh tag block from the communicator so two
consecutive collectives can never cross-match, even when fast ranks
race ahead (the generalised sense-reversal trick).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, Optional, Sequence, Union

import numpy as np

from repro.simmpi.macro import closed_form
from repro.simmpi.requests import MACRO_FALLBACK, CollectiveReq
from repro.util.errors import CommunicationError

#: Rounds within one collective get distinct tags below the block tag.
_TAG_STRIDE = 64


def _block_tag(comm, round_: int = 0) -> int:
    return comm.next_tag_block() - round_


_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": np.maximum,
    "min": np.minimum,
}


def resolve_op(op: Union[str, Callable]) -> Callable[[Any, Any], Any]:
    """Map an op name to a commutative combiner working on scalars and
    NumPy arrays alike."""
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise CommunicationError(
            f"unknown reduce op {op!r}; expected sum/prod/max/min or a callable"
        ) from None


def _ceil_pow2(p: int) -> int:
    n = 1
    while n < p:
        n <<= 1
    return n


def _phased(comm, label: str, gen: Generator) -> Generator:
    """Drive ``gen`` with ``label`` pushed on the comm's phase stack.

    Only interposed when tracing: the entry points below are plain
    dispatchers that return the algorithm generator *directly* on the
    untraced hot path, so an untraced collective pays no wrapper frame
    per resume (collectives dominate resume counts in the throughput
    benchmarks).
    """
    comm._phases.append(label)
    try:
        return (yield from gen)
    finally:
        comm._phases.pop()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _algorithm(table: Dict[str, Callable], kind: str, algorithm: str) -> Callable:
    """``table[algorithm]``, validated at the dispatch call for every
    communicator size."""
    try:
        return table[algorithm]
    except KeyError:
        raise CommunicationError(f"unknown {kind} algorithm {algorithm!r}") from None


def _dispatch(
    comm, kind: str, algorithm: Any, root: int, op, value: Any,
    impl: Callable[..., Generator], args: tuple, phased: bool = True,
) -> Generator:
    """The generator that runs one collective call.

    ``impl(*args)`` is the call's message algorithm.  Under engine
    macro-ops, a call whose ``(kind, algorithm)`` has a closed form
    parks on a :class:`CollectiveReq` and carries it as the fallback
    (built only if the closed form falls back).  Otherwise it runs
    directly, under the phase label ``kind`` when tracing;
    ``phased=False`` leaves the caller's label in place (apps name
    their own halo phases).
    """
    if comm._macro and comm.size > 1 and closed_form(kind, algorithm) is not None:
        return _macro_collective(comm, kind, algorithm, root, op, value, impl, args)
    gen = impl(*args)
    if phased and comm._tracing:
        return _phased(comm, kind, gen)
    return gen


def _macro_collective(
    comm, kind: str, algorithm: Any, root: int, op, value: Any,
    impl: Callable[..., Generator], args: tuple,
) -> Generator:
    """Park this rank on a :class:`CollectiveReq` macro event.

    The engine gathers all members, then either resumes each with its
    analytically computed result or with :data:`MACRO_FALLBACK`, in
    which case ``impl(*args)`` -- the real message algorithm -- runs
    inline from the same entry clock (all members fall back together, per
    invocation).  Exactly one collective-sequence draw happens here
    either way, so fast and fallback invocations stay aligned across
    ranks -- the fallback's own tag-block draw is then the same fresh
    block on every member.
    """
    comm._coll_seq += 1
    result = yield CollectiveReq(
        getattr(comm, "members", None),
        comm._coll_seq, kind, algorithm, root, op, value,
        comm.rank, comm.size,
    )
    if result is MACRO_FALLBACK:
        # The dispatch bump above already reserved this invocation's
        # sequence slot; rewind so the impl's own ``next_tag_block``
        # redraws the *same* block the event path would have used --
        # every member falls back together, so the counters stay
        # aligned across ranks and with the pure event path (visible
        # in, e.g., the tags a DeadlockError reports).
        comm._coll_seq -= 1
        return (yield from impl(*args))
    return result


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def barrier(comm) -> Generator:
    """Dissemination barrier: ceil(log2 p) rounds of shifted tokens."""
    return _dispatch(
        comm, "barrier", "dissemination", 0, None, None,
        _barrier_dissemination, (comm,),
    )


def _barrier_dissemination(comm) -> Generator:
    p = comm.size
    if p == 1:
        return
    tag0 = _block_tag(comm)
    rank = comm.rank
    k = 0
    dist = 1
    while dist < p:
        yield comm._fill_send(None, (rank + dist) % p, tag0 - k)
        yield comm._fill_recv((rank - dist) % p, tag0 - k)
        dist <<= 1
        k += 1


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def bcast(comm, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
    """Broadcast from ``root``; all ranks return the value."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"bcast root {root} out of range")
    impl = _algorithm(_BCAST_ALGORITHMS, "bcast", algorithm)
    return _dispatch(comm, "bcast", algorithm, root, None, value, impl, (comm, value, root))


def _bcast_binomial(comm, value: Any, root: int) -> Generator:
    """Binomial tree: latency-optimal ceil(log2 p) depth."""
    p = comm.size
    if p == 1:
        return value
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    fill_send = comm._fill_send
    fill_recv = comm._fill_recv
    # A non-root rank neither sends nor receives until mask reaches its
    # top bit (vr < mask and mask <= vr < 2*mask are both false below
    # it), so start the sweep there -- identical yields, fewer dead
    # loop iterations.
    mask = 1 if vr == 0 else 1 << (vr.bit_length() - 1)
    while mask < p:
        if vr < mask:
            partner = vr + mask
            if partner < p:
                yield fill_send(value, (partner + root) % p, tag)
        elif vr < 2 * mask:
            msg = yield fill_recv((vr - mask + root) % p, tag)
            value = msg.payload
        mask <<= 1
    return value


def _bcast_binomial_nb(comm, value: Any, root: int) -> Generator:
    """Binomial tree with non-blocking child sends.

    Moves exactly the same messages as ``tree`` -- the returned values
    are bit-identical -- but each internal node isends to all its
    children and completes the handles at the end, so above the
    rendezvous threshold a node's second child is not serialised behind
    the first child's handshake.
    """
    p = comm.size
    if p == 1:
        return value
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    handles = []
    mask = 1
    while mask < p:
        if vr < mask:
            partner = vr + mask
            if partner < p:
                h = yield comm._fill_isend(value, (partner + root) % p, tag)
                handles.append(h)
        elif vr < 2 * mask:
            msg = yield comm._fill_recv((vr - mask + root) % p, tag)
            value = msg.payload
        mask <<= 1
    for h in handles:
        yield comm._fill_wait(h)
    return value


def _bcast_ring(comm, value: Any, root: int) -> Generator:
    """Store-and-forward ring pass: p-1 sequential hops.  Latency O(p);
    the ablation baseline showing why trees matter."""
    p = comm.size
    if p == 1:
        return value
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    if vr > 0:
        msg = yield from comm.recv(source=(comm.rank - 1) % p, tag=tag)
        value = msg.payload
    if vr < p - 1:
        yield from comm.send(value, (comm.rank + 1) % p, tag=tag)
    return value


def _bcast_flat(comm, value: Any, root: int) -> Generator:
    """Root sends to everyone directly: p-1 serialized startups at the
    root.  The naive baseline."""
    p = comm.size
    tag = _block_tag(comm)
    if comm.rank == root:
        for dst in range(p):
            if dst != root:
                yield from comm.send(value, dst, tag=tag)
        return value
    msg = yield from comm.recv(source=root, tag=tag)
    return msg.payload


#: Name -> implementation for :func:`bcast` dispatch.
_BCAST_ALGORITHMS = {
    "tree": _bcast_binomial,
    "tree_nb": _bcast_binomial_nb,
    "ring": _bcast_ring,
    "flat": _bcast_flat,
}


# ---------------------------------------------------------------------------
# reduce / allreduce
# ---------------------------------------------------------------------------

def reduce(comm, value: Any, op: Union[str, Callable] = "sum", root: int = 0) -> Generator:
    """Binomial-tree reduction onto ``root``; other ranks return None.

    The combiner must be commutative and associative (floating-point
    reassociation applies, as on any real machine).
    """
    if not 0 <= root < comm.size:
        raise CommunicationError(f"reduce root {root} out of range")
    combiner = resolve_op(op)
    return _dispatch(
        comm, "reduce", "binomial", root, combiner, value,
        _reduce_binomial, (comm, value, combiner, root),
    )


def _reduce_binomial(comm, value: Any, combiner: Callable, root: int) -> Generator:
    p = comm.size
    if p == 1:
        return value
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vr & mask:
            yield comm._fill_send(acc, ((vr - mask) + root) % p, tag)
            return None
        partner = vr + mask
        if partner < p:
            msg = yield comm._fill_recv((partner + root) % p, tag)
            acc = combiner(acc, msg.payload)
        mask <<= 1
    return acc if comm.rank == root else None


def allreduce(
    comm,
    value: Any,
    op: Union[str, Callable] = "sum",
    algorithm: str = "reduce_bcast",
) -> Generator:
    """All ranks obtain the reduction of everyone's value."""
    impl = _algorithm(_ALLREDUCE_ALGORITHMS, "allreduce", algorithm)
    combiner = resolve_op(op)
    return _dispatch(
        comm, "allreduce", algorithm, 0, combiner, value, impl, (comm, value, combiner)
    )


def _allreduce_reduce_bcast(comm, value: Any, combiner: Callable) -> Generator:
    # Composes reduce + bcast; each inner call dispatches on its own.
    reduced = yield from reduce(comm, value, combiner, root=0)
    return (yield from bcast(comm, reduced, root=0))


def _allreduce_recursive_doubling(comm, value: Any, combiner: Callable) -> Generator:
    """Butterfly exchange; log2 p rounds when p is a power of two.

    For non-power-of-two sizes the extra ranks fold into the lower
    power-of-two block first, then receive the result (the standard
    MPICH construction).
    """
    p = comm.size
    if p == 1:
        return value
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    tag0 = _block_tag(comm)
    acc = value

    # Fold remainder ranks into their partners below pof2.
    if comm.rank >= pof2:
        yield from comm.send(acc, comm.rank - pof2, tag=tag0 - 1)
    elif comm.rank < rem:
        msg = yield from comm.recv(source=comm.rank + pof2, tag=tag0 - 1)
        acc = combiner(acc, msg.payload)

    if comm.rank < pof2:
        mask = 1
        k = 2
        while mask < pof2:
            partner = comm.rank ^ mask
            yield from comm.send(acc, partner, tag=tag0 - k)
            msg = yield from comm.recv(source=partner, tag=tag0 - k)
            acc = combiner(acc, msg.payload)
            mask <<= 1
            k += 1

    # Hand results back to the folded remainder ranks.
    if comm.rank < rem:
        yield from comm.send(acc, comm.rank + pof2, tag=tag0 - 60)
    elif comm.rank >= pof2:
        msg = yield from comm.recv(source=comm.rank - pof2, tag=tag0 - 60)
        acc = msg.payload
    return acc


_ALLREDUCE_ALGORITHMS = {
    "reduce_bcast": _allreduce_reduce_bcast,
    "recursive_doubling": _allreduce_recursive_doubling,
}


# ---------------------------------------------------------------------------
# gather / allgather / scatter / alltoall
# ---------------------------------------------------------------------------

def gather(comm, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
    """Collect one value per rank onto ``root`` (rank-ordered list)."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"gather root {root} out of range")
    impl = _algorithm(_GATHER_ALGORITHMS, "gather", algorithm)
    return _dispatch(comm, "gather", algorithm, root, None, value, impl, (comm, value, root))


def _gather_binomial(comm, value: Any, root: int) -> Generator:
    p = comm.size
    if p == 1:
        return [value]
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    bucket = {comm.rank: value}
    mask = 1
    while mask < p:
        if vr & mask:
            yield from comm.send(bucket, ((vr - mask) + root) % p, tag=tag)
            return None
        partner = vr + mask
        if partner < p:
            msg = yield from comm.recv(source=(partner + root) % p, tag=tag)
            bucket.update(msg.payload)
        mask <<= 1
    if comm.rank == root:
        return [bucket[r] for r in range(p)]
    return None


def _gather_flat(comm, value: Any, root: int) -> Generator:
    p = comm.size
    tag = _block_tag(comm)
    if comm.rank != root:
        yield from comm.send(value, root, tag=tag)
        return None
    out = [None] * p
    out[root] = value
    for _ in range(p - 1):
        msg = yield from comm.recv(tag=tag)
        out[msg.source] = msg.payload
    return out


_GATHER_ALGORITHMS = {"tree": _gather_binomial, "flat": _gather_flat}


def allgather(comm, value: Any, algorithm: str = "ring") -> Generator:
    """Every rank ends with the rank-ordered list of all values."""
    impl = _algorithm(_ALLGATHER_ALGORITHMS, "allgather", algorithm)
    return _dispatch(comm, "allgather", algorithm, 0, None, value, impl, (comm, value))


def _allgather_ring(comm, value: Any, nonblocking: bool = False) -> Generator:
    """p - 1 steps forwarding ``(carry_rank, value)`` to the right.
    ``nonblocking`` (``ring_nb``) posts each step's receive before
    sending, so the step never deadlocks under rendezvous (the blocking
    ring does: every rank sends first and nobody has posted a receive)."""
    p = comm.size
    if p == 1:
        return [value]
    tag0 = _block_tag(comm)
    out: list = [None] * p
    out[comm.rank] = value
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    carry_rank = comm.rank
    for step in range(p - 1):
        carry = (carry_rank, out[carry_rank])
        if nonblocking:
            rh = yield from comm.irecv(source=left, tag=tag0 - step)
            sh = yield from comm.isend(carry, right, tag=tag0 - step)
            msg = yield from comm.wait(rh)
            yield from comm.wait(sh)
        else:
            yield from comm.send(carry, right, tag=tag0 - step)
            msg = yield from comm.recv(source=left, tag=tag0 - step)
        carry_rank, payload = msg.payload
        out[carry_rank] = payload
    return out


def _allgather_gather_bcast(comm, value: Any) -> Generator:
    collected = yield from gather(comm, value, root=0)
    return (yield from bcast(comm, collected, root=0))


_ALLGATHER_ALGORITHMS = {
    "ring": _allgather_ring,
    "ring_nb": partial(_allgather_ring, nonblocking=True),
    "gather_bcast": _allgather_gather_bcast,
}


def scatter(
    comm, values: Optional[Sequence[Any]], root: int = 0, algorithm: str = "tree"
) -> Generator:
    """Rank ``i`` receives ``values[i]`` from ``root``."""
    if not 0 <= root < comm.size:
        raise CommunicationError(f"scatter root {root} out of range")
    p = comm.size
    if comm.rank == root:
        if values is None or len(values) != p:
            raise CommunicationError(
                f"scatter root needs exactly {p} values, got "
                f"{None if values is None else len(values)}"
            )
    impl = _algorithm(_SCATTER_ALGORITHMS, "scatter", algorithm)
    return _dispatch(comm, "scatter", algorithm, root, None, values, impl, (comm, values, root))


def _scatter_binomial(comm, values, root: int) -> Generator:
    p = comm.size
    if p == 1:
        return values[0]
    tag = _block_tag(comm)
    vr = (comm.rank - root) % p
    if vr == 0:
        bucket = {i: values[(i + root) % p] for i in range(p)}
        span = _ceil_pow2(p)
    else:
        span = vr & -vr  # lowest set bit: subtree width
        parent = ((vr - span) + root) % p
        msg = yield from comm.recv(source=parent, tag=tag)
        bucket = msg.payload
    mask = span >> 1
    while mask >= 1:
        child = vr + mask
        if child < p:
            sub = {k: bucket.pop(k) for k in list(bucket) if k >= child}
            yield from comm.send(sub, (child + root) % p, tag=tag)
        mask >>= 1
    return bucket[vr]


def _scatter_flat(comm, values, root: int) -> Generator:
    tag = _block_tag(comm)
    if comm.rank == root:
        for dst in range(comm.size):
            if dst != root:
                yield from comm.send(values[dst], dst, tag=tag)
        return values[root]
    msg = yield from comm.recv(source=root, tag=tag)
    return msg.payload


_SCATTER_ALGORITHMS = {"tree": _scatter_binomial, "flat": _scatter_flat}


def scan(comm, value: Any, op: Union[str, Callable] = "sum") -> Generator:
    """Inclusive prefix reduction (Hillis-Steele, ceil(log2 p) rounds).

    Rank ``r`` returns the combination of values from ranks ``0..r``.
    The combiner must be associative; commutativity is not required
    because partials are always combined as ``earlier op later``.
    """
    combiner = resolve_op(op)
    return _dispatch(
        comm, "scan", "hillis_steele", 0, combiner, value,
        _scan_hillis_steele, (comm, value, combiner),
    )


def _scan_hillis_steele(comm, value: Any, combiner: Callable) -> Generator:
    p = comm.size
    if p == 1:
        return value
    tag0 = _block_tag(comm)
    acc = value
    dist = 1
    k = 0
    while dist < p:
        if comm.rank + dist < p:
            yield from comm.send(acc, comm.rank + dist, tag=tag0 - k)
        if comm.rank - dist >= 0:
            msg = yield from comm.recv(source=comm.rank - dist, tag=tag0 - k)
            acc = combiner(msg.payload, acc)
        dist <<= 1
        k += 1
    return acc


def reduce_scatter(
    comm, values: Sequence[Any], op: Union[str, Callable] = "sum"
) -> Generator:
    """Reduce element j across all ranks; rank j keeps the result.

    Implemented as a personalised exchange followed by a local
    reduction: simple, correct for any p, and bandwidth-equivalent to
    the pairwise-halving algorithm for the small rank counts simulated
    here (each rank still moves (p-1)/p of its data once).
    """
    combiner = resolve_op(op)
    p = comm.size
    if values is None or len(values) != p:
        raise CommunicationError(
            f"reduce_scatter needs exactly {p} values per rank, got "
            f"{None if values is None else len(values)}"
        )
    return _dispatch(
        comm, "reduce_scatter", "pairwise", 0, combiner, values,
        _reduce_scatter_alltoall, (comm, values, combiner),
    )


def _reduce_scatter_alltoall(comm, values, combiner: Callable) -> Generator:
    contributions = yield from alltoall(comm, list(values))
    acc = contributions[0]
    for item in contributions[1:]:
        acc = combiner(acc, item)
    return acc


def alltoall(comm, values: Sequence[Any], algorithm: str = "cyclic") -> Generator:
    """Personalised all-to-all exchange.

    ``cyclic`` walks p-1 shifts send-then-recv (pairwise pattern);
    ``nonblocking`` posts every receive, isends every block, then
    completes -- same data, and all p-1 transfers per rank are in
    flight at once, the pattern that exposes link contention.
    """
    p = comm.size
    if values is None or len(values) != p:
        raise CommunicationError(
            f"alltoall needs exactly {p} values per rank, got "
            f"{None if values is None else len(values)}"
        )
    impl = _algorithm(_ALLTOALL_ALGORITHMS, "alltoall", algorithm)
    return _dispatch(comm, "alltoall", algorithm, 0, None, list(values), impl, (comm, values))


def _alltoall(comm, values, nonblocking: bool = False) -> Generator:
    p = comm.size
    out: list = [None] * p
    out[comm.rank] = values[comm.rank]
    if p == 1:
        return out
    tag0 = _block_tag(comm)
    if not nonblocking:
        for shift in range(1, p):
            dst = (comm.rank + shift) % p
            src = (comm.rank - shift) % p
            yield from comm.send(values[dst], dst, tag=tag0 - (shift % _TAG_STRIDE))
            msg = yield from comm.recv(source=src, tag=tag0 - (shift % _TAG_STRIDE))
            out[src] = msg.payload
        return out
    recv_handles = []
    for shift in range(1, p):
        src = (comm.rank - shift) % p
        h = yield from comm.irecv(source=src, tag=tag0 - (shift % _TAG_STRIDE))
        recv_handles.append((src, h))
    send_handles = []
    for shift in range(1, p):
        dst = (comm.rank + shift) % p
        h = yield from comm.isend(values[dst], dst, tag=tag0 - (shift % _TAG_STRIDE))
        send_handles.append(h)
    for src, h in recv_handles:
        msg = yield from comm.wait(h)
        out[src] = msg.payload
    yield from comm.waitall(send_handles)
    return out


_ALLTOALL_ALGORITHMS = {
    "cyclic": _alltoall,
    "nonblocking": partial(_alltoall, nonblocking=True),
}
