"""Closed-form (macro-op) evaluation of collective schedules.

When a collective runs untraced under plain
:class:`~repro.simmpi.delivery.AlphaBetaDelivery` with no fault
injection pending, the per-message event cascade it would generate is a
*deterministic closed-form function* of the members' entry clocks and
the alpha-beta parameters: no outside event can alter a match, arrival,
or handshake inside the collective.  This module replays that cascade
analytically -- same messages, same arithmetic expressions, same
floating-point evaluation order per rank -- without touching the event
heap, so every member pays exactly one event per collective instead of
O(log P)..O(P).

Bit-exactness contract
----------------------

Every helper below mirrors the engine's fused eager-send handler and
the protocols' rendezvous arithmetic *expression for expression*:

* eager send:   ``arrival = ab.arrival(src, dst, nbytes, now)`` then the
  per-pair FIFO clamp; ``clear = now + overhead``.
* rendezvous:   ``handshake = max(recv_post, park)``; arrival computed
  at the handshake; ``comm_time += (handshake - park) + overhead``.
* blocking recv: ``completion = max(arrival, blocked_since)``.

Per-rank statistics are accumulated on *local copies seeded from the
live values* and committed absolutely, so the float addition order per
rank is identical to the event path (each rank's stats are only ever
touched by its own ops, in program order).

Evaluation is transactional: local clocks, stats, and a
``_last_arrival`` overlay are the only mutable state until
:meth:`_Sched.commit`, so bailing out at any point (``_Bail``) is safe
-- the engine then resumes every member with ``MACRO_FALLBACK`` and the
real message algorithm runs from the same entry clocks.  The only
side effects before commit are memo and plan-table inserts: the
delivery model's ``_fixed`` / overhead memos and the run's
:class:`_Plan` table.  Each caches a pure function of the run's
topology, rank map, link and size, so a bail leaves nothing
observable.

Plans and clock arithmetic
--------------------------

An invocation splits into a static :class:`_Plan` and the clock
arithmetic.  The plan depends only on ``(members, kind, algorithm,
root)``: the member index and node columns, and per send round the
group-index src/dst columns, the interned FIFO keys and the
hop-derived fixed wire cost.  :func:`plan` builds it once per run and
keeps it in ``run._plans``, so a repeated invocation (lu2d's panel
broadcasts repeat 94 % of the time) evaluates only the expressions
that read clocks.  The table is bounded by :data:`PLAN_CAP_PAIRS` and
is cleared when an insertion would exceed it.

The FIFO clamp's "can any recorded arrival exceed this round's?" test
reads ``run._last_hi``, a monotone upper bound on every value in
``run._last_arrival`` that the engine raises at each write, instead of
scanning the table.

Supported schedules (anything else falls back): dissemination barrier,
binomial-tree / ring / flat bcast, binomial reduce, recursive-doubling
allreduce, ring allgather, cyclic alltoall.  Cyclic patterns
(butterfly, rings, alltoall) are evaluated only when every message is
eager; a rendezvous message there means the event path's behaviour
(including its deadlock) must be reproduced for real, so we bail.
Declared neighbor-exchange stencil phases price through the same
:class:`_Sched` machinery via :mod:`repro.simmpi.stencil`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.requests import CollectiveReq, copy_payload, payload_nbytes

#: (kind, algorithm) pairs the evaluator can reproduce exactly.
SUPPORTED = frozenset({
    ("barrier", "dissemination"),
    ("bcast", "tree"),
    ("bcast", "tree_nb"),
    ("bcast", "ring"),
    ("bcast", "flat"),
    ("reduce", "binomial"),
    ("allreduce", "recursive_doubling"),
    ("allgather", "ring"),
    ("alltoall", "cyclic"),
})


#: Bound on a run's plan table, in pair entries: one per member (index
#: and node columns) plus one per planned message (src, dst, key and
#: fixed-cost columns), about 32 bytes each.  One world tree plan at
#: 2**20 ranks (2**21 - 1 entries) fits; a rotating-root world bcast
#: would otherwise grow the table as p**2 pairs.
PLAN_CAP_PAIRS = 1 << 21


class _Bail(Exception):
    """The schedule is not analytically exact here (rendezvous inside a
    cyclic pattern); the caller replays the event path instead."""


class _Plan:
    """The clock-free part of a macro evaluation for one ``(members,
    kind, algorithm, root)``.

    ``idx`` maps group rank to global rank and ``nodes`` to machine
    node.  Each entry of ``rounds`` is one send round ``(srcs, dsts,
    keys, fixed)``: group-rank columns, the interned FIFO keys
    ``src * n + dst`` (int64), and the fixed wire cost ``alpha + hops *
    tau`` per pair.  Everything here is a pure function of the run's
    topology, rank map, link and size, all fixed for the run.
    """

    __slots__ = ("members", "idx", "nodes", "topo", "latency", "per_hop",
                 "n", "rounds", "size")

    def __init__(self, run: Any, members: Sequence[int]):
        p = len(members)
        self.members = members
        self.idx = np.fromiter(members, np.intp, count=p)
        ab = run.delivery  # guaranteed AlphaBetaDelivery by the engine
        self.nodes = np.asarray(ab.rank_map, dtype=np.int64)[self.idx]
        machine = ab.machine
        self.topo = machine.topology
        self.latency = machine.link.latency_s
        self.per_hop = machine.link.per_hop_s
        self.n = run._n
        self.rounds: List[tuple] = []
        self.size = p  # pair entries held, for the table bound

    def round(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple:
        """The static columns of one send round from group ranks
        ``srcs`` to ``dsts`` (distinct pairs, no self-sends)."""
        hops = self.topo.hops_array(self.nodes[srcs], self.nodes[dsts])
        fixed = np.where(hops == 0, 0.0, self.latency + hops * self.per_hop)
        idx = self.idx
        keys = idx[srcs].astype(np.int64) * self.n + idx[dsts]
        return srcs, dsts, keys, fixed


def _dissemination(p: int, root: int):
    """Barrier rounds: every rank sends to ``rank + 2**k`` (mod p)."""
    idx = np.arange(p, dtype=np.intp)
    dist = 1
    while dist < p:
        dsts = idx + dist
        dsts[dsts >= p] -= p
        yield idx, dsts
        dist <<= 1


def _virtual_ranks(p: int, root: int) -> np.ndarray:
    """Virtual rank -> group rank for a tree rooted at ``root``."""
    gr_of = np.arange(p, dtype=np.intp) + root
    gr_of[gr_of >= p] -= p
    return gr_of


def _tree_fanout(p: int, root: int):
    """Binomial bcast rounds: in round k every virtual rank ``vr <
    2**k`` that has the payload sends to ``vr + 2**k``."""
    gr_of = _virtual_ranks(p, root)
    mask = 1
    while mask < p:
        parents = np.arange(min(mask, p - mask), dtype=np.intp)
        yield gr_of[parents], gr_of[parents + mask]
        mask <<= 1


def _tree_fanin(p: int, root: int):
    """Binomial reduce rounds, by mask: virtual rank ``vr + mask``
    sends its accumulator to ``vr`` for every ``vr`` divisible by
    ``2 * mask``."""
    gr_of = _virtual_ranks(p, root)
    mask = 1
    while mask < p:
        step = mask << 1
        vrs = np.arange(0, p - mask, step, dtype=np.intp)
        yield gr_of[vrs + mask], gr_of[vrs]
        mask = step


def _butterfly(p: int, root: int):
    """Recursive-doubling exchange rounds over the largest power of two
    <= p: rank r swaps with ``r ^ 2**k``."""
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    idx = np.arange(pof2, dtype=np.intp)
    mask = 1
    while mask < pof2:
        yield idx, idx ^ mask
        mask <<= 1


#: (kind, algorithm) -> its send rounds as (srcs, dsts) per round, as a
#: function of (p, root).  The other evaluators send message by message.
_ROUNDS = {
    ("barrier", "dissemination"): _dissemination,
    ("bcast", "tree"): _tree_fanout,
    ("bcast", "tree_nb"): _tree_fanout,
    ("reduce", "binomial"): _tree_fanin,
    ("allreduce", "recursive_doubling"): _butterfly,
}


def plan(
    run: Any, group: Optional[tuple], kind: str, algorithm: Any, root: int
) -> _Plan:
    """The run's plan for one invocation shape, built on first use.

    ``group`` is the member tuple, or ``None`` for the world.  A plan
    larger than :data:`PLAN_CAP_PAIRS` is used once and not kept.
    """
    key = (group, kind, algorithm, root)
    plans = run._plans
    found = plans.get(key)
    if found is not None:
        return found
    made = _Plan(run, run.world_members() if group is None else group)
    shape = _ROUNDS.get((kind, algorithm))
    if shape is not None:
        for srcs, dsts in shape(len(made.members), root):
            made.rounds.append(made.round(srcs, dsts))
            made.size += len(srcs)
    size = made.size
    if size <= PLAN_CAP_PAIRS:
        if run._plan_pairs + size > PLAN_CAP_PAIRS:
            plans.clear()
            run._plan_pairs = 0
        plans[key] = made
        run._plan_pairs += size
    return made


class _Sched:
    """Transactional per-collective scheduler state.

    Clocks and stats are local absolute copies; ``overlay`` shadows the
    run's per-pair FIFO clamp table.  Nothing escapes until
    :meth:`commit`.
    """

    __slots__ = (
        "run", "plan", "members", "p", "clock", "comm_t", "sent_n",
        "sent_b", "recv_n", "recv_b", "eager_max", "ab", "n", "overlay",
        "last", "oh_memo", "latency", "bw", "fifo_cap",
    )

    def __init__(self, run: Any, plan: _Plan, clocks: Sequence[float]):
        self.run = run
        self.plan = plan
        self.members = plan.members
        self.p = len(plan.members)
        # Numpy storage: scalar helpers index element-wise (identical
        # IEEE arithmetic to plain floats), vector helpers price a
        # whole permutation round in a handful of array ops.
        self.clock = np.array(clocks, dtype=np.float64)
        # Columnar gather: one fancy-index copy per stats column out of
        # the run's MachineState.
        idx = plan.idx
        ms = run.ms
        self.comm_t = ms.comm_time[idx]
        self.sent_n = ms.messages_sent[idx]
        self.sent_b = ms.bytes_sent[idx]
        self.recv_n = ms.messages_received[idx]
        self.recv_b = ms.bytes_received[idx]
        self.eager_max = run._eager_max
        ab = run.delivery
        self.ab = ab
        self.n = run._n
        self.overlay: dict = {}
        self.last = run._last_arrival
        # Upper bound on every arrival recorded in ``last`` + overlay:
        # lets send_round prove "no FIFO clamp can fire this round" in
        # O(1) and skip the per-pair dict probes entirely.
        self.fifo_cap = run._last_hi
        self.oh_memo = run._overhead
        # src != dst in every round, so the sender overhead is the
        # constant the memo would hold for every round pair.
        self.latency = plan.latency
        self.bw = ab._bw

    # -- message primitives -------------------------------------------------

    def send(self, gs: int, gd: int, nbytes: int) -> float:
        """One send issued at ``gs``'s current clock toward ``gd``.

        Valid only where ``gd``'s matching receive is posted at ``gd``'s
        *current* local clock (true for every acyclic schedule below:
        the receiver's recv is its next pending op).  Returns the
        message's arrival time at the destination.
        """
        clock = self.clock
        now = clock[gs]
        rendezvous = nbytes > self.eager_max
        if rendezvous:
            post = clock[gd]
            start = post if post > now else now  # handshake
        else:
            start = now
        members = self.members
        src = members[gs]
        dst = members[gd]
        key = src * self.n + dst
        ab = self.ab
        fixed = ab._fixed.get(key)
        if fixed is None:
            arrival = ab.arrival(src, dst, nbytes, start)
        else:
            arrival = start + (fixed + nbytes / ab._bw)
        overlay = self.overlay
        prev = overlay.get(key)
        if prev is None:
            prev = self.last.get(key)
        if prev is not None and prev > arrival:
            arrival = prev
        # Plain float: commit bulk-merges the overlay into the run
        # table, so no numpy scalar may be stored here.
        arrival = float(arrival)
        overlay[key] = arrival
        if arrival > self.fifo_cap:
            self.fifo_cap = arrival
        oh = self.oh_memo.get(key)
        if oh is None:
            oh = self.oh_memo[key] = ab.overhead(src, dst)
        if rendezvous:
            clock[gs] = start + oh
            self.comm_t[gs] += (start - now) + oh
        else:
            clock[gs] = now + oh
            self.comm_t[gs] += oh
        self.sent_n[gs] += 1
        self.sent_b[gs] += nbytes
        return arrival

    def send_eager(self, gs: int, gd: int, nbytes: int) -> float:
        """Like :meth:`send` but refuses rendezvous -- used inside cyclic
        schedules where a synchronous send means the event path must run
        (it may legitimately deadlock there)."""
        if nbytes > self.eager_max:
            raise _Bail
        return self.send(gs, gd, nbytes)

    def recv(self, gd: int, arrival: float, nbytes: int) -> float:
        """Complete a blocking receive posted at ``gd``'s current clock."""
        clock = self.clock
        blocked_since = clock[gd]
        completion = arrival if arrival > blocked_since else blocked_since
        self.comm_t[gd] += completion - blocked_since
        self.recv_n[gd] += 1
        self.recv_b[gd] += nbytes
        clock[gd] = completion
        return completion

    # -- vectorised round primitives ----------------------------------------

    def send_round(self, rnd: tuple, nbytes) -> "np.ndarray":
        """Vectorised :meth:`send` for one permutation round.

        ``rnd`` is a :meth:`_Plan.round`: every listed source issues one
        send; (src, dst) pairs are distinct, no pair is a self-send, and
        each destination's matching receive is posted at its current
        clock (the acyclic / round-phased precondition of :meth:`send`).
        ``nbytes`` is a scalar or per-pair array.  Element for element
        the float expressions match :meth:`send` exactly; callers inside
        cyclic schedules must reject rendezvous sizes *before* calling
        (see :meth:`send`'s eager-only counterpart).
        """
        srcs, dsts, keys, fixed = rnd
        clock = self.clock
        now = clock[srcs]
        # Rendezvous handshake: start no earlier than the posted receive.
        if type(nbytes) is np.ndarray:
            starts = np.where(
                nbytes > self.eager_max, np.maximum(clock[dsts], now), now
            )
        elif nbytes > self.eager_max:
            starts = np.maximum(clock[dsts], now)
        else:
            starts = now
        arrivals = starts + (fixed + nbytes / self.bw)
        # Per-pair FIFO clamp against the run's live table + overlay.
        keys = keys.tolist()
        overlay = self.overlay
        cap = self.fifo_cap
        if cap > float(arrivals.min()):
            # Some recorded arrival could exceed one of this round's:
            # probe both tables through C-level ``map(dict.get, ...)``
            # and clamp vectorised (a Python per-pair loop here costs
            # seconds per round at 10^5+ ranks).  An overlay entry is
            # always >= the run-table entry for the same key (it was
            # max-combined against it when stored), so taking the max
            # of both probes equals the overlay-first lookup.
            n_keys = len(keys)
            sentinel = float("-inf")
            prev = np.fromiter(
                map(self.last.get, keys, repeat(sentinel)),
                np.float64,
                count=n_keys,
            )
            if overlay:
                np.maximum(
                    prev,
                    np.fromiter(
                        map(overlay.get, keys, repeat(sentinel)),
                        np.float64,
                        count=n_keys,
                    ),
                    out=prev,
                )
            if bool((prev > arrivals).any()):
                arrivals = np.maximum(arrivals, prev)
        # Record the round in one bulk update instead of p dict stores
        # (tolist yields plain floats -- commit bulk-merges the overlay
        # into the run table).
        overlay.update(zip(keys, arrivals.tolist()))
        new_max = float(arrivals.max())
        if new_max > cap:
            self.fifo_cap = new_max
        oh = self.latency
        clock[srcs] = starts + oh
        # (starts - now) is exactly 0.0 for eager sends, so one fused
        # expression reproduces both protocols' comm_time charges.
        self.comm_t[srcs] += (starts - now) + oh
        self.sent_n[srcs] += 1
        self.sent_b[srcs] += nbytes
        return arrivals

    def recv_round(self, dsts, arrivals, nbytes) -> None:
        """Vectorised :meth:`recv` over distinct destinations."""
        clock = self.clock
        blocked = clock[dsts]
        completion = np.maximum(arrivals, blocked)
        self.comm_t[dsts] += completion - blocked
        self.recv_n[dsts] += 1
        self.recv_b[dsts] += nbytes
        clock[dsts] = completion

    def commit(self) -> None:
        # The caller's resume times must be plain Python floats (no
        # numpy scalars in the event loop's heap tuples); the committed
        # columns hold the same float64 bits either way.
        clock = self.clock.tolist()
        # One fancy-index assignment per column writes the whole group
        # back to the MachineState.
        ms = self.run.ms
        idx = self.plan.idx
        ms.clock[idx] = self.clock
        ms.comm_time[idx] = self.comm_t
        ms.messages_sent[idx] = self.sent_n
        ms.bytes_sent[idx] = self.sent_b
        ms.messages_received[idx] = self.recv_n
        ms.bytes_received[idx] = self.recv_b
        # Every overlay value is a plain Python float by construction
        # (send coerces, the round primitives store tolist products), so
        # the merge is one C-level bulk update.
        self.last.update(self.overlay)
        # fifo_cap started at the run's bound and only grew.
        self.run._last_hi = self.fifo_cap
        self.clock = clock


def _round_sizes(values: Sequence[Any]) -> Tuple[Any, int, bool]:
    """Wire sizes for one round's payloads: ``(nbytes, max, scalars)``.

    ``nbytes`` is one int when every payload has the same size, else a
    per-pair array.  Python floats/ints dominate collective payloads
    and are a constant 8 wire bytes (exactly what :func:`payload_nbytes`
    returns for them), so the common case skips the per-payload call.
    ``scalars`` additionally tells the caller that :func:`copy_payload`
    would be the identity on every payload.
    """
    if all(type(v) is float or type(v) is int for v in values):
        return 8, 8, True
    sizes = [payload_nbytes(v) for v in values]
    hi = max(sizes)
    if min(sizes) == hi:
        return hi, hi, False
    return np.array(sizes, dtype=np.int64), hi, False


# -- per-algorithm schedules ------------------------------------------------
#
# Each function replays the message algorithm's sends/recvs in an order
# consistent with the event path's causal order: round- or step-phased
# for symmetric patterns (all sends of a phase, then all recvs), and in
# dependency order for trees/rings/stars.  Within a phase, distinct
# ranks and distinct (src, dst) pairs make evaluation order irrelevant.
# Round-phased schedules take their rounds from the plan (``_ROUNDS``).


def _eval_barrier(s: _Sched, ghost: bool = False) -> List[Any]:
    if 0 > s.eager_max:
        # An "everything rendezvous" configuration makes even the
        # empty-payload dissemination shifts synchronous, and the
        # pattern is cyclic: let the event path decide (it may
        # legitimately deadlock).
        raise _Bail
    for rnd in s.plan.rounds:
        arrivals = s.send_round(rnd, 0)  # nbytes 0: always eager
        s.recv_round(rnd[1], arrivals, 0)
    return [None] if ghost else [None] * s.p


def _eval_bcast_tree(
    s: _Sched, root: int, value: Any, ghost: bool = False,
    nonblocking: bool = False,
) -> List[Any]:
    """Binomial tree, round-phased: in round k every virtual rank
    ``vr < 2**k`` that has its payload sends to ``vr + 2**k``.  Parent
    and child sets are disjoint within a round and every (parent,
    child) pair occurs exactly once in the whole tree, so the phased
    evaluation is order-equivalent to walking ranks in increasing
    virtual-rank order (each child's entry clock is untouched until its
    first-op recv runs, each parent's sends happen in mask order).

    Delivery copies preserve wire size, so the root payload sizes every
    round, and every non-root member ends up with one buffered copy of
    it (scalars pass through) -- what the event path's copy chain
    delivers.  ``ghost`` assembles group rank 0's delivery only.

    ``nonblocking`` is lu2d/summa's pipelined ``tree_nb``.  With every
    message eager it is expression-identical to the blocking tree: an
    eager isend charges the same overhead at the same clock as a
    blocking send and resumes at the same ``clear``, and the trailing
    waits find ready handles (``complete_at`` is always <= the waiter's
    clock), costing zero comm time and moving no clock.  A
    rendezvous-sized message decouples the transfer from the sender's
    progress -- real overlap only the event path reproduces -- so bail.
    """
    scalars = type(value) is float or type(value) is int
    nbytes = 8 if scalars else payload_nbytes(value)
    if nonblocking and nbytes > s.eager_max:
        raise _Bail
    for rnd in s.plan.rounds:
        arrivals = s.send_round(rnd, nbytes)
        s.recv_round(rnd[1], arrivals, nbytes)
    n_out = 1 if ghost else s.p
    if scalars:
        return [value] * n_out
    cp = copy_payload
    return [value if g == root else cp(value) for g in range(n_out)]


def _eval_bcast_ring(s: _Sched, root: int, value: Any) -> List[Any]:
    p = s.p
    out: List[Any] = [None] * p
    v = value
    arrival = 0.0
    nbytes = 0
    nxt: Any = None
    for vr in range(p):
        g = vr + root
        if g >= p:
            g -= p
        if vr > 0:
            s.recv(g, arrival, nbytes)
            v = nxt
        if vr < p - 1:
            right = g + 1
            if right >= p:
                right -= p
            nbytes = payload_nbytes(v)
            arrival = s.send(g, right, nbytes)
            nxt = copy_payload(v)
        out[g] = v
    return out


def _eval_bcast_flat(s: _Sched, root: int, value: Any) -> List[Any]:
    p = s.p
    out: List[Any] = [None] * p
    out[root] = value
    nbytes = payload_nbytes(value)
    for dst in range(p):
        if dst == root:
            continue
        arrival = s.send(root, dst, nbytes)
        s.recv(dst, arrival, nbytes)
        out[dst] = copy_payload(value)
    return out


def _eval_reduce(s: _Sched, root: int, reqs: Sequence[CollectiveReq]) -> List[Any]:
    """Binomial reduction: round-phased by mask; pairs within a round
    are disjoint.  Each receiver combines with *its own* resolved op,
    as the event path does."""
    accs = [req.value for req in reqs]  # by group rank
    for rnd in s.plan.rounds:
        senders = rnd[0].tolist()
        receivers = rnd[1].tolist()
        nbytes, _, scalars = _round_sizes([accs[g] for g in senders])
        arrivals = s.send_round(rnd, nbytes)
        s.recv_round(rnd[1], arrivals, nbytes)
        if scalars:
            for src, g in zip(senders, receivers):
                accs[g] = reqs[g].op(accs[g], accs[src])
        else:
            for src, g in zip(senders, receivers):
                accs[g] = reqs[g].op(accs[g], copy_payload(accs[src]))
    out: List[Any] = [None] * s.p
    out[root] = accs[root]
    return out


def _eval_allreduce_rd(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    """Recursive doubling: acyclic fold of the non-power-of-two excess,
    eager-only butterfly (the plan's rounds), acyclic hand-back."""
    p = s.p
    accs = [req.value for req in reqs]
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    for r in range(pof2, p):  # fold: r's send and (r - pof2)'s recv are first ops
        payload = accs[r]
        nbytes = payload_nbytes(payload)
        arrival = s.send(r, r - pof2, nbytes)
        s.recv(r - pof2, arrival, nbytes)
        accs[r - pof2] = reqs[r - pof2].op(accs[r - pof2], copy_payload(payload))
    mask = 1
    for rnd in s.plan.rounds:
        snapshot = accs[:pof2]  # payloads are the round-start accumulators
        nbytes, nb_max, scalars = _round_sizes(snapshot)
        if nb_max > s.eager_max:
            raise _Bail  # rendezvous inside the butterfly: event path decides
        arrivals = s.send_round(rnd, nbytes)
        s.recv_round(rnd[1], arrivals, nbytes)
        if scalars:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], snapshot[r ^ mask])
        else:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], copy_payload(snapshot[r ^ mask]))
        mask <<= 1
    for r in range(rem):  # hand-back: receiver has been idle since the fold
        payload = accs[r]
        nbytes = payload_nbytes(payload)
        arrival = s.send(r, r + pof2, nbytes)
        s.recv(r + pof2, arrival, nbytes)
        accs[r + pof2] = copy_payload(payload)
    return accs


def _eval_allgather_ring(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    p = s.p
    outs: List[List[Any]] = [[None] * p for _ in range(p)]
    carries = list(range(p))
    for r in range(p):
        outs[r][r] = reqs[r].value  # own slot keeps the original object
    for _step in range(p - 1):
        payloads: List[Any] = [None] * p
        arrivals = [0.0] * p
        nbv = [0] * p
        for r in range(p):
            c = carries[r]
            payload = (c, outs[r][c])
            nbytes = payload_nbytes(payload)
            right = r + 1
            if right >= p:
                right -= p
            arrivals[right] = s.send_eager(r, right, nbytes)
            nbv[right] = nbytes
            payloads[r] = payload
        for r in range(p):
            left = r - 1
            if left < 0:
                left += p
            s.recv(r, arrivals[r], nbv[r])
            c, payload = copy_payload(payloads[left])
            outs[r][c] = payload
            carries[r] = c
    return outs


def _eval_alltoall(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    p = s.p
    vals = [req.value for req in reqs]  # each a length-p list of payloads
    outs: List[List[Any]] = []
    for r in range(p):
        o: List[Any] = [None] * p
        o[r] = vals[r][r]  # own slot keeps the original object
        outs.append(o)
    for shift in range(1, p):
        arrivals = [0.0] * p
        nbv = [0] * p
        for r in range(p):
            dst = r + shift
            if dst >= p:
                dst -= p
            nbytes = payload_nbytes(vals[r][dst])
            arrivals[dst] = s.send_eager(r, dst, nbytes)
            nbv[dst] = nbytes
        for r in range(p):
            src = r - shift
            if src < 0:
                src += p
            s.recv(r, arrivals[r], nbv[r])
            outs[r][src] = copy_payload(vals[src][r])
    return outs


def evaluate(
    run: Any,
    plan: _Plan,
    reqs: Sequence[CollectiveReq],
    clocks: Sequence[float],
    ghost: bool = False,
) -> Optional[Tuple[List[float], List[Any]]]:
    """Evaluate one complete collective invocation analytically.

    ``plan`` is this invocation's :func:`plan`; ``reqs``/``clocks`` are
    indexed by group rank.  Returns ``(finish_times, values)`` per
    group rank with clocks/stats/clamp-state already committed, or
    ``None`` when the schedule cannot be reproduced exactly (the caller
    then falls back to the event path; nothing observable was mutated).

    ``ghost`` is the closed-form engine's contract: every entry of
    ``reqs`` is the *same* request object (a rank-symmetric program
    priced from rank 0's yields) and only group rank 0's result is
    observable, so evaluators that would otherwise materialize one
    delivered payload per member (exchange, tree broadcasts, barrier)
    return a single-element list instead -- identical pricing, O(1)
    result assembly.  The remaining evaluators ignore the flag and
    return all p values.
    """
    req0 = reqs[0]
    kind = req0.kind
    s = _Sched(run, plan, clocks)
    try:
        if kind == "barrier":
            out = _eval_barrier(s, ghost)
        elif kind == "bcast":
            root = req0.root
            value = reqs[root].value
            alg = req0.algorithm
            if alg == "tree":
                out = _eval_bcast_tree(s, root, value, ghost)
            elif alg == "tree_nb":
                out = _eval_bcast_tree(s, root, value, ghost, nonblocking=True)
            elif alg == "ring":
                out = _eval_bcast_ring(s, root, value)
            elif alg == "flat":
                out = _eval_bcast_flat(s, root, value)
            else:
                return None
        elif kind == "reduce":
            out = _eval_reduce(s, req0.root, reqs)
        elif kind == "allreduce":
            out = _eval_allreduce_rd(s, reqs)
        elif kind == "allgather":
            out = _eval_allgather_ring(s, reqs)
        elif kind == "alltoall":
            out = _eval_alltoall(s, reqs)
        elif kind == "exchange":
            # Stencil phase: the evaluator lives with its spec in
            # stencil.py, which imports this module (local import keeps
            # the dependency acyclic).
            from repro.simmpi.stencil import eval_exchange
            out = eval_exchange(s, reqs, ghost)
        else:
            return None
    except _Bail:
        return None
    s.commit()
    return s.clock, out
