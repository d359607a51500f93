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

Every helper below mirrors the engine's one send handler
(``_Run._handle_send``, which serves send and isend) and the rendezvous
protocol's arithmetic *expression for expression*:

* eager send:   ``arrival = run.arrival(src, dst, nbytes, now)`` -- the
  alpha-beta arrival with the per-pair FIFO clamp, the engine's one
  scalar clamp; the chains call it, the round primitives repeat it
  inline per pair or vectorised; ``clear = now + overhead``.
* rendezvous:   ``handshake = max(recv_post, park)``; arrival computed
  at the handshake; ``comm_time += (handshake - park) + overhead``.
* blocking recv: ``completion = max(arrival, blocked_since)``.

Evaluators decide, then price in place.  Every condition that makes an
evaluator raise ``_Bail`` (rendezvous in a cyclic round, irregular
exchange sizes, self-peers, ``tree_nb`` under rendezvous) is settled
from the payloads before the first message is priced, so a bail has
written nothing and the engine resumes every member with
``MACRO_FALLBACK`` at its untouched entry clock; the real message
algorithm then runs from there.  Pricing reads and writes the run's
own clock and stats columns and its FIFO clamp table
(``run._last_arrival`` / ``run._last_hi``) directly: a parked member's
clock cannot move while it is parked, so the columns *are* the entry
clocks, and after pricing they hold the finish times.  Each rank's
stats are only ever touched by its own ops, in program order, so the
float addition order per rank is the event path's.  The other writes a
bail may leave are memo and plan-table inserts: the delivery model's
``_fixed`` / overhead memos and the run's :class:`_Plan` table.  Each
caches a pure function of the run's topology, rank map, link and size,
so a bail leaves nothing observable.

Supported schedules
-------------------

:data:`TABLE` is the one list of what runs in closed form: per
``(kind, algorithm)``, the send rounds as a function of ``(p, root)``
(of the :class:`~repro.simmpi.stencil.StencilSpec` for ``exchange``)
and the evaluator that prices an invocation from them.
:data:`SUPPORTED`, :func:`evaluate`, the dispatch layer's "park on a
``CollectiveReq``?" test (:func:`closed_form`), the engine's soundness
check (``plan.form``) and the analyzer's ``MACRO_ELIGIBLE`` all derive
from it, so adding a closed-form collective is one table entry.

Round-phased evaluators price the plan's rounds with
:meth:`_Sched.round_trip` (or :meth:`_Sched.send_round` /
:meth:`_Sched.recv_round` when a round's receives come later); ring and
flat bcast are chains (each hop waits on the one before it) and go
message by message through :meth:`_Sched.send` / :meth:`_Sched.recv`.
A round is priced one of two ways, fixed per plan by its widest round:
below :data:`VECTOR_WIDTH` pairs (every chain, and an lu2d panel
broadcast's rounds of 1, 2 and 4) pair by pair on the run's
memoryviews, where NumPy's fixed cost per call would dominate; from it
up in a handful of array operations per round on ``run.ms``.  Cyclic
patterns (dissemination, butterfly, shifts, exchanges) are evaluated
only when every message is eager; a rendezvous message there means the
event path's behaviour (including its deadlock) must be reproduced for
real, so we bail -- before pricing anything, which is also what lets
the pair loop and the vectorised round agree (see :class:`_Sched`).

Plans and clock arithmetic
--------------------------

An invocation splits into a static :class:`_Plan` and the clock
arithmetic.  The plan depends only on ``(members, kind, algorithm,
root)`` (an exchange's spec sits in the algorithm slot): the member
index and node columns, the table entry, and per send round of the
entry's shape a :class:`_Round` -- group-rank src/dst columns, their
world-rank twins, the interned FIFO keys and the hop-derived fixed
wire cost.  :func:`plan` builds it once per run and keeps it in
``run._plans``, so a repeated invocation (lu2d's panel broadcasts
repeat 94 % of the time, a halo epoch's exchanges every step)
evaluates only the expressions that read clocks.  The table is bounded
by :data:`PLAN_CAP_PAIRS` and is cleared when an insertion would
exceed it.

The FIFO clamp's "can any recorded arrival exceed this round's?" test
reads ``run._last_hi``, a monotone upper bound on every value in
``run._last_arrival`` that every write raises, instead of scanning the
table.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.simmpi.requests import CollectiveReq, copy_payload, payload_nbytes

#: Bound on a run's plan table, in pair entries: one per member (index
#: and node columns) plus one per planned message (src, dst, key and
#: fixed-cost columns, and for a group plan the world-rank src and dst
#: columns), 32 to 48 bytes each; a narrow plan's ``pairs`` tuples add
#: ~150 bytes a message, on rounds under :data:`VECTOR_WIDTH` pairs.
#: One world tree plan at 2**20 ranks (2**21 - 1 entries) fits; a
#: rotating-root world bcast would otherwise grow the table as p**2
#: pairs.
PLAN_CAP_PAIRS = 1 << 21

#: Pairs in a plan's widest round from which :class:`_Sched` prices on
#: NumPy columns; narrower plans price pair by pair on memoryviews.  A
#: vectorised round costs ~20-35 us of NumPy call overhead whatever its
#: width, the pair loops ~1.5 us a pair (a disjoint round's fused loop)
#: to ~2 us (a cyclic round's sends, then its receives), so the
#: crossover is a round width, not a member count: dissemination
#: barriers and exchanges (rounds as wide as the group) break even at
#: 14-16 members, while a 64-member tree bcast (widest round 32) would
#: still be cheaper on the pair loop.  Chains have no rounds (width 0),
#: so they always take the pair loop.
VECTOR_WIDTH = 16


class _Bail(Exception):
    """The schedule is not analytically exact here (rendezvous inside a
    cyclic pattern); the caller replays the event path instead."""


class ClosedForm(NamedTuple):
    """One :data:`TABLE` entry."""

    #: ``(p, root, algorithm) -> (srcs, dsts)`` group-rank columns per
    #: send round (``algorithm`` is the spec for ``exchange``).
    rounds: Callable[..., Iterable[Tuple[np.ndarray, np.ndarray]]]
    #: ``(sched, reqs, ghost) -> values by group rank``; raises ``_Bail``.
    evaluate: Callable[..., List[Any]]


class _Round:
    """One send round of a :class:`_Plan`.

    ``srcs`` / ``dsts`` are the group-rank columns evaluators assemble
    values along; ``wsrcs`` / ``wdsts`` the same pairs in world ranks
    (the same arrays in a world plan), ``keys`` the interned FIFO keys
    ``src * n + dst`` (int64) and ``fixed`` the wire cost ``alpha +
    hops * tau`` per pair.  A narrow plan's round also carries
    ``pairs``, one ``(src, dst, key, fixed)`` tuple of plain Python
    numbers per message in world ranks, and ``disjoint``: no rank both
    sends and receives in it (``None`` on a wide plan's round).
    """

    __slots__ = ("srcs", "dsts", "wsrcs", "wdsts", "keys", "fixed",
                 "pairs", "disjoint")

    def __init__(self, srcs, dsts, wsrcs, wdsts, keys, fixed, narrow: bool):
        self.srcs, self.dsts, self.wsrcs, self.wdsts = srcs, dsts, wsrcs, wdsts
        self.keys, self.fixed = keys, fixed
        self.pairs = self.disjoint = None
        if narrow:
            self.pairs = list(zip(wsrcs.tolist(), wdsts.tolist(),
                                  keys.tolist(), fixed.tolist()))
            self.disjoint = set(srcs.tolist()).isdisjoint(dsts.tolist())


class _Plan:
    """The clock-free part of a macro evaluation for one ``(members,
    kind, algorithm, root)``.

    ``idx`` maps group rank to global rank and ``nodes`` to machine
    node; ``form`` is the pair's :class:`ClosedForm` (``None``: no
    closed form).  ``rounds`` holds one :class:`_Round` per send round;
    ``width`` is the most pairs in any one round (0 for a chain), and
    ``narrow`` (``width < VECTOR_WIDTH``) picks how they are priced.
    Everything here is a pure function of the run's topology, rank map,
    link and size, all fixed for the run.
    """

    __slots__ = ("members", "idx", "nodes", "topo", "latency", "per_hop",
                 "n", "form", "rounds", "size", "width", "narrow", "world")

    def __init__(self, run: Any, members: Sequence[int],
                 form: Optional[ClosedForm], world: bool):
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
        self.form = form
        self.world = world
        self.rounds: List[_Round] = []
        self.size = p  # pair entries held, for the table bound
        self.width = 0
        self.narrow = True

    def round(self, srcs: np.ndarray, dsts: np.ndarray) -> _Round:
        """The static columns of one send round from group ranks
        ``srcs`` to ``dsts`` (distinct pairs; an evaluator bails before
        pricing a self-send)."""
        hops = self.topo.hops_array(self.nodes[srcs], self.nodes[dsts])
        fixed = np.where(hops == 0, 0.0, self.latency + hops * self.per_hop)
        if self.world:
            wsrcs, wdsts = srcs, dsts
        else:
            wsrcs, wdsts = self.idx[srcs], self.idx[dsts]
        keys = wsrcs.astype(np.int64) * self.n + wdsts
        return _Round(srcs, dsts, wsrcs, wdsts, keys, fixed, self.narrow)


# -- round shapes -------------------------------------------------------------


def _shift(p: int, dist: int) -> Tuple[np.ndarray, np.ndarray]:
    """One shift round: every rank sends to ``rank + dist`` (mod p)."""
    idx = np.arange(p, dtype=np.intp)
    dsts = idx + dist
    dsts[dsts >= p] -= p
    return idx, dsts


def _dissemination(p: int, root: int, algorithm: Any):
    """Barrier rounds: shifts by 1, 2, 4, ... < p."""
    return [_shift(p, 1 << k) for k in range((p - 1).bit_length())]


def _tree_fanout(p: int, root: int, algorithm: Any):
    """Binomial bcast rounds: in round k every virtual rank ``vr <
    2**k`` that has the payload sends to ``vr + 2**k``."""
    gr_of = _shift(p, root)[1]  # virtual rank -> group rank
    mask = 1
    while mask < p:
        parents = np.arange(min(mask, p - mask), dtype=np.intp)
        yield gr_of[parents], gr_of[parents + mask]
        mask <<= 1


def _tree_fanin(p: int, root: int, algorithm: Any):
    """Binomial reduce rounds, by mask: virtual rank ``vr + mask``
    sends its accumulator to ``vr`` for every ``vr`` divisible by
    ``2 * mask``."""
    gr_of = _shift(p, root)[1]
    mask = 1
    while mask < p:
        step = mask << 1
        vrs = np.arange(0, p - mask, step, dtype=np.intp)
        yield gr_of[vrs + mask], gr_of[vrs]
        mask = step


def _recursive_doubling(p: int, root: int, algorithm: Any):
    """Recursive-doubling rounds.  Over the largest power of two <= p,
    rank r swaps with ``r ^ 2**k``; when p is not a power of two, the
    excess ranks' fold onto the low ranks comes first and the hand-back
    of the result comes last."""
    pof2 = 1 << (p.bit_length() - 1)  # the largest power of two <= p
    low = np.arange(p - pof2, dtype=np.intp)
    if low.size:
        yield low + pof2, low  # fold
    idx = np.arange(pof2, dtype=np.intp)
    mask = 1
    while mask < pof2:
        yield idx, idx ^ mask
        mask <<= 1
    if low.size:
        yield low, low + pof2  # hand-back


def _ring_shift(p: int, root: int, algorithm: Any):
    """The ring allgather's one round, repeated p - 1 times."""
    return [_shift(p, 1)]


def _cyclic_shifts(p: int, root: int, algorithm: Any):
    """Alltoall rounds: shifts by 1 .. p-1."""
    return [_shift(p, k) for k in range(1, p)]


def _chain(p: int, root: int, algorithm: Any):
    """Ring and flat bcast are chains, not rounds."""
    return ()


def _stencil_rounds(p: int, root: int, spec: Any):
    """Exchange rounds, one per offset of the spec in the algorithm
    slot: every rank with a peer at offset ``j`` sends to it (an open
    grid drops the ranks whose offset leaves it; a round may be empty)."""
    idx = np.arange(p, dtype=np.intp)
    for peer in spec.peer_columns():
        has = peer >= 0
        yield idx[has], peer[has].astype(np.intp)


def closed_form(kind: str, algorithm: Any) -> Optional[ClosedForm]:
    """The :data:`TABLE` entry for ``(kind, algorithm)``, or ``None``.

    An exchange carries its declared
    :class:`~repro.simmpi.stencil.StencilSpec` in the algorithm slot;
    every spec shares the ``("exchange", "stencil")`` entry.
    """
    return TABLE.get((kind, "stencil" if kind == "exchange" else algorithm))


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
    form = closed_form(kind, algorithm)
    world = group is None
    made = _Plan(run, run.world_members() if world else group, form, world)
    if form is not None:
        shapes = list(form.rounds(len(made.members), root, algorithm))
        for srcs, _ in shapes:
            made.size += len(srcs)
            made.width = max(made.width, len(srcs))
        made.narrow = made.width < VECTOR_WIDTH
        made.rounds = [made.round(srcs, dsts) for srcs, dsts in shapes]
    size = made.size
    if size <= PLAN_CAP_PAIRS:
        if run._plan_pairs + size > PLAN_CAP_PAIRS:
            plans.clear()
            run._plan_pairs = 0
        plans[key] = made
        run._plan_pairs += size
    return made


class _Sched:
    """Prices one invocation's messages straight into the run's state.

    A narrow plan (``width < VECTOR_WIDTH``: every chain, and trees,
    folds and shifts over small groups) prices pair by pair on the
    run's memoryviews (``run._clk``, ``run._comm_t``, ...) through its
    rounds' ``pairs``; a wide plan prices each round in a handful of
    array operations on the ``run.ms`` columns, indexed by the round's
    world-rank columns.  Both evaluate the same float expressions per
    pair, and both probe and record the FIFO clamp in
    ``run._last_arrival`` / ``run._last_hi`` as they go.

    They differ in when a round reads its clocks: the pair loop reads
    ``clock[dst]`` for a rendezvous handshake after the round's earlier
    pairs have moved their sources' clocks, the vectorised round reads
    every clock first.  The two agree because every round that can
    price a rendezvous size is ``disjoint``: tree fan-out and fan-in,
    and recursive doubling's fold and hand-back.  The cyclic evaluators
    (dissemination, butterfly, shifts, exchange) bail on a
    rendezvous-sized round before pricing anything.  On a disjoint
    round a pair's receive touches only its destination, so
    :meth:`round_trip` prices each pair's send and then its receive in
    one loop.
    """

    __slots__ = ("run", "plan", "members", "p", "eager_max", "narrow")

    def __init__(self, run: Any, plan: _Plan):
        self.run = run
        self.plan = plan
        self.members = plan.members
        self.p = len(plan.members)
        self.eager_max = run._eager_max
        self.narrow = plan.narrow

    # -- message primitives -------------------------------------------------

    def send(self, gs: int, gd: int, nbytes: int) -> float:
        """One send issued at ``gs``'s current clock toward ``gd``.

        Valid only where ``gd``'s matching receive is posted at ``gd``'s
        *current* clock (true for the chains: the receiver's recv is its
        next pending op).  Returns the message's arrival time at the
        destination.
        """
        run = self.run
        clk = run._clk
        src = self.members[gs]
        dst = self.members[gd]
        now = start = clk[src]
        if nbytes > self.eager_max:
            post = clk[dst]
            if post > now:
                start = post  # handshake
        arrival = run.arrival(src, dst, nbytes, start)
        oh = run.overhead(src, dst)
        clk[src] = start + oh
        # (start - now) is exactly 0.0 for an eager send, so one
        # expression reproduces both protocols' comm_time charges.
        run._comm_t[src] += (start - now) + oh
        run._sent_n[src] += 1
        run._sent_b[src] += nbytes
        return arrival

    def recv(self, gd: int, arrival: float, nbytes: int) -> None:
        """Complete a blocking receive posted at ``gd``'s current clock."""
        run = self.run
        clk = run._clk
        dst = self.members[gd]
        blocked = clk[dst]
        completion = arrival if arrival > blocked else blocked
        run._comm_t[dst] += completion - blocked
        run._recv_n[dst] += 1
        run._recv_b[dst] += nbytes
        clk[dst] = completion

    # -- round primitives ---------------------------------------------------

    def send_round(self, rnd: _Round, nbytes) -> Sequence[float]:
        """:meth:`send` for one permutation round; returns the arrival
        per pair (a list on a narrow plan, else an array).

        ``rnd`` is a non-empty :class:`_Round`: every listed source
        issues one send; (src, dst) pairs are distinct, no pair is a
        self-send, and each destination's matching receive is posted at
        its current clock.  ``nbytes`` is a scalar or per-pair array.
        Element for element the vectorised float expressions match the
        pair loop exactly; callers inside cyclic schedules must reject
        rendezvous sizes *before* pricing anything.
        """
        run = self.run
        oh = self.plan.latency  # src != dst: the overhead memo's value
        bw = run._ab._bw
        last = run._last_arrival
        if self.narrow:
            clk, comm_t = run._clk, run._comm_t
            sent_n, sent_b = run._sent_n, run._sent_b
            eager_max = self.eager_max
            hi = run._last_hi
            arrivals = []
            sizes = nbytes.tolist() if type(nbytes) is np.ndarray else repeat(nbytes)
            for (src, dst, key, fixed), nb in zip(rnd.pairs, sizes):
                now = start = clk[src]
                if nb > eager_max:
                    post = clk[dst]
                    if post > now:
                        start = post  # handshake
                arrival = start + (fixed + nb / bw)
                prev = last.get(key)
                if prev is not None and prev > arrival:
                    arrival = prev
                last[key] = arrival
                if arrival > hi:
                    hi = arrival
                clk[src] = start + oh
                comm_t[src] += (start - now) + oh
                sent_n[src] += 1
                sent_b[src] += nb
                arrivals.append(arrival)
            run._last_hi = hi
            return arrivals
        srcs = rnd.wsrcs
        ms = run.ms
        clock = ms.clock
        now = clock[srcs]
        # Rendezvous handshake: start no earlier than the posted receive.
        if type(nbytes) is np.ndarray:
            starts = np.where(
                nbytes > self.eager_max, np.maximum(clock[rnd.wdsts], now), now
            )
        elif nbytes > self.eager_max:
            starts = np.maximum(clock[rnd.wdsts], now)
        else:
            starts = now
        arrivals = starts + (rnd.fixed + nbytes / bw)
        # Per-pair FIFO clamp against the run's table.
        keys = rnd.keys.tolist()
        if run._last_hi > float(arrivals.min()):
            # Some recorded arrival could exceed one of this round's:
            # probe the table through C-level ``map(dict.get, ...)`` and
            # clamp vectorised (a Python per-pair loop here costs
            # seconds per round at 10^5+ ranks).
            prev = np.fromiter(
                map(last.get, keys, repeat(float("-inf"))),
                np.float64,
                count=len(keys),
            )
            if bool((prev > arrivals).any()):
                arrivals = np.maximum(arrivals, prev)
        # Record the round in one bulk update instead of p dict stores
        # (tolist yields plain floats, as the scalar paths store).
        last.update(zip(keys, arrivals.tolist()))
        new_max = float(arrivals.max())
        if new_max > run._last_hi:
            run._last_hi = new_max
        clock[srcs] = starts + oh
        # (starts - now) is exactly 0.0 for eager sends, so one fused
        # expression reproduces both protocols' comm_time charges.
        ms.comm_time[srcs] += (starts - now) + oh
        ms.messages_sent[srcs] += 1
        ms.bytes_sent[srcs] += nbytes
        return arrivals

    def recv_round(self, rnd: _Round, arrivals, nbytes) -> None:
        """:meth:`recv` at each of ``rnd``'s (distinct) destinations."""
        run = self.run
        if self.narrow:
            clk, comm_t = run._clk, run._comm_t
            recv_n, recv_b = run._recv_n, run._recv_b
            sizes = nbytes.tolist() if type(nbytes) is np.ndarray else repeat(nbytes)
            for pair, arrival, nb in zip(rnd.pairs, arrivals, sizes):
                dst = pair[1]
                blocked = clk[dst]
                completion = arrival if arrival > blocked else blocked
                comm_t[dst] += completion - blocked
                recv_n[dst] += 1
                recv_b[dst] += nb
                clk[dst] = completion
            return
        dsts = rnd.wdsts
        ms = run.ms
        clock = ms.clock
        blocked = clock[dsts]
        completion = np.maximum(arrivals, blocked)
        ms.comm_time[dsts] += completion - blocked
        ms.messages_received[dsts] += 1
        ms.bytes_received[dsts] += nbytes
        clock[dsts] = completion

    def round_trip(self, rnd: _Round, nbytes) -> None:
        """One round's sends, then its receives at the round's
        destinations (the round-phased shape every evaluator prices).

        A disjoint narrow round with one size runs as one fused pair
        loop, each pair's send then its receive: the loop body is
        :meth:`send_round`'s then :meth:`recv_round`'s, and no pair's
        receive can touch another pair's source.
        """
        if not rnd.disjoint or type(nbytes) is np.ndarray:
            self.recv_round(rnd, self.send_round(rnd, nbytes), nbytes)
            return
        run = self.run
        clk, comm_t = run._clk, run._comm_t
        sent_n, sent_b = run._sent_n, run._sent_b
        recv_n, recv_b = run._recv_n, run._recv_b
        last = run._last_arrival
        hi = run._last_hi
        oh = self.plan.latency
        wire = nbytes / run._ab._bw
        rendezvous = nbytes > self.eager_max
        for src, dst, key, fixed in rnd.pairs:
            now = start = clk[src]
            blocked = clk[dst]
            if rendezvous and blocked > now:
                start = blocked  # handshake
            arrival = start + (fixed + wire)
            prev = last.get(key)
            if prev is not None and prev > arrival:
                arrival = prev
            last[key] = arrival
            if arrival > hi:
                hi = arrival
            clk[src] = start + oh
            comm_t[src] += (start - now) + oh
            sent_n[src] += 1
            sent_b[src] += nbytes
            completion = arrival if arrival > blocked else blocked
            comm_t[dst] += completion - blocked
            recv_n[dst] += 1
            recv_b[dst] += nbytes
            clk[dst] = completion
        run._last_hi = hi


#: Exact payload types that are 8 wire bytes and copy as themselves.
_SCALARS = frozenset({float, int})


def _round_sizes(values: Sequence[Any]) -> Tuple[Any, int, bool]:
    """Wire sizes for one round's payloads: ``(nbytes, max, scalars)``.

    ``nbytes`` is one int when every payload has the same size, else a
    per-pair array.  Python floats/ints dominate collective payloads
    and are a constant 8 wire bytes (exactly what :func:`payload_nbytes`
    returns for them), so the common case skips the per-payload call.
    ``scalars`` additionally tells the caller that :func:`copy_payload`
    would be the identity on every payload.
    """
    if _SCALARS.issuperset(map(type, values)):
        return 8, 8, True
    sizes = [payload_nbytes(v) for v in values]
    hi = max(sizes)
    if min(sizes) == hi:
        return hi, hi, False
    return np.array(sizes, dtype=np.int64), hi, False


# -- evaluators ---------------------------------------------------------------
#
# Each function replays the message algorithm's sends/recvs in an order
# consistent with the event path's causal order: round-phased over the
# plan's rounds (all sends of a round, then all recvs), or in dependency
# order for the two chains.  Within a round, distinct ranks and distinct
# (src, dst) pairs make evaluation order irrelevant.  Every evaluator
# takes ``(sched, reqs, ghost)`` (see :func:`evaluate`) and raises
# ``_Bail`` only before its first priced message: pricing writes the
# run's state in place.


def _eval_barrier(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    if 0 > s.eager_max:
        # An "everything rendezvous" configuration makes even the
        # empty-payload dissemination shifts synchronous, and the
        # pattern is cyclic: let the event path decide (it may
        # legitimately deadlock).
        raise _Bail
    for rnd in s.plan.rounds:
        s.round_trip(rnd, 0)  # nbytes 0: always eager
    return [None] if ghost else [None] * s.p


def _eval_bcast_tree(
    s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool,
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
    root = reqs[0].root
    value = reqs[root].value
    scalars = type(value) is float or type(value) is int
    nbytes = 8 if scalars else payload_nbytes(value)
    if nonblocking and nbytes > s.eager_max:
        raise _Bail
    for rnd in s.plan.rounds:
        s.round_trip(rnd, nbytes)
    n_out = 1 if ghost else s.p
    if scalars:
        return [value] * n_out
    cp = value.copy if type(value) is np.ndarray else partial(copy_payload, value)
    return [value if g == root else cp() for g in range(n_out)]


def _eval_bcast_ring(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    p = s.p
    root = reqs[0].root
    out: List[Any] = [None] * p
    v = reqs[root].value
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


def _eval_bcast_flat(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    p = s.p
    root = reqs[0].root
    value = reqs[root].value
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


def _fold(rnd: _Round, accs: List[Any], reqs: Sequence[CollectiveReq]):
    """One acyclic fold round's values: every source sends its
    accumulator and every destination combines it into its own with
    *its own* resolved op, as the event path does.  Returns the round's
    wire size for the caller to price."""
    senders = rnd.srcs.tolist()
    nbytes, _, scalars = _round_sizes([accs[g] for g in senders])
    if scalars:
        for src, g in zip(senders, rnd.dsts.tolist()):
            accs[g] = reqs[g].op(accs[g], accs[src])
    else:
        for src, g in zip(senders, rnd.dsts.tolist()):
            accs[g] = reqs[g].op(accs[g], copy_payload(accs[src]))
    return nbytes


def _eval_reduce(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Binomial reduction: one fold per mask; pairs within a round are
    disjoint."""
    accs = [req.value for req in reqs]  # by group rank
    for rnd in s.plan.rounds:
        s.round_trip(rnd, _fold(rnd, accs, reqs))
    root = reqs[0].root
    out: List[Any] = [None] * s.p
    out[root] = accs[root]
    return out


def _eval_allreduce_rd(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Recursive doubling over the plan's rounds: the acyclic fold of
    the non-power-of-two excess, the eager-only butterfly, and the
    acyclic hand-back (fold and hand-back exist only when p is not a
    power of two).  Every round's values and wire size come first, so
    a rendezvous-sized butterfly round bails before anything is
    priced."""
    p = s.p
    accs = [req.value for req in reqs]
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    rounds = s.plan.rounds
    sizes = [_fold(rounds[0], accs, reqs)] if rem else []
    mask = 1
    while mask < pof2:
        snapshot = accs[:pof2]  # payloads are the round-start accumulators
        nbytes, nb_max, scalars = _round_sizes(snapshot)
        if nb_max > s.eager_max:
            raise _Bail  # rendezvous inside the butterfly: event path decides
        sizes.append(nbytes)
        if scalars:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], snapshot[r ^ mask])
        else:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], copy_payload(snapshot[r ^ mask]))
        mask <<= 1
    if rem:
        # The receivers have been idle since their fold sends.
        nbytes, _, scalars = _round_sizes(accs[:rem])
        sizes.append(nbytes)
        for r in range(rem):
            accs[r + pof2] = accs[r] if scalars else copy_payload(accs[r])
    for rnd, nbytes in zip(rounds, sizes):
        s.round_trip(rnd, nbytes)
    return accs


#: Wire bytes the ring allgather's ``(carry_rank, value)`` tuple adds to
#: the value: payload_nbytes counts 8 for the int and 8 per element.
_CARRY_BYTES = 24


def _eval_allgather_ring(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Ring allgather: p - 1 steps of the plan's one shift round.  At
    step t rank r forwards ``(c, value_c)`` for ``c = r - t`` (mod p),
    so the step's wire sizes are the values' sizes rotated by t; every
    step carries every value, so one rendezvous-sized value bails."""
    p = s.p
    vals = [req.value for req in reqs]
    sizes, hi, scalars = _round_sizes(vals)
    if hi + _CARRY_BYTES > s.eager_max:
        raise _Bail
    sizes = sizes + _CARRY_BYTES
    rnd = s.plan.rounds[0]
    rotate = type(sizes) is np.ndarray
    for step in range(p - 1):
        s.round_trip(rnd, np.roll(sizes, step) if rotate else sizes)
    if scalars:
        # Buffered copies of floats and ints are the objects themselves.
        return [list(vals) for _ in range(p)]
    outs: List[List[Any]] = [[None] * p for _ in range(p)]
    for r in range(p):
        outs[r][r] = vals[r]  # own slot keeps the original object
    # What each rank sends next: the carry it received last step, as the
    # event path's copy chain delivers it.
    carried = list(enumerate(vals))
    for _step in range(p - 1):
        carried = [copy_payload(carried[r - 1]) for r in range(p)]
        for r, (c, value) in enumerate(carried):
            outs[r][c] = value
    return outs


def _eval_alltoall(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Cyclic alltoall: in the plan's shift round k rank r sends its
    block for ``r + k`` to it; a rendezvous-sized block in any round
    bails before anything is priced."""
    p = s.p
    vals = [req.value for req in reqs]  # each a length-p list of payloads
    outs: List[List[Any]] = []
    for r in range(p):
        o: List[Any] = [None] * p
        o[r] = vals[r][r]  # own slot keeps the original object
        outs.append(o)
    rounds = s.plan.rounds
    sizes = []
    for rnd in rounds:
        dsts = rnd.dsts.tolist()
        blocks = [vals[r][d] for r, d in enumerate(dsts)]
        nbytes, nb_max, scalars = _round_sizes(blocks)
        if nb_max > s.eager_max:
            raise _Bail
        sizes.append(nbytes)
        if scalars:
            for r, d in enumerate(dsts):
                outs[d][r] = blocks[r]
        else:
            for r, d in enumerate(dsts):
                outs[d][r] = copy_payload(blocks[r])
    for rnd, nbytes in zip(rounds, sizes):
        s.round_trip(rnd, nbytes)
    return outs


def _eval_exchange(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """One declared stencil phase (see :mod:`repro.simmpi.stencil`).

    Mirrors the event path's wire protocol round for round: the plan's
    send round per offset, then one receive round per offset, so every
    rank's clock and comm-time accumulate in exactly the event path's
    per-rank op order.  Rank r's offset-j receive completes the message
    its peer sent in the mirror round ``mirrors[j]`` (the send
    travelling ``-offsets[j]``), so offset j receives along that round's
    destinations.  Raises ``_Bail`` on irregular payload sizes,
    rendezvous-sized payloads, or self-peers.

    ``ghost`` (ghost replay): every entry of ``reqs`` is the same
    request object, so rank 0's payloads size every column, and only
    rank 0's delivered row is assembled -- the O(p) per-member column
    scans and delivery copies collapse to O(offsets).
    """
    spec = reqs[0].algorithm
    k = len(spec.offsets)
    if spec.self_peer:
        # Self-sends have zero injection overhead, which the constant-
        # overhead round primitive cannot express.
        raise _Bail
    vals: Optional[List[Any]] = None if ghost else [req.value for req in reqs]
    v0 = reqs[0].value
    nb: List[int] = []
    immutable: List[bool] = []
    for j in range(k):
        x0 = v0[j]
        t0 = type(x0)
        scalar0 = t0 is float or t0 is int or t0 is bool
        if scalar0 and (ghost or not any(type(v[j]) is not t0 for v in vals)):
            # Scalar column: 8 wire bytes each (payload_nbytes), and
            # nothing to copy on delivery -- the eager send path hands
            # immutable payloads through as-is too.
            n0 = 8
            imm = True
        else:
            n0 = payload_nbytes(x0)
            if not ghost and not s.run._cert_uniform:
                # A macro certificate with the uniform-exchange bit
                # proves every rank's payload has the same shape; then
                # element 0 prices the whole column.  Without it, scan.
                for v in vals:
                    if payload_nbytes(v[j]) != n0:
                        raise _Bail  # irregular sizes: not a uniform round
            imm = False
        if n0 > s.eager_max:
            # Rendezvous payloads make the cyclic pattern synchronous;
            # the event path must run (it may legitimately deadlock).
            raise _Bail
        nb.append(n0)
        immutable.append(imm)

    rounds = s.plan.rounds  # offset j: every rank with a peer -> that peer
    arrivals = [
        s.send_round(rnd, nb[j]) if len(rnd.srcs) else None
        for j, rnd in enumerate(rounds)
    ]
    mirrors = spec.mirrors
    for j in range(k):
        m = mirrors[j]
        if arrivals[m] is not None:
            s.recv_round(rounds[m], arrivals[m], nb[m])

    # Rank r's offset-j slot holds its offset-j peer's mirror payload.
    # Build per-offset delivery columns, then transpose: the column
    # loops are flat list comprehensions, which matters at 10^4+ ranks.
    cp = copy_payload
    p = s.p
    if ghost:
        # Only rank 0's delivered row is observable; its peers' mirror
        # payloads are rank 0's own (one shared request).  Round j's
        # sources are ascending, so rank 0 has a peer iff it leads.
        row0: List[Any] = []
        for j in range(k):
            m = mirrors[j]
            srcs = rounds[j].srcs
            if not len(srcs) or srcs[0] != 0:
                row0.append(None)
            elif immutable[m]:
                row0.append(v0[m])
            else:
                row0.append(cp(v0[m]))
        return [row0]
    delivered: List[List[Any]] = []
    for j in range(k):
        srcs, peers = rounds[j].srcs, rounds[j].dsts
        if len(srcs) < p:
            # Open grid: -1 marks the ranks whose offset leaves it.
            peers = np.full(p, -1, dtype=np.intp)
            peers[srcs] = rounds[j].dsts
        pl = peers.tolist()
        m = mirrors[j]
        if immutable[m]:
            colv = [vals[q][m] if q >= 0 else None for q in pl]
        else:
            # Same buffered-copy semantics as the eager send path.
            colv = [cp(vals[q][m]) if q >= 0 else None for q in pl]
        delivered.append(colv)
    return [list(row) for row in zip(*delivered)]


#: (kind, algorithm) -> its closed form.  The one list of what the
#: macro layer evaluates; see the module docstring for what derives
#: from it.
TABLE: Dict[Tuple[str, str], ClosedForm] = {
    ("barrier", "dissemination"): ClosedForm(_dissemination, _eval_barrier),
    ("bcast", "tree"): ClosedForm(_tree_fanout, _eval_bcast_tree),
    ("bcast", "tree_nb"): ClosedForm(
        _tree_fanout, partial(_eval_bcast_tree, nonblocking=True)
    ),
    ("bcast", "ring"): ClosedForm(_chain, _eval_bcast_ring),
    ("bcast", "flat"): ClosedForm(_chain, _eval_bcast_flat),
    ("reduce", "binomial"): ClosedForm(_tree_fanin, _eval_reduce),
    ("allreduce", "recursive_doubling"): ClosedForm(
        _recursive_doubling, _eval_allreduce_rd
    ),
    ("allgather", "ring"): ClosedForm(_ring_shift, _eval_allgather_ring),
    ("alltoall", "cyclic"): ClosedForm(_cyclic_shifts, _eval_alltoall),
    ("exchange", "stencil"): ClosedForm(_stencil_rounds, _eval_exchange),
}

#: (kind, algorithm) pairs the evaluator can reproduce exactly.
SUPPORTED = frozenset(TABLE)


def evaluate(
    run: Any,
    plan: _Plan,
    reqs: Sequence[CollectiveReq],
    ghost: bool = False,
) -> Optional[List[Any]]:
    """Evaluate one complete collective invocation analytically.

    ``plan`` is this invocation's :func:`plan`; ``reqs`` is indexed by
    group rank, and the members' entry clocks are their clocks in
    ``run.ms``.  Returns the values per group rank, with every member's
    clock column holding its finish time and its stats and the FIFO
    clamp state updated; or ``None`` when the schedule cannot be
    reproduced exactly (the caller then falls back to the event path;
    the evaluator decided that before pricing, so nothing observable was
    mutated).

    ``ghost`` is ghost replay's contract: every entry of ``reqs`` is
    the *same* request object (a symmetric program priced from rank 0's
    yields) and only group rank 0's result is read, so evaluators that
    would otherwise materialize one delivered payload per member
    (exchange, tree broadcasts, barrier) return a single-element list
    instead -- identical pricing, O(1) result assembly.  The remaining
    evaluators ignore the flag and return all p values.
    """
    form = plan.form
    if form is None:
        return None
    try:
        return form.evaluate(_Sched(run, plan), reqs, ghost)
    except _Bail:
        return None
