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
:meth:`_Sched.send_round` / :meth:`_Sched.recv_round`; ring and flat
bcast are chains (each hop waits on the one before it) and go message
by message through :meth:`_Sched.send` / :meth:`_Sched.recv`.  A round
is priced one of two ways, picked per invocation from the plan's widest
round: below :data:`VECTOR_WIDTH` pairs (every chain, and an lu2d
panel broadcast's rounds of 1, 2 and 4) pair by pair through those same
scalar primitives on list columns, where NumPy's fixed cost per call
would dominate; from it up in a handful of array operations per round.
Cyclic patterns (dissemination, butterfly, shifts, exchanges) are
evaluated only when every message is eager; a rendezvous message there
means the event path's behaviour (including its deadlock) must be
reproduced for real, so we bail -- before pricing that round, which is
what lets the pair loop and the vectorised round agree (see
:class:`_Sched`).

Plans and clock arithmetic
--------------------------

An invocation splits into a static :class:`_Plan` and the clock
arithmetic.  The plan depends only on ``(members, kind, algorithm,
root)`` (an exchange's spec sits in the algorithm slot): the member
index and node columns, the table entry, and per send round of the
entry's shape the group-index src/dst columns, the interned FIFO keys
and the hop-derived fixed wire cost.  :func:`plan` builds it once per
run and keeps it in ``run._plans``, so a repeated invocation (lu2d's
panel broadcasts repeat 94 % of the time, a halo epoch's exchanges
every step) evaluates only the expressions that read clocks.  The
table is bounded by :data:`PLAN_CAP_PAIRS` and is cleared when an
insertion would exceed it.  A plan also records its widest round,
which picks :class:`_Sched`'s storage form; it holds no list columns,
so it stays ~32 bytes a pair whatever that form.

The FIFO clamp's "can any recorded arrival exceed this round's?" test
reads ``run._last_hi``, a monotone upper bound on every value in
``run._last_arrival`` that the engine raises at each write, instead of
scanning the table.
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
#: fixed-cost columns), about 32 bytes each.  One world tree plan at
#: 2**20 ranks (2**21 - 1 entries) fits; a rotating-root world bcast
#: would otherwise grow the table as p**2 pairs.
PLAN_CAP_PAIRS = 1 << 21

#: Pairs in a plan's widest round from which :class:`_Sched` prices on
#: NumPy columns; narrower plans price pair by pair on lists.  A
#: vectorised round costs ~20 us of NumPy call overhead whatever its
#: width, the pair loop ~1.7 us a pair, so the crossover is a round
#: width, not a member count: dissemination barriers and exchanges
#: (rounds as wide as the group) break even at 12-14 members, while a
#: 32-member tree bcast (widest round 16) is still cheaper on lists.
#: Chains have no rounds (width 0), so they always take the lists.
VECTOR_WIDTH = 12


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


class _Plan:
    """The clock-free part of a macro evaluation for one ``(members,
    kind, algorithm, root)``.

    ``idx`` maps group rank to global rank and ``nodes`` to machine
    node; ``form`` is the pair's :class:`ClosedForm` (``None``: no
    closed form).  Each entry of ``rounds`` is one send round ``(srcs,
    dsts, keys, fixed)``: group-rank columns, the interned FIFO keys
    ``src * n + dst`` (int64), and the fixed wire cost ``alpha + hops *
    tau`` per pair; ``width`` is the most pairs in any one round (0 for
    a chain).  Everything here is a pure function of the run's
    topology, rank map, link and size, all fixed for the run.
    """

    __slots__ = ("members", "idx", "nodes", "topo", "latency", "per_hop",
                 "n", "form", "rounds", "size", "width")

    def __init__(self, run: Any, members: Sequence[int],
                 form: Optional[ClosedForm]):
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
        self.rounds: List[tuple] = []
        self.size = p  # pair entries held, for the table bound
        self.width = 0

    def round(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple:
        """The static columns of one send round from group ranks
        ``srcs`` to ``dsts`` (distinct pairs; an evaluator bails before
        pricing a self-send)."""
        hops = self.topo.hops_array(self.nodes[srcs], self.nodes[dsts])
        fixed = np.where(hops == 0, 0.0, self.latency + hops * self.per_hop)
        idx = self.idx
        keys = idx[srcs].astype(np.int64) * self.n + idx[dsts]
        return srcs, dsts, keys, fixed


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
    made = _Plan(run, run.world_members() if group is None else group, form)
    if form is not None:
        for srcs, dsts in form.rounds(len(made.members), root, algorithm):
            made.rounds.append(made.round(srcs, dsts))
            made.size += len(srcs)
            made.width = max(made.width, len(srcs))
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

    The copies come in one of two storage forms, picked here from the
    plan's widest round.  A plan narrower than :data:`VECTOR_WIDTH`
    (every chain, and trees, folds and shifts over small groups) keeps
    them as Python lists, and :meth:`send_round` / :meth:`recv_round`
    price its rounds pair by pair through the scalar :meth:`send` /
    :meth:`recv`.  A wider plan keeps NumPy columns and prices each
    round in a handful of array operations.  Both forms evaluate the
    same float expressions per pair.

    They differ in when a round reads its clocks: the pair loop reads
    ``clock[gd]`` for a rendezvous handshake after the round's earlier
    pairs have moved their sources' clocks, the vectorised round reads
    every clock first.  The two agree because every round that can
    price a rendezvous size has disjoint sources and destinations: tree
    fan-out and fan-in, and recursive doubling's fold and hand-back.
    The cyclic evaluators (dissemination, butterfly, shifts, exchange)
    bail on a rendezvous-sized round before pricing any pair of it.
    """

    __slots__ = (
        "run", "plan", "members", "p", "clock", "comm_t", "sent_n",
        "sent_b", "recv_n", "recv_b", "eager_max", "ab", "n", "overlay",
        "last", "oh_memo", "latency", "bw", "fifo_cap", "narrow",
    )

    def __init__(self, run: Any, plan: _Plan, clocks: Sequence[float]):
        self.run = run
        self.plan = plan
        self.members = plan.members
        self.p = len(plan.members)
        # Columnar gather: one fancy-index copy per stats column out of
        # the run's MachineState.
        idx = plan.idx
        ms = run.ms
        columns = (ms.comm_time[idx], ms.messages_sent[idx], ms.bytes_sent[idx],
                   ms.messages_received[idx], ms.bytes_received[idx])
        self.narrow = plan.width < VECTOR_WIDTH
        if self.narrow:
            # Lists: element access on them costs a fraction of a numpy
            # scalar's, with the same IEEE arithmetic.
            self.clock = (clocks.tolist() if type(clocks) is np.ndarray
                          else list(clocks))
            columns = [col.tolist() for col in columns]
        else:
            self.clock = np.array(clocks, dtype=np.float64)
        self.comm_t, self.sent_n, self.sent_b, self.recv_n, self.recv_b = columns
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
        *current* local clock (true for the chains and for a round's
        pairs: the receiver's recv is its next pending op).  Returns the message's
        arrival time at the destination.
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

    # -- round primitives ---------------------------------------------------

    def send_round(self, rnd: tuple, nbytes) -> Sequence[float]:
        """:meth:`send` for one permutation round; returns the arrival
        per pair (a list on the narrow form, else an array).

        ``rnd`` is a non-empty :meth:`_Plan.round`: every listed source
        issues one send; (src, dst) pairs are distinct, no pair is a
        self-send, and each destination's matching receive is posted at
        its current clock (the acyclic / round-phased precondition of
        :meth:`send`).  ``nbytes`` is a scalar or per-pair array.
        Element for element the vectorised float expressions match
        :meth:`send` exactly; callers inside cyclic schedules must
        reject rendezvous sizes *before* calling.
        """
        srcs, dsts, keys, fixed = rnd
        if self.narrow:
            sizes = nbytes.tolist() if type(nbytes) is np.ndarray else repeat(nbytes)
            return list(map(self.send, srcs.tolist(), dsts.tolist(), sizes))
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
        """:meth:`recv` over distinct destinations."""
        if self.narrow:
            sizes = nbytes.tolist() if type(nbytes) is np.ndarray else repeat(nbytes)
            for args in zip(dsts.tolist(), arrivals, sizes):
                self.recv(*args)
            return
        clock = self.clock
        blocked = clock[dsts]
        completion = np.maximum(arrivals, blocked)
        self.comm_t[dsts] += completion - blocked
        self.recv_n[dsts] += 1
        self.recv_b[dsts] += nbytes
        clock[dsts] = completion

    def round_trip(self, rnd: tuple, nbytes) -> None:
        """One round's sends, then its receives at the round's
        destinations (the round-phased shape every evaluator prices)."""
        self.recv_round(rnd[1], self.send_round(rnd, nbytes), nbytes)

    def commit(self) -> None:
        # The caller's resume times must be plain Python floats (no
        # numpy scalars in the event loop's heap tuples); the committed
        # columns hold the same float64 bits either way.
        clock = self.clock if self.narrow else self.clock.tolist()
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
# takes ``(sched, reqs, ghost)``; see :func:`evaluate`.


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
    cp = copy_payload
    return [value if g == root else cp(value) for g in range(n_out)]


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


def _fold(s: _Sched, rnd: tuple, accs: List[Any], reqs: Sequence[CollectiveReq]) -> None:
    """One acyclic fold round: every source sends its accumulator and
    every destination combines it into its own with *its own* resolved
    op, as the event path does."""
    senders = rnd[0].tolist()
    nbytes, _, scalars = _round_sizes([accs[g] for g in senders])
    s.round_trip(rnd, nbytes)
    if scalars:
        for src, g in zip(senders, rnd[1].tolist()):
            accs[g] = reqs[g].op(accs[g], accs[src])
    else:
        for src, g in zip(senders, rnd[1].tolist()):
            accs[g] = reqs[g].op(accs[g], copy_payload(accs[src]))


def _eval_reduce(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Binomial reduction: one fold per mask; pairs within a round are
    disjoint."""
    accs = [req.value for req in reqs]  # by group rank
    for rnd in s.plan.rounds:
        _fold(s, rnd, accs, reqs)
    root = reqs[0].root
    out: List[Any] = [None] * s.p
    out[root] = accs[root]
    return out


def _eval_allreduce_rd(s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool) -> List[Any]:
    """Recursive doubling over the plan's rounds: the acyclic fold of
    the non-power-of-two excess, the eager-only butterfly, and the
    acyclic hand-back (fold and hand-back exist only when p is not a
    power of two)."""
    p = s.p
    accs = [req.value for req in reqs]
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    butterfly = s.plan.rounds
    if rem:
        fold, *butterfly, hand_back = butterfly
        _fold(s, fold, accs, reqs)
    mask = 1
    for rnd in butterfly:
        snapshot = accs[:pof2]  # payloads are the round-start accumulators
        nbytes, nb_max, scalars = _round_sizes(snapshot)
        if nb_max > s.eager_max:
            raise _Bail  # rendezvous inside the butterfly: event path decides
        s.round_trip(rnd, nbytes)
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
        s.round_trip(hand_back, nbytes)
        for r in range(rem):
            accs[r + pof2] = accs[r] if scalars else copy_payload(accs[r])
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
    block for ``r + k`` to it; a rendezvous-sized block bails."""
    p = s.p
    vals = [req.value for req in reqs]  # each a length-p list of payloads
    outs: List[List[Any]] = []
    for r in range(p):
        o: List[Any] = [None] * p
        o[r] = vals[r][r]  # own slot keeps the original object
        outs.append(o)
    for rnd in s.plan.rounds:
        dsts = rnd[1].tolist()
        blocks = [vals[r][d] for r, d in enumerate(dsts)]
        nbytes, nb_max, scalars = _round_sizes(blocks)
        if nb_max > s.eager_max:
            raise _Bail
        s.round_trip(rnd, nbytes)
        if scalars:
            for r, d in enumerate(dsts):
                outs[d][r] = blocks[r]
        else:
            for r, d in enumerate(dsts):
                outs[d][r] = copy_payload(blocks[r])
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
        s.send_round(rnd, nb[j]) if len(rnd[0]) else None
        for j, rnd in enumerate(rounds)
    ]
    mirrors = spec.mirrors
    for j in range(k):
        m = mirrors[j]
        if arrivals[m] is not None:
            s.recv_round(rounds[m][1], arrivals[m], nb[m])

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
            srcs = rounds[j][0]
            if not len(srcs) or srcs[0] != 0:
                row0.append(None)
            elif immutable[m]:
                row0.append(v0[m])
            else:
                row0.append(cp(v0[m]))
        return [row0]
    delivered: List[List[Any]] = []
    for j in range(k):
        srcs, peers = rounds[j][0], rounds[j][1]
        if len(srcs) < p:
            # Open grid: -1 marks the ranks whose offset leaves it.
            peers = np.full(p, -1, dtype=np.intp)
            peers[srcs] = rounds[j][1]
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
    clocks: Sequence[float],
    ghost: bool = False,
) -> Optional[Tuple[List[float], List[Any]]]:
    """Evaluate one complete collective invocation analytically.

    ``plan`` is this invocation's :func:`plan`; ``reqs``/``clocks`` are
    indexed by group rank.  Returns ``(finish_times, values)`` per
    group rank with clocks/stats/clamp-state already committed, or
    ``None`` when the schedule cannot be reproduced exactly (the caller
    then falls back to the event path; nothing observable was mutated).

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
    s = _Sched(run, plan, clocks)
    try:
        out = form.evaluate(s, reqs, ghost)
    except _Bail:
        return None
    s.commit()
    return s.clock, out
