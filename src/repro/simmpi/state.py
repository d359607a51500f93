"""Columnar per-rank simulation state and the unified handle table.

The engine's numeric hot state -- virtual clocks, lifecycle flags, and
the :class:`~repro.simmpi.trace.RankStats` accumulators -- lives in one
:class:`MachineState`: parallel numpy arrays indexed by rank (structure
of arrays, one column per field).  Whole-machine operations (wide
macro-op rounds, stats finalization, makespan reduction) become single array
expressions instead of per-object loops, which is what lets the
simulator hold its footprint at 10^4..10^6 ranks.

:class:`RankState` is a thin per-rank **view** over those columns: its
``clock``/``finished``/``failed``/``blocked`` properties and its
``stats`` attribute (a :class:`RankStatsView`) read and write the
shared arrays, so the protocol, waitgraph, fault, and obs layers keep
working unchanged through the same attribute API the old per-object
state exposed.  The engine's fused handlers bypass the properties and
index the columns directly; both routes touch the same storage, so
they can never disagree.

Alongside the columns each rank keeps genuinely per-rank *object*
state: the **handle table** -- a dict keyed by handle id holding every
outstanding non-blocking request (posted receives and in-progress
sends alike) -- plus ``rslots`` (just the posted receives, in post
order, so message matching scans exactly the right objects), the
queues of unmatched eager messages and parked rendezvous senders, and
the waitany/collective parking markers.

Everything here is a plain ``__slots__`` class: slots and handle
objects are allocated per message and per posted receive, so they sit
directly on the engine's fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.simmpi.requests import ANY_SOURCE, ANY_TAG, InFlight
from repro.simmpi.trace import RankStats
from repro.util.errors import CommunicationError


class ReceiveSlot:
    """One outstanding posted receive."""

    __slots__ = ("handle_id", "source", "tag", "msg", "waiting", "blocked_since")

    def __init__(
        self,
        handle_id: int,
        source: int,
        tag: int,
        msg: Optional[InFlight] = None,
        waiting: bool = False,
        blocked_since: float = 0.0,
    ):
        self.handle_id = handle_id
        self.source = source
        self.tag = tag
        self.msg = msg
        #: True while the owning rank is blocked in a wait on this handle.
        self.waiting = waiting
        self.blocked_since = blocked_since

    def matches(self, msg: InFlight) -> bool:
        if self.source != ANY_SOURCE and self.source != msg.source:
            return False
        if self.tag != ANY_TAG and self.tag != msg.tag:
            return False
        return True

    @property
    def ready(self) -> bool:
        """A message is bound: a wait on this handle can complete."""
        return self.msg is not None

    def completion_time(self, now: float) -> float:
        return max(now, self.msg.arrival_time)

    def __repr__(self) -> str:
        return (
            f"ReceiveSlot(handle_id={self.handle_id}, source={self.source}, "
            f"tag={self.tag}, msg={self.msg!r}, waiting={self.waiting})"
        )


class SendHandle:
    """One outstanding non-blocking send."""

    __slots__ = (
        "handle_id", "dest", "tag", "nbytes",
        "complete_at", "waiting", "blocked_since", "hs_cause",
    )

    def __init__(
        self,
        handle_id: int,
        dest: int,
        tag: int,
        nbytes: float,
        complete_at: Optional[float] = None,
        waiting: bool = False,
        blocked_since: float = 0.0,
        hs_cause: Any = None,
    ):
        self.handle_id = handle_id
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        #: Virtual time the sender's CPU is clear of this send; None while
        #: a rendezvous isend is still parked awaiting its handshake.
        self.complete_at = complete_at
        self.waiting = waiting
        self.blocked_since = blocked_since
        #: Causal edge for span tracing (set only when tracing): the
        #: rendezvous handshake that completed this handle remotely.
        self.hs_cause = hs_cause

    @property
    def ready(self) -> bool:
        return self.complete_at is not None

    def completion_time(self, now: float) -> float:
        return max(now, self.complete_at)

    def __repr__(self) -> str:
        return (
            f"SendHandle(handle_id={self.handle_id}, dest={self.dest}, "
            f"tag={self.tag}, nbytes={self.nbytes}, complete_at={self.complete_at})"
        )


Handle = Union[ReceiveSlot, SendHandle]


class ParkedSend:
    """A rendezvous send waiting for its matching receive to be posted.

    ``handle`` is set for non-blocking sends (the sender keeps running
    and synchronises via the handle); ``None`` means the sender is
    blocked in the send itself.
    """

    __slots__ = (
        "source", "dest", "tag", "payload", "nbytes",
        "seq", "park_time", "send_time", "handle",
    )

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        payload: Any,
        nbytes: float,
        seq: int,
        park_time: float,
        send_time: float,
        handle: Optional[SendHandle] = None,
    ):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.seq = seq
        self.park_time = park_time
        self.send_time = send_time
        self.handle = handle

    def __repr__(self) -> str:
        return (
            f"ParkedSend(source={self.source}, dest={self.dest}, tag={self.tag}, "
            f"nbytes={self.nbytes}, park_time={self.park_time})"
        )


class MachineState:
    """Structure-of-arrays state for every rank of one run.

    One float64/int64/bool column per field, indexed by rank.  Values
    stored here are always *plain* Python numbers written through
    ``arr[i] = v`` and read back with ``arr.item(i)`` (or ``tolist()``
    in bulk), so nothing that leaves this class carries a numpy scalar
    type into the event loop's heap tuples or float arithmetic --
    float64 round-trips exactly, and int64 holds every count the
    simulator can produce.
    """

    __slots__ = (
        "n", "clock", "finished", "failed", "blocked",
        "compute_time", "comm_time", "idle_time",
        "messages_sent", "bytes_sent", "messages_received",
        "bytes_received", "finish_time",
    )

    def __init__(self, n: int):
        self.n = n
        self.clock = np.zeros(n, dtype=np.float64)
        self.finished = np.zeros(n, dtype=np.bool_)
        self.failed = np.zeros(n, dtype=np.bool_)
        self.blocked = np.zeros(n, dtype=np.bool_)
        self.compute_time = np.zeros(n, dtype=np.float64)
        self.comm_time = np.zeros(n, dtype=np.float64)
        self.idle_time = np.zeros(n, dtype=np.float64)
        self.messages_sent = np.zeros(n, dtype=np.int64)
        #: Bytes columns are float64 (RankStats declares bytes as float);
        #: the values are exact -- payload sizes are integers well below
        #: 2**53 -- so int and float comparisons agree everywhere.
        self.bytes_sent = np.zeros(n, dtype=np.float64)
        self.messages_received = np.zeros(n, dtype=np.int64)
        self.bytes_received = np.zeros(n, dtype=np.float64)
        self.finish_time = np.zeros(n, dtype=np.float64)

    def makespan(self) -> float:
        """Latest rank clock, as a plain float (one array reduction)."""
        return float(self.clock.max()) if self.n else 0.0

    def finalize_stats(self) -> List[RankStats]:
        """Materialise per-rank :class:`RankStats` from the columns.

        One ``tolist()`` per column (plain Python numbers out), then a
        single zip -- the vectorised replacement for reading eight
        attributes off every rank object.
        """
        rows = zip(
            self.compute_time.tolist(),
            self.comm_time.tolist(),
            self.idle_time.tolist(),
            self.messages_sent.tolist(),
            self.bytes_sent.tolist(),
            self.messages_received.tolist(),
            self.bytes_received.tolist(),
            self.finish_time.tolist(),
        )
        return [
            RankStats(
                rank=r,
                compute_time=ct,
                comm_time=cm,
                idle_time=it,
                messages_sent=ms,
                bytes_sent=bs,
                messages_received=mr,
                bytes_received=br,
                finish_time=ft,
            )
            for r, (ct, cm, it, ms, bs, mr, br, ft) in enumerate(rows)
        ]

    def lazy_stats(self) -> "LazyRankStats":
        """Column-backed stats sequence that defers materialisation.

        Closed-form runs finish with 10^5..10^6 perfectly good stats
        *columns*; building a million :class:`RankStats` objects to put
        in the result would cost more time and memory than the whole
        priced epoch.  The lazy sequence keeps the columns and builds a
        ``RankStats`` row only when one is indexed.
        """
        return LazyRankStats(self)


class LazyRankStats:
    """Read-only sequence of :class:`RankStats` backed by the columns.

    Behaves like the list :meth:`MachineState.finalize_stats` returns
    -- ``len``, indexing, slicing, iteration, and elementwise ``==``
    against any sequence -- but each row is constructed on access from
    the :class:`MachineState` arrays, so holding the result of a
    10^6-rank run costs thirteen arrays, not a million dataclasses.
    """

    __slots__ = ("_ms",)

    def __init__(self, ms: MachineState):
        self._ms = ms

    def __len__(self) -> int:
        return self._ms.n

    def __getitem__(self, index):
        ms = self._ms
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(ms.n))]
        i = int(index)
        if i < 0:
            i += ms.n
        if not 0 <= i < ms.n:
            raise IndexError("rank index out of range")
        return RankStats(
            rank=i,
            compute_time=ms.compute_time.item(i),
            comm_time=ms.comm_time.item(i),
            idle_time=ms.idle_time.item(i),
            messages_sent=ms.messages_sent.item(i),
            bytes_sent=ms.bytes_sent.item(i),
            messages_received=ms.messages_received.item(i),
            bytes_received=ms.bytes_received.item(i),
            finish_time=ms.finish_time.item(i),
        )

    def __iter__(self):
        for i in range(self._ms.n):
            yield self[i]

    def __eq__(self, other) -> bool:
        try:
            n = len(other)
        except TypeError:
            return NotImplemented
        if n != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LazyRankStats(n={len(self)})"


class RankStatsView:
    """Per-rank window onto the :class:`MachineState` stats columns.

    Exposes the exact :class:`~repro.simmpi.trace.RankStats` attribute
    API (including ``busy_time``/``accounted_time``) so the protocol
    and obs layers keep accumulating through ``stats.comm_time += dt``
    unchanged; every access reads or writes the shared arrays.
    """

    __slots__ = ("ms", "rank")

    def __init__(self, ms: MachineState, rank: int):
        self.ms = ms
        self.rank = rank

    @property
    def compute_time(self) -> float:
        return self.ms.compute_time.item(self.rank)

    @compute_time.setter
    def compute_time(self, v: float) -> None:
        self.ms.compute_time[self.rank] = v

    @property
    def comm_time(self) -> float:
        return self.ms.comm_time.item(self.rank)

    @comm_time.setter
    def comm_time(self, v: float) -> None:
        self.ms.comm_time[self.rank] = v

    @property
    def idle_time(self) -> float:
        return self.ms.idle_time.item(self.rank)

    @idle_time.setter
    def idle_time(self, v: float) -> None:
        self.ms.idle_time[self.rank] = v

    @property
    def messages_sent(self) -> int:
        return self.ms.messages_sent.item(self.rank)

    @messages_sent.setter
    def messages_sent(self, v: int) -> None:
        self.ms.messages_sent[self.rank] = v

    @property
    def bytes_sent(self) -> float:
        return self.ms.bytes_sent.item(self.rank)

    @bytes_sent.setter
    def bytes_sent(self, v: float) -> None:
        self.ms.bytes_sent[self.rank] = v

    @property
    def messages_received(self) -> int:
        return self.ms.messages_received.item(self.rank)

    @messages_received.setter
    def messages_received(self, v: int) -> None:
        self.ms.messages_received[self.rank] = v

    @property
    def bytes_received(self) -> float:
        return self.ms.bytes_received.item(self.rank)

    @bytes_received.setter
    def bytes_received(self, v: float) -> None:
        self.ms.bytes_received[self.rank] = v

    @property
    def finish_time(self) -> float:
        return self.ms.finish_time.item(self.rank)

    @finish_time.setter
    def finish_time(self, v: float) -> None:
        self.ms.finish_time[self.rank] = v

    @property
    def busy_time(self) -> float:
        """Compute plus communication time (excludes idle gaps)."""
        return self.compute_time + self.comm_time

    @property
    def accounted_time(self) -> float:
        """Compute + comm + idle; equals ``finish_time`` per rank (up
        to float accumulation error), asserted in tests."""
        return self.compute_time + self.comm_time + self.idle_time

    def snapshot(self) -> RankStats:
        """A detached :class:`RankStats` copy of this rank's row."""
        return RankStats(
            rank=self.rank,
            compute_time=self.compute_time,
            comm_time=self.comm_time,
            idle_time=self.idle_time,
            messages_sent=self.messages_sent,
            bytes_sent=self.bytes_sent,
            messages_received=self.messages_received,
            bytes_received=self.bytes_received,
            finish_time=self.finish_time,
        )

    def __repr__(self) -> str:
        return (
            f"RankStatsView(rank={self.rank}, compute={self.compute_time}, "
            f"comm={self.comm_time}, idle={self.idle_time})"
        )


class RankState:
    """Everything the engine tracks for one rank: a view over the
    :class:`MachineState` columns plus the rank's own object state."""

    __slots__ = (
        "ms", "rank", "stats",
        "handles", "rslots", "pending", "parked", "anywait", "collective",
        "_next_handle",
    )

    def __init__(self, rank: int, ms: MachineState):
        self.ms = ms
        self.rank = rank
        self.stats = RankStatsView(ms, rank)
        #: Unified handle table: handle id -> outstanding request.
        self.handles: Dict[int, Handle] = {}
        #: Posted receives only, same insertion (= MPI post) order as
        #: ``handles``; the message-matching scan reads this directly.
        self.rslots: Dict[int, ReceiveSlot] = {}
        #: Unmatched eager arrivals addressed to this rank, in post order.
        self.pending: List[InFlight] = []
        #: Rendezvous senders parked *at this destination*, in post order.
        self.parked: List[ParkedSend] = []
        #: Handle ids of an in-progress waitany, or None.
        self.anywait: Optional[List[int]] = None
        #: Key of the macro collective this rank is parked in (engine
        #: gather key), or None; consulted by the wait-for graph so a
        #: deadlock report can say *which* collective never completed.
        self.collective: Optional[tuple] = None
        self._next_handle = 0

    # Column-backed scalars.  The engine's fused handlers index the
    # arrays directly; these properties serve every other layer.

    @property
    def clock(self) -> float:
        return self.ms.clock.item(self.rank)

    @clock.setter
    def clock(self, v: float) -> None:
        self.ms.clock[self.rank] = v

    @property
    def finished(self) -> bool:
        return self.ms.finished.item(self.rank)

    @finished.setter
    def finished(self, v: bool) -> None:
        self.ms.finished[self.rank] = v

    @property
    def failed(self) -> bool:
        return self.ms.failed.item(self.rank)

    @failed.setter
    def failed(self, v: bool) -> None:
        self.ms.failed[self.rank] = v

    @property
    def blocked(self) -> bool:
        """Rank is inside a blocking wait (recv/wait/waitany or a
        parked blocking rendezvous send)."""
        return self.ms.blocked.item(self.rank)

    @blocked.setter
    def blocked(self, v: bool) -> None:
        self.ms.blocked[self.rank] = v

    def new_handle_id(self) -> int:
        hid = self._next_handle
        self._next_handle = hid + 1
        return hid

    def add_handle(self, handle: Handle) -> None:
        self.handles[handle.handle_id] = handle
        if type(handle) is ReceiveSlot:
            self.rslots[handle.handle_id] = handle

    def require_handle(self, handle_id: int) -> Handle:
        try:
            return self.handles[handle_id]
        except KeyError:
            raise CommunicationError(
                f"rank {self.rank} waits on unknown or already-completed "
                f"request handle {handle_id}"
            ) from None

    def pop_handle(self, handle_id: int) -> Handle:
        self.rslots.pop(handle_id, None)
        return self.handles.pop(handle_id)

    def receive_slots(self) -> Iterable[ReceiveSlot]:
        """Posted receives in post order (dict insertion order)."""
        return self.rslots.values()

    def fail(self, time: float) -> None:
        """Node death: freeze the clock, drop all outstanding requests."""
        ms = self.ms
        r = self.rank
        ms.failed[r] = True
        ms.finished[r] = True
        ms.blocked[r] = False
        ms.finish_time[r] = time
        if time > ms.clock.item(r):
            ms.clock[r] = time
        self.handles.clear()
        self.rslots.clear()
        # A dead rank posts no further receives, so eager messages
        # already queued here can never match; drop them so no later
        # matching scan (or memory) ever sees a dead rank's inbox.
        self.pending.clear()
        # ``parked`` is deliberately NOT cleared: the entries left after
        # ``_fail_rank`` strips the dead rank's own sends belong to
        # still-*live* senders blocked in rendezvous sends to this rank.
        # They can never transfer (no receive will be posted), but the
        # wait-for graph walks every destination's parked queue to
        # explain the resulting deadlock -- clearing them here would
        # turn "rank 3 blocked on rendezvous send to dead rank 1" into
        # an unexplained hang.
        self.anywait = None
        self.collective = None

    def __repr__(self) -> str:
        return (
            f"RankState(rank={self.rank}, clock={self.clock}, "
            f"finished={self.finished}, failed={self.failed}, "
            f"blocked={self.blocked}, handles={len(self.handles)})"
        )
