"""Discrete-event engine executing rank programs on a machine model.

A *rank program* is a generator function ``program(comm, *args)`` that
yields primitive requests (:mod:`repro.simmpi.requests`).  The engine
runs one generator per rank, keeps a virtual clock per rank, and
interprets requests against the machine's cost model:

* ``ComputeReq`` advances the rank's clock by the modelled compute time.
* ``SendReq`` charges the sender the link startup latency (the CPU is
  busy in the message layer), then places the message in flight; it
  becomes available at the destination after the delivery model's
  routed delay.  Small sends are eager/buffered and never block; sends
  above the eager threshold use the rendezvous protocol and block until
  the matching receive is posted.
* ``IsendReq`` is the non-blocking send: eager isends complete at post;
  rendezvous isends park only the *transfer* while the sender keeps
  running, and synchronise through their handle.
* ``RecvReq`` blocks the rank until a matching message's arrival time.
* ``IrecvReq``/``WaitReq``/``WaitanyReq`` split receives (and isends)
  into post and completion, allowing communication/computation overlap
  exactly as MPI's ``MPI_Irecv``/``MPI_Wait``/``MPI_Waitany`` do.

Receive matching follows MPI: posted receives match in post order; per
source-destination pair, delivery is FIFO (wormhole channels do not
reorder), enforced by clamping arrival times to be monotone per pair.
``ANY_SOURCE`` receives resolve deterministically in message post
order, a legal refinement of MPI's nondeterminism.

The engine itself is a thin event loop over three swappable layers:

* :class:`~repro.simmpi.state.RankState` -- per-rank clocks, queues,
  and the unified request-handle table;
* :class:`~repro.simmpi.protocol.Protocol` -- eager and rendezvous
  matching strategies, selected per message by size;
* :class:`~repro.simmpi.delivery.DeliveryModel` -- wire-time charging;
  ``"alphabeta"`` charges messages independently, ``"contention"``
  serialises transfers on shared-link occupancy along
  ``topology.route()`` paths.

Numerics are real: payloads are actual NumPy arrays and the algorithms
running on the engine produce bit-identical results to their serial
references -- virtual time is accounted on the side.

**Run-until-block fast path.**  Most requests resume the same rank at
its current virtual time (a compute burst, an eager send, an irecv
post), so round-tripping each one through the global event heap is
pure overhead.  When a handler's only scheduling action is to resume
the *active* rank, the event is buffered instead of pushed, and the
inner loop keeps driving that rank's generator directly -- but only
while the buffered event would also have been the next heap pop
(strictly earlier than the heap head; on a tie the heap entry's older
sequence number wins, exactly as before).  Events that wake another
rank, and any event that loses that race, go through the heap
unchanged, so the processed event order -- and therefore makespans,
statistics, and traced spans -- is the one a heap-only loop produces
(``tests/simmpi/test_engine_golden.py`` pins those outputs).
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

import numpy as np
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.machine.machine import Machine
from repro.simmpi.comm import CommTable
from repro.simmpi.delivery import AlphaBetaDelivery, DeliveryModel, resolve_delivery
from repro.simmpi.protocol import EagerProtocol, Protocol, RendezvousProtocol
from repro.simmpi.macro import evaluate as _macro_evaluate
from repro.simmpi.macro import plan as _macro_plan
from repro.simmpi.requests import (
    MACRO_FALLBACK,
    CollectiveReq,
    ComputeReq,
    InFlight,
    IrecvReq,
    IsendReq,
    Message,
    RecvReq,
    SendReq,
    WaitanyReq,
    WaitReq,
    copy_payload,
    payload_nbytes,
)
from repro.simmpi.state import (
    MachineState,
    RankState,
    ReceiveSlot,
    SendHandle,
)
from repro.simmpi.trace import (
    COMPUTE,
    IDLE,
    RECV_WAIT,
    SEND_WAIT,
    MessageRecord,
    RankStats,
    Tracer,
)
from repro.simmpi.waitgraph import WaitForGraph, build_wait_graph
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    SimulationError,
)
from repro.util.rng import RankStreams


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    #: Per-rank generator return values.
    returns: List[Any]
    #: Virtual makespan: the latest rank finish time, seconds.
    time: float
    #: Per-rank accounting.  Event-path runs hold a real list; a lazy
    #: closed-form run holds a column-backed
    #: :class:`~repro.simmpi.state.LazyRankStats` (same len/index/``==``
    #: behaviour, rows built on access).
    stats: Sequence[RankStats]
    #: Message log (populated only when tracing was enabled).
    tracer: Tracer = field(default_factory=Tracer)
    #: Ranks killed by fault injection (empty in normal runs).
    failed_ranks: List[int] = field(default_factory=list)
    #: Requests processed by the engine (the denominator of events/sec
    #: in the throughput benchmarks).
    events: int = 0
    #: Macro-op invocations that fell back to the per-message event
    #: path (probe found queued/parked member traffic, or the analytic
    #: evaluator bailed).  Certified runs assert this stays zero.
    macro_fallbacks: int = 0
    #: Wall-clock seconds of machine bring-up: everything ``run()`` did
    #: before the first event (certificate validation, stream/comm
    #: tables, columnar state).  Per-rank Comm/rng/generator frames are
    #: built later, on each rank's first resume.
    setup_wall_s: float = 0.0
    #: Wall-clock seconds inside the event loop (or the closed-form
    #: replay) plus result finalization.
    execute_wall_s: float = 0.0
    #: Ranks whose Comm/generator frame was actually constructed.  An
    #: event-path run materializes every rank it resumes; a closed-form
    #: run materializes only rank 0.
    ranks_materialized: int = 0

    @property
    def n_ranks(self) -> int:
        return len(self.stats)

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_bytes(self) -> float:
        return sum(s.bytes_sent for s in self.stats)

    @property
    def total_compute_time(self) -> float:
        return sum(s.compute_time for s in self.stats)

    @property
    def total_comm_time(self) -> float:
        return sum(s.comm_time for s in self.stats)

    def parallel_efficiency(self, serial_time: float) -> float:
        """Speedup over ``serial_time`` divided by rank count."""
        if self.time <= 0:
            return 1.0
        return (serial_time / self.time) / self.n_ranks


class Engine:
    """Runs rank programs over a :class:`~repro.machine.machine.Machine`.

    Parameters
    ----------
    machine:
        Cost model supplier.  Ranks map one-to-one onto machine nodes.
    n_ranks:
        Number of ranks; defaults to every node of the machine.
    rank_map:
        Optional rank -> node placement (default identity).  Placement
        changes hop counts, hence communication time.
    seed:
        Master seed; each rank receives an independent child stream.
    trace:
        Record every message (memory-bounded) for analysis.
    max_events:
        Safety valve: abort with :class:`SimulationError` after this
        many processed requests (default 50 million).
    fail_at:
        Fault injection: rank -> virtual time at which that node dies.
        A dead rank stops executing; its in-flight messages still
        deliver (they were on the wire), but nothing further is sent.
        Survivors blocked on it surface as a :class:`DeadlockError`
        naming the failure; survivors that never needed it complete
        normally and the failure is reported in
        :attr:`SimResult.failed_ranks`.
    eager_threshold_bytes:
        Messages up to this size use the eager/buffered protocol
        (default: everything).  Larger sends use **rendezvous**: the
        sender blocks until the receiver posts a matching receive, then
        the transfer starts.  This reproduces real MPI semantics --
        including the classic symmetric-blocking-send deadlock -- and
        enables the eager-vs-rendezvous ablation.
    delivery:
        Wire-time model: ``"alphabeta"`` (independent per-message
        charging, the default), ``"contention"`` (transfers serialise
        on shared-link occupancy along routed paths), or any
        :class:`~repro.simmpi.delivery.DeliveryModel` instance.  Each
        ``run()`` binds a fresh per-run model (via
        :meth:`DeliveryModel.fresh`) so interleaved runs on one engine
        never share contention state.
    macro_ops:
        Evaluate eligible collectives as single engine-level macro
        events using the closed-form schedules in
        :mod:`repro.simmpi.macro` instead of replaying their
        per-message event cascades (default on).  Purely an execution
        shortcut: makespans, per-rank stats, and return values are
        bit-identical (asserted in the macro equivalence suites); only
        :attr:`SimResult.events` shrinks.
        Automatically disabled for the whole run when tracing is on,
        the delivery model is not the plain alpha-beta one (e.g.
        contention), or fault injection is armed -- in those cases
        per-message semantics are observable.  Individual invocations
        additionally fall back to the event path whenever analytic
        exactness cannot be guaranteed (members with queued or parked
        traffic, rendezvous messages inside cyclic patterns,
        unsupported algorithms).  Declared stencil phases
        (:meth:`~repro.simmpi.comm.Comm.exchange`) follow the same
        discipline via :mod:`repro.simmpi.stencil`.
    certificate:
        A :class:`~repro.analyze.certify.MacroCertificate` for the
        program this engine will run.  The certificate's static proof
        (no point-to-point traffic, every collective macro-eligible)
        lets ``run()`` skip the per-member soundness probe on every
        macro invocation.  Validated against the program's source hash
        and the rank count at ``run()`` time: a stale or mismatched
        certificate raises :class:`ConfigurationError` rather than
        being silently trusted.  Ignored when macro-ops are disabled
        for the run (tracing, contention, faults) -- the event path
        needs no probe.
    closed_form:
        Run the whole program as a closed-form *ghost replay* (default
        off): only rank 0's generator is driven, compute requests
        charge every rank's clock in one vectorized operation, and each
        world collective or declared stencil exchange is priced by the
        macro evaluator from synthesized per-rank requests.  Requires a
        validated ``certificate`` and macro-ops effectively enabled
        (untraced, alpha-beta delivery, no faults);
        the program must be rank-symmetric -- every rank yields the
        same request sequence with payloads of identical wire size (the
        certificate's static proof covers the no-p2p part, and payload
        synthesis from rank 0 makes virtual time exact whenever sizes
        are uniform).  Point-to-point requests, group collectives, and
        analytic-evaluation bailouts raise :class:`SimulationError`
        instead of silently degrading.  ``returns`` carries rank 0's
        value only; most ranks never materialize at all, which is what
        makes 10^6-rank machines affordable.
    """

    def __init__(
        self,
        machine: Machine,
        n_ranks: Optional[int] = None,
        *,
        rank_map: Optional[Sequence[int]] = None,
        seed: int = 0,
        trace: bool = False,
        max_events: int = 50_000_000,
        fail_at: Optional[Dict[int, float]] = None,
        eager_threshold_bytes: float = float("inf"),
        delivery: Union[str, DeliveryModel] = "alphabeta",
        macro_ops: bool = True,
        certificate: Optional[Any] = None,
        closed_form: bool = False,
    ):
        self.machine = machine
        self.n_ranks = machine.n_nodes if n_ranks is None else n_ranks
        if not 1 <= self.n_ranks <= machine.n_nodes:
            raise ConfigurationError(
                f"n_ranks {self.n_ranks} not in [1, {machine.n_nodes}]"
            )
        if rank_map is None:
            self.rank_map = list(range(self.n_ranks))
        else:
            self.rank_map = list(rank_map)
            if len(self.rank_map) != self.n_ranks:
                raise ConfigurationError(
                    f"rank_map has {len(self.rank_map)} entries for {self.n_ranks} ranks"
                )
            if len(set(self.rank_map)) != self.n_ranks:
                raise ConfigurationError("rank_map must place each rank on a distinct node")
            for node in self.rank_map:
                machine.topology.check_node(node)
        self.seed = seed
        self.trace = trace
        self.max_events = max_events
        if eager_threshold_bytes < 0:
            raise ConfigurationError(
                f"eager threshold must be >= 0, got {eager_threshold_bytes}"
            )
        self.eager_threshold_bytes = eager_threshold_bytes
        self.delivery = resolve_delivery(delivery)
        self.macro_ops = macro_ops
        self.certificate = certificate
        self.closed_form = closed_form
        if closed_form:
            if certificate is None:
                raise ConfigurationError(
                    "closed_form runs require a MacroCertificate "
                    "(certify_macro() the program first)"
                )
            if trace or fail_at or not macro_ops:
                raise ConfigurationError(
                    "closed_form runs require macro-ops: no tracing, no "
                    "fault injection, macro_ops=True"
                )
        self.fail_at = dict(fail_at) if fail_at else {}
        for rank, when in self.fail_at.items():
            if not 0 <= rank < self.n_ranks:
                raise ConfigurationError(
                    f"fail_at rank {rank} outside [0, {self.n_ranks})"
                )
            if when < 0:
                raise ConfigurationError(
                    f"fail_at time must be >= 0, got {when} for rank {rank}"
                )

    def run(self, program: Callable, *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``program(comm, *args, **kwargs)`` on every rank.

        Returns a :class:`SimResult`; rank return values appear in
        ``result.returns`` in rank order.
        """
        return _Run(self).execute(program, args, kwargs)


#: Fault-injection sentinel circulated through the event heap.
_FAIL = object()


class _Run:
    """One execution: the event loop plus the context protocols and
    delivery models operate through."""

    __slots__ = (
        "engine", "machine", "tracer", "delivery", "eager", "rendezvous",
        "protocols", "ranks", "_n", "_eager_max", "_last_arrival",
        "_last_hi", "_overhead", "_plans", "_plan_pairs", "seq", "_heap",
        "_active", "_fast",
        "comms", "_ab_hops", "_ab", "_tracing", "_flops_denom",
        "_macro_enabled", "_macro_pending", "_world_members",
        "_cert_pure", "_cert_uniform", "_fallbacks",
        "ms", "_clk", "_blk", "_fin", "_fld",
        "_cpu_t", "_comm_t", "_idle_t", "_fin_t",
        "_sent_n", "_sent_b", "_recv_n", "_recv_b",
        "streams", "resumes", "_program", "_args", "_kwargs",
    )

    def __init__(self, engine: Engine):
        self.engine = engine
        self.machine = engine.machine
        self.tracer = Tracer(enabled=engine.trace)
        # Cached copies of per-run constants the hot handlers consult
        # on every event (tracer.enabled never changes mid-run; the
        # machine is homogeneous, so the default flops rate is fixed).
        self._tracing = engine.trace
        node = engine.machine.node
        self._flops_denom = node.peak_flops * node.sustained_fraction
        # A fresh (or self-declared reentrant) model per run: two
        # interleaved run() calls on one Engine must not share link
        # occupancy or memo state.
        self.delivery = engine.delivery.fresh()
        self.delivery.bind(self.machine, engine.rank_map)
        # Exact-type check so the inlined send path only specialises the
        # stock alpha-beta model; subclasses with overridden arrival()
        # take the generic virtual call.
        self._ab = self.delivery if type(self.delivery) is AlphaBetaDelivery else None
        self.eager: Protocol = EagerProtocol()
        self.rendezvous: Protocol = RendezvousProtocol()
        #: Receive-post matching order: eager queue first, then parked
        #: rendezvous senders (the seed engine's semantics).
        self.protocols = (self.eager, self.rendezvous)
        # Columnar hot state: one MachineState holds every rank's
        # clock, lifecycle flags, and stats accumulators as parallel
        # numpy arrays; the RankState objects are thin views over it.
        # The fused handlers below bind the columns once and index them
        # through memoryviews -- same storage the views and the
        # vectorized routes see, but scalar get/set on a memoryview is
        # ~2.5x faster than ndarray indexing, and reads hand back plain
        # Python numbers (no numpy scalars leak into heap tuples).
        # Array-at-a-time operations keep using the ms.* ndarrays.
        ms = MachineState(engine.n_ranks)
        self.ms = ms
        self._clk = memoryview(ms.clock)
        self._blk = memoryview(ms.blocked)
        self._fin = memoryview(ms.finished)
        self._fld = memoryview(ms.failed)
        self._cpu_t = memoryview(ms.compute_time)
        self._comm_t = memoryview(ms.comm_time)
        self._idle_t = memoryview(ms.idle_time)
        self._fin_t = memoryview(ms.finish_time)
        self._sent_n = memoryview(ms.messages_sent)
        self._sent_b = memoryview(ms.bytes_sent)
        self._recv_n = memoryview(ms.messages_received)
        self._recv_b = memoryview(ms.bytes_received)
        # Per-rank object state materializes lazily (a rank's slot stays
        # None until the rank is first resumed or targeted); the columns
        # above exist for all ranks from the start, so whole-machine
        # operations never care.
        self.ranks: List[Optional[RankState]] = [None] * engine.n_ranks
        #: Lazily-built generator frames, parallel to ``ranks``.
        self.resumes: List[Optional[Callable]] = [None] * engine.n_ranks
        #: Interned pair keys: src * n_ranks + dst (no tuple per lookup).
        self._n = engine.n_ranks
        self._eager_max = engine.eager_threshold_bytes
        # FIFO clamp: latest arrival so far per interned (src, dst) key,
        # and a monotone upper bound on its values, raised at every
        # write (the macro evaluator's "can a clamp fire?" test).
        self._last_arrival: Dict[int, float] = {}
        self._last_hi = float("-inf")
        # Sender-side injection overhead per pair key (the model's
        # overhead() takes no time argument, so it is stationary per
        # pair within a run and safe to memoise).
        self._overhead: Dict[int, float] = {}
        self.seq = 0  # global tiebreaker / message post order
        self._heap: List[tuple] = []  # (time, seq, rank, resume_value)
        # Run-until-block state: the rank whose generator the event
        # loop is currently driving, and the buffered resume event for
        # it (None, or the (time, seq, rank, value) tuple schedule()
        # held back from the heap).
        self._active = -1
        self._fast: Optional[tuple] = None
        #: Rank-side communicator table (set in execute); materializes a
        #: Comm per rank on demand and is consulted for the active phase
        #: label when recording spans.
        self.comms: Optional[CommTable] = None
        #: RankStreams view of the seed's spawn children (set in execute).
        self.streams: Optional[RankStreams] = None
        self._program: Optional[Callable] = None
        self._args: tuple = ()
        self._kwargs: dict = {}
        # Hop-count memo for the uncontended alpha-beta reference used
        # to split wire time from contention stall (tracing only).
        self._ab_hops: Dict[int, int] = {}
        # Collective macro-ops: run-level eligibility (tracing, a
        # non-stock delivery model, or armed faults make per-message
        # semantics observable, so the whole run stays on the event
        # path), plus the gather table of partially arrived
        # invocations keyed by (members, seq, kind, algorithm, root).
        self._macro_enabled = (
            engine.macro_ops
            and not engine.trace
            and not engine.fail_at
            and self._ab is not None
        )
        self._macro_pending: Dict[tuple, list] = {}
        # Static macro plans by (members, kind, algorithm, root), and
        # the pair entries they hold (see repro.simmpi.macro.plan).
        self._plans: Dict[tuple, Any] = {}
        self._plan_pairs = 0
        # World member tuple, built on first use: O(p) to construct, so
        # bring-up does not pay for it (closed-form runs build it once,
        # pure point-to-point runs never do).
        self._world_members: Optional[tuple] = None
        # Macro-eligibility certificate state (armed in execute() once
        # the certificate is validated against the program): _cert_pure
        # skips the per-member probe in _run_macro, _cert_uniform lets
        # the stencil evaluator trust payload-size uniformity.
        self._cert_pure = False
        self._cert_uniform = False
        self._fallbacks = 0

    # -- tracing helpers ----------------------------------------------------

    def phase(self, rank: int) -> Optional[str]:
        """Current phase label of ``rank`` (tracing only)."""
        return self.comms[rank].current_phase()

    # -- lazy materialization -----------------------------------------------

    def rank_state(self, rank: int) -> RankState:
        """The rank's :class:`RankState`, built on first touch.

        Materialization allocates only the per-rank *object* state
        (handle table, queues); clocks and stats were always live in
        the columns, so building the view late can never change a
        number.
        """
        state = self.ranks[rank]
        if state is None:
            state = self.ranks[rank] = RankState(rank, self.ms)
        return state

    def world_members(self) -> tuple:
        """``(0, 1, ..., n_ranks-1)``, built on first use."""
        members = self._world_members
        if members is None:
            members = self._world_members = tuple(range(self._n))
        return members

    def _materialize_frame(self, rank: int) -> Callable:
        """Build rank ``rank``'s generator frame (and its Comm, through
        the table) and return the bound ``gen.send``."""
        gen = self._program(self.comms[rank], *self._args, **self._kwargs)
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(
                "rank program must be a generator function "
                "(write communication as 'yield from comm....')"
            )
        resume = self.resumes[rank] = gen.send
        return resume

    def alphabeta_arrival(
        self, src_rank: int, dst_rank: int, nbytes: float, start: float
    ) -> float:
        """Uncontended alpha-beta arrival time: the lower bound any
        delivery model degenerates to on an idle network.  Used when
        tracing to classify wire-time excess as contention stall."""
        key = src_rank * self._n + dst_rank
        hops = self._ab_hops.get(key)
        if hops is None:
            hops = self.machine.topology.hops(
                self.engine.rank_map[src_rank], self.engine.rank_map[dst_rank]
            )
            self._ab_hops[key] = hops
        return start + self.machine.link.message_time(nbytes, hops)

    # -- context interface used by protocols -------------------------------

    def arrival(self, src_rank: int, dst_rank: int, nbytes: float, start: float) -> float:
        """Delivery-model arrival with the per-pair FIFO clamp applied."""
        arrival = self.delivery.arrival(src_rank, dst_rank, nbytes, start)
        key = src_rank * self._n + dst_rank
        last = self._last_arrival
        prev = last.get(key)
        if prev is not None and prev > arrival:
            arrival = prev
        last[key] = arrival
        if arrival > self._last_hi:
            self._last_hi = arrival
        return arrival

    def overhead(self, src_rank: int, dst_rank: int) -> float:
        """Memoised sender-side injection cost for one pair."""
        key = src_rank * self._n + dst_rank
        memo = self._overhead
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = self.delivery.overhead(src_rank, dst_rank)
        return cost

    def schedule(self, time: float, rank: int, value: Any) -> None:
        """Queue a resume event.  A resume of the *active* rank is
        buffered for the run-until-block inner loop instead of pushed;
        the loop pushes it after all if an older heap event must run
        first (see ``execute``).  Sequence numbers are assigned
        identically either way, so event order never changes."""
        self.seq += 1
        if rank == self._active and self._fast is None:
            self._fast = (time, self.seq, rank, value)
        else:
            heapq.heappush(self._heap, (time, self.seq, rank, value))

    def post_message(self, msg: InFlight) -> None:
        """Bind an in-flight message to the earliest matching posted
        receive, or queue it."""
        dst = self.ranks[msg.dest]
        if dst is None:  # first touch of a not-yet-resumed receiver
            dst = self.ranks[msg.dest] = RankState(msg.dest, self.ms)
        if dst.rslots:
            source = msg.source
            tag = msg.tag
            for slot in dst.rslots.values():
                if slot.msg is None:
                    s = slot.source
                    if s == -1 or s == source:
                        t = slot.tag
                        if t == -1 or t == tag:
                            slot.msg = msg
                            if slot.waiting:
                                self.complete_receive(dst, slot)
                            return
        dst.pending.append(msg)

    def complete_receive(self, state: RankState, slot: ReceiveSlot) -> None:
        """The blocked rank's slot got its message: deliver."""
        if state.anywait is not None:
            self._complete_anywait(state, slot.handle_id)
            return
        msg = slot.msg
        blocked_since = slot.blocked_since
        arrival = msg.arrival_time
        completion = arrival if arrival > blocked_since else blocked_since
        # Inlined _deliver (one call per received message): account
        # straight into the state columns, trace when enabled, drop the
        # handle.
        rank = state.rank
        comm_t = self._comm_t
        comm_t[rank] = comm_t[rank] + (completion - blocked_since)
        recv_n = self._recv_n
        recv_n[rank] = recv_n[rank] + 1
        recv_b = self._recv_b
        recv_b[rank] = recv_b[rank] + msg.nbytes
        if self._tracing:
            self._trace_delivery(state, slot, completion)
        hid = slot.handle_id
        state.rslots.pop(hid, None)
        state.handles.pop(hid)
        self._clk[rank] = completion
        self._blk[rank] = False
        value = Message(msg.payload, msg.source, msg.tag, arrival)
        seq = self.seq + 1
        self.seq = seq
        if rank == self._active and self._fast is None:
            self._fast = (completion, seq, rank, value)
        else:
            heapq.heappush(self._heap, (completion, seq, rank, value))

    def complete_send(self, state: RankState, handle: SendHandle) -> None:
        """A waited-on isend handle finished (eager: instantly;
        rendezvous: at its handshake)."""
        if state.anywait is not None:
            self._complete_anywait(state, handle.handle_id)
            return
        completion = max(handle.blocked_since, handle.complete_at)
        rank = state.rank
        comm_t = self._comm_t
        comm_t[rank] = comm_t[rank] + (completion - handle.blocked_since)
        if self.tracer.enabled and completion > handle.blocked_since:
            # The handshake cause is binding only when the remote event
            # (not our own blocking point) determined the completion.
            cause = handle.hs_cause if handle.complete_at > handle.blocked_since else None
            self.tracer.span(
                state.rank,
                SEND_WAIT,
                handle.blocked_since,
                completion,
                name=self.phase(state.rank),
                peer=handle.dest,
                tag=handle.tag,
                nbytes=handle.nbytes,
                cause=cause,
            )
        self._clk[rank] = completion
        self._blk[rank] = False
        state.pop_handle(handle.handle_id)
        self.schedule(completion, rank, None)

    # -- completion helpers -------------------------------------------------

    def _deliver(self, state: RankState, slot: ReceiveSlot, completion: float) -> None:
        """Account and trace one delivered message; drops the handle."""
        msg = slot.msg
        rank = state.rank
        comm_t = self._comm_t
        comm_t[rank] = comm_t[rank] + (completion - slot.blocked_since)
        recv_n = self._recv_n
        recv_n[rank] = recv_n[rank] + 1
        recv_b = self._recv_b
        recv_b[rank] = recv_b[rank] + msg.nbytes
        if self.tracer.enabled:
            self._trace_delivery(state, slot, completion)
        state.pop_handle(slot.handle_id)

    def _trace_delivery(self, state: RankState, slot: ReceiveSlot, completion: float) -> None:
        """Record the recv-wait span and message record (tracing only)."""
        msg = slot.msg
        if completion > slot.blocked_since:
            # The wire edge is binding only when the arrival (not
            # our own blocking point) determined the completion.
            cause = msg.wire if msg.arrival_time > slot.blocked_since else None
            self.tracer.span(
                state.rank,
                RECV_WAIT,
                slot.blocked_since,
                completion,
                name=self.phase(state.rank),
                peer=msg.source,
                tag=msg.tag,
                nbytes=msg.nbytes,
                cause=cause,
            )
        self.tracer.record(
            MessageRecord(
                source=msg.source,
                dest=msg.dest,
                tag=msg.tag,
                nbytes=msg.nbytes,
                send_time=msg.send_time,
                arrival_time=msg.arrival_time,
                recv_time=completion,
            )
        )

    def _complete_anywait(self, state: RankState, handle_id: int) -> None:
        """One member of a waitany group became ready: finish the wait."""
        index = state.anywait.index(handle_id)
        handle = state.handles[handle_id]
        for hid in state.anywait:
            other = state.handles.get(hid)
            if other is not None:
                other.waiting = False
        state.anywait = None
        rank = state.rank
        self._blk[rank] = False
        if isinstance(handle, ReceiveSlot):
            msg = handle.msg
            completion = max(handle.blocked_since, msg.arrival_time)
            self._deliver(state, handle, completion)
            value = (index, Message(msg.payload, msg.source, msg.tag, msg.arrival_time))
        else:
            completion = max(handle.blocked_since, handle.complete_at)
            comm_t = self._comm_t
            comm_t[rank] = comm_t[rank] + (completion - handle.blocked_since)
            if self.tracer.enabled and completion > handle.blocked_since:
                cause = handle.hs_cause if handle.complete_at > handle.blocked_since else None
                self.tracer.span(
                    state.rank,
                    SEND_WAIT,
                    handle.blocked_since,
                    completion,
                    name=self.phase(state.rank),
                    peer=handle.dest,
                    tag=handle.tag,
                    nbytes=handle.nbytes,
                    cause=cause,
                )
            state.pop_handle(handle_id)
            value = (index, None)
        self._clk[rank] = completion
        self.schedule(completion, rank, value)

    # -- request handlers ----------------------------------------------------

    def _handle_compute(self, state: RankState, request: ComputeReq) -> None:
        if request.seconds is not None:
            dt = request.seconds
        elif request.efficiency is None:
            # flops / (peak * sustained), denominator precomputed: the
            # same expression compute_time evaluates, minus two calls.
            flops = request.flops
            if flops < 0:
                self.machine.compute_time(flops)  # raises the usual error
            dt = flops / self._flops_denom
        else:
            dt = self.machine.compute_time(request.flops, request.efficiency)
        rank = state.rank
        clk = self._clk
        t0 = clk[rank]
        clock = t0 + dt
        clk[rank] = clock
        cpu = self._cpu_t
        cpu[rank] = cpu[rank] + dt
        if self._tracing and dt > 0:
            self.tracer.span(rank, COMPUTE, t0, clock, name=self.phase(rank))
        seq = self.seq + 1
        self.seq = seq
        if rank == self._active and self._fast is None:
            self._fast = (clock, seq, rank, None)
        else:
            heapq.heappush(self._heap, (clock, seq, rank, None))

    def _handle_collective(self, state: RankState, request: CollectiveReq) -> None:
        """One member arrived at a macro collective: park it until the
        whole group is in, then evaluate the invocation analytically
        (or fall everyone back to the event path)."""
        key = (request.members, request.seq, request.kind,
               request.algorithm, request.root)
        pend = self._macro_pending
        entry = pend.get(key)
        if entry is None:
            size = request.size
            # [outstanding count, reqs by group rank, entry clocks]
            entry = pend[key] = [size, [None] * size, [0.0] * size]
        g = request.grank
        entry[0] -= 1
        entry[1][g] = request
        entry[2][g] = self._clk[state.rank]
        self._blk[state.rank] = True
        state.collective = key
        if entry[0] == 0:
            del pend[key]
            self._run_macro(key, entry[1], entry[2])

    def _run_macro(self, key: tuple, reqs: list, clocks: list) -> None:
        """All members of one collective invocation are parked: commit
        the closed-form schedule, or resume everyone with the fallback
        sentinel so the real message algorithm runs from these same
        entry clocks."""
        plan = _macro_plan(self, key[0], key[2], key[3], key[4])
        members = plan.members
        ranks = self.ranks
        # The plan carries the pair's entry in the closed-form table.
        sound = plan.form is not None
        if sound and not self._cert_pure:
            # A macro-eligibility certificate proves statically that no
            # member can hold queued or parked traffic here; without
            # one, probe every member at every invocation.
            for m in members:
                st = ranks[m]
                # Queued eager traffic, posted receive slots, or parked
                # rendezvous senders targeting a member could interact
                # with the collective's own messages; only the event
                # path reproduces that exactly.
                if st.rslots or st.pending or st.parked:
                    sound = False
                    break
        result = _macro_evaluate(self, plan, reqs, clocks) if sound else None
        # Vectorized whole-group unblock (on the ndarray; the memoryview
        # sees it); the loops below only rewire per-rank object state
        # and resume events.
        self.ms.blocked[plan.idx] = False
        schedule = self.schedule
        if result is None:
            self._fallbacks += 1
            clk = self._clk
            for m in members:
                ranks[m].collective = None
                schedule(clk[m], m, MACRO_FALLBACK)
            return
        finishes, values = result
        # evaluate() already committed clocks and stats; the resume
        # events land exactly at each member's new clock, so no idle
        # time is attributed.
        for i, m in enumerate(members):
            ranks[m].collective = None
            schedule(finishes[i], m, values[i])

    def _eager_send_fast(
        self, state: RankState, request, nbytes: float, handle: Optional[SendHandle]
    ) -> None:
        """Untraced eager send with the arrival/overhead memos, FIFO
        clamp and scheduling inlined: one call on the simulator's
        hottest path instead of six.  Float-identical to
        :meth:`EagerProtocol.send` with tracing off (same memo contents,
        same expression groupings, same sequence-number draws)."""
        src_rank = state.rank
        clk = self._clk
        now = clk[src_rank]
        dest = request.dest
        key = src_rank * self._n + dest
        ab = self._ab
        if ab is not None:
            fixed = ab._fixed.get(key)
            if fixed is None:
                arrival = ab.arrival(src_rank, dest, nbytes, now)
            else:
                arrival = now + (fixed + nbytes / ab._bw)
        else:
            arrival = self.delivery.arrival(src_rank, dest, nbytes, now)
        last = self._last_arrival
        prev = last.get(key)
        if prev is not None and prev > arrival:
            arrival = prev
        last[key] = arrival
        if arrival > self._last_hi:
            self._last_hi = arrival
        memo = self._overhead
        overhead = memo.get(key)
        if overhead is None:
            overhead = memo[key] = self.delivery.overhead(src_rank, dest)
        clear = now + overhead
        clk[src_rank] = clear
        comm_t = self._comm_t
        comm_t[src_rank] = comm_t[src_rank] + overhead
        sent_n = self._sent_n
        sent_n[src_rank] = sent_n[src_rank] + 1
        sent_b = self._sent_b
        sent_b[src_rank] = sent_b[src_rank] + nbytes
        payload = request.payload
        if type(payload) is np.ndarray:  # copy_payload's common case, inline
            payload = payload.copy()
        elif payload is not None:
            payload = copy_payload(payload)
        self.post_message(
            InFlight(
                dest,
                src_rank,
                request.tag,
                payload,
                nbytes,
                arrival,
                self.seq,
                now,
                None,
            )
        )
        if handle is not None:
            handle.complete_at = clear
            value = handle.handle_id
        else:
            value = None
        seq = self.seq + 1
        self.seq = seq
        if src_rank == self._active and self._fast is None:
            self._fast = (clear, seq, src_rank, value)
        else:
            heapq.heappush(self._heap, (clear, seq, src_rank, value))

    def _handle_send(self, state: RankState, request: SendReq) -> None:
        """Blocking send.  The untraced eager case -- the hottest code
        in the simulator -- is fully fused here: size measurement,
        arrival/overhead memos, FIFO clamp, receiver matching and (when
        the receiver is already blocked on a plain recv) the delivery
        itself, without materialising an :class:`InFlight` at all.
        Every step mirrors :meth:`EagerProtocol.send` +
        :meth:`post_message` + :meth:`complete_receive` exactly, so
        results are float- and event-order-identical."""
        dest = request.dest
        if not 0 <= dest < self._n:
            self._check_dest(state, dest)
        nbytes = request.nbytes
        if nbytes is None:
            payload = request.payload
            if type(payload) is np.ndarray:  # payload_nbytes, common case
                nbytes = payload.nbytes
            elif payload is None:
                nbytes = 0
            else:
                nbytes = payload_nbytes(payload)
        elif nbytes < 0:
            raise CommunicationError(
                f"rank {state.rank} sent negative nbytes {nbytes}"
            )
        if nbytes > self._eager_max:
            self.rendezvous.send(self, state, request, nbytes)
            return
        if self._tracing:
            self.eager.send(self, state, request, nbytes)
            return

        src_rank = state.rank
        clk = self._clk
        now = clk[src_rank]
        key = src_rank * self._n + dest
        ab = self._ab
        if ab is not None:
            fixed = ab._fixed.get(key)
            if fixed is None:
                arrival = ab.arrival(src_rank, dest, nbytes, now)
            else:
                arrival = now + (fixed + nbytes / ab._bw)
        else:
            arrival = self.delivery.arrival(src_rank, dest, nbytes, now)
        last = self._last_arrival
        prev = last.get(key)
        if prev is not None and prev > arrival:
            arrival = prev
        last[key] = arrival
        if arrival > self._last_hi:
            self._last_hi = arrival
        memo = self._overhead
        overhead = memo.get(key)
        if overhead is None:
            overhead = memo[key] = self.delivery.overhead(src_rank, dest)
        clear = now + overhead
        clk[src_rank] = clear
        comm_t = self._comm_t
        comm_t[src_rank] = comm_t[src_rank] + overhead
        sent_n = self._sent_n
        sent_n[src_rank] = sent_n[src_rank] + 1
        sent_b = self._sent_b
        sent_b[src_rank] = sent_b[src_rank] + nbytes
        payload = request.payload
        if type(payload) is np.ndarray:  # copy_payload's common case
            payload = payload.copy()
        elif payload is not None:
            payload = copy_payload(payload)
        tag = request.tag

        # post_message, fused.
        dst = self.ranks[dest]
        if dst is None:  # first touch of a not-yet-resumed receiver
            dst = self.ranks[dest] = RankState(dest, self.ms)
        matched = None
        if dst.rslots:
            for slot in dst.rslots.values():
                if slot.msg is None:
                    s = slot.source
                    if s == -1 or s == src_rank:
                        t = slot.tag
                        if t == -1 or t == tag:
                            matched = slot
                            break
        if matched is None:
            dst.pending.append(
                InFlight(
                    dest, src_rank, tag, payload, nbytes, arrival,
                    self.seq, now, None,
                )
            )
        elif matched.waiting and dst.anywait is None:
            # complete_receive, fused: the receiver is parked on a
            # plain recv/wait, so the message never needs an InFlight
            # shell -- deliver straight out of locals.
            blocked_since = matched.blocked_since
            completion = arrival if arrival > blocked_since else blocked_since
            comm_t[dest] = comm_t[dest] + (completion - blocked_since)
            recv_n = self._recv_n
            recv_n[dest] = recv_n[dest] + 1
            recv_b = self._recv_b
            recv_b[dest] = recv_b[dest] + nbytes
            hid = matched.handle_id
            dst.rslots.pop(hid, None)
            dst.handles.pop(hid)
            clk[dest] = completion
            self._blk[dest] = False
            seq = self.seq + 1
            self.seq = seq
            # The receiver is never the active rank here (the sender
            # is), so its wakeup always goes through the heap.
            heapq.heappush(
                self._heap,
                (completion, seq, dest, Message(payload, src_rank, tag, arrival)),
            )
        else:
            # irecv slot, or a waitany group: those paths want the full
            # message object (and anywait completion logic).
            matched.msg = InFlight(
                dest, src_rank, tag, payload, nbytes, arrival,
                self.seq, now, None,
            )
            if matched.waiting:
                self.complete_receive(dst, matched)

        seq = self.seq + 1
        self.seq = seq
        if src_rank == self._active and self._fast is None:
            self._fast = (clear, seq, src_rank, None)
        else:
            heapq.heappush(self._heap, (clear, seq, src_rank, None))

    def _handle_isend(self, state: RankState, request: IsendReq) -> None:
        dest = request.dest
        if not 0 <= dest < self._n:
            self._check_dest(state, dest)
        nbytes = request.nbytes
        if nbytes is None:
            nbytes = payload_nbytes(request.payload)
        elif nbytes < 0:
            raise CommunicationError(
                f"rank {state.rank} sent negative nbytes {nbytes}"
            )
        hid = state._next_handle
        state._next_handle = hid + 1
        handle = SendHandle(handle_id=hid, dest=dest, tag=request.tag, nbytes=nbytes)
        state.handles[hid] = handle
        if nbytes > self._eager_max:
            self.rendezvous.send(self, state, request, nbytes, handle)
        elif self._tracing:
            self.eager.send(self, state, request, nbytes, handle)
        else:
            self._eager_send_fast(state, request, nbytes, handle)

    def _handle_recv(self, state: RankState, request) -> None:
        source = request.source
        if source != -1 and not 0 <= source < self._n:
            raise CommunicationError(
                f"rank {state.rank} receives from invalid rank {source}"
            )
        now = self._clk[state.rank]
        # Post the receive: bind a queued eager message or wake a parked
        # rendezvous sender (nothing queued at this rank: nothing to
        # match).
        hid = state._next_handle
        state._next_handle = hid + 1
        slot = ReceiveSlot(hid, source, request.tag)
        if state.pending or state.parked:
            for protocol in self.protocols:
                if protocol.match_posted_receive(self, state, slot):
                    break
        state.handles[hid] = slot
        state.rslots[hid] = slot
        if request.__class__ is IrecvReq:
            # Posting is free; resume immediately with the handle.
            self.schedule(now, state.rank, hid)
        elif slot.msg is not None:
            slot.waiting = True
            slot.blocked_since = now
            self.complete_receive(state, slot)
        else:
            slot.waiting = True
            slot.blocked_since = now
            self._blk[state.rank] = True  # a future send wakes us

    def _handle_wait(self, state: RankState, request: WaitReq) -> None:
        handle = state.require_handle(request.handle)
        if handle.waiting:
            raise CommunicationError(
                f"rank {state.rank} waits twice on handle {request.handle}"
            )
        handle.waiting = True
        handle.blocked_since = self._clk[state.rank]
        if handle.ready:
            if isinstance(handle, ReceiveSlot):
                self.complete_receive(state, handle)
            else:
                self.complete_send(state, handle)
        else:
            self._blk[state.rank] = True

    def _handle_waitany(self, state: RankState, request: WaitanyReq) -> None:
        now = self._clk[state.rank]
        handles = [state.require_handle(hid) for hid in request.handles]
        for handle in handles:
            if handle.waiting:
                raise CommunicationError(
                    f"rank {state.rank} waits twice on handle {handle.handle_id} "
                    "(duplicate in waitany or concurrent wait)"
                )
            handle.waiting = True
            handle.blocked_since = now
        state.anywait = list(request.handles)
        ready = [
            (handle.completion_time(now), i)
            for i, handle in enumerate(handles)
            if handle.ready
        ]
        if ready:
            _, index = min(ready)
            self._complete_anywait(state, request.handles[index])
        else:
            self._blk[state.rank] = True

    def _check_dest(self, state: RankState, dest: int) -> None:
        if not 0 <= dest < len(self.ranks):
            raise CommunicationError(
                f"rank {state.rank} sent to invalid rank {dest} "
                f"(size {len(self.ranks)})"
            )

    # -- failure and deadlock -----------------------------------------------

    def _fail_rank(self, src: int, time: float) -> None:
        state = self.ranks[src]
        if state is None:
            # Killed before anything ever touched it: no queues exist
            # anywhere that could reference this rank (it never sent,
            # parked, or received), so record the death on the columns
            # alone and leave the slot unmaterialized.
            ms = self.ms
            ms.failed[src] = True
            ms.finished[src] = True
            ms.finish_time[src] = time
            if time > ms.clock.item(src):
                ms.clock[src] = time
            return
        state.fail(time)
        # A dead node's parked rendezvous sends never start.  Only
        # rebuild queues that actually hold a send from the dead rank;
        # on a 512-rank machine almost every parked queue is empty or
        # unrelated to the failure.
        for other in self.ranks:
            if other is None:
                continue  # never touched: nothing parked there
            parked = other.parked
            if parked and any(ps.source == src for ps in parked):
                other.parked = [ps for ps in parked if ps.source != src]
        # Drop the dead sender's FIFO-clamp entries the same way:
        # indexed by source, not by scanning every pair in the table.
        # (Nothing will ever query these again -- a dead rank sends no
        # further messages -- so this is purely memory hygiene.)  An
        # empty memo -- the usual startup-failure case on a large
        # machine -- skips the O(n) key sweep outright.
        last = self._last_arrival
        if last:
            base = src * self._n
            for key in range(base, base + self._n):
                last.pop(key, None)

    def _wait_graph(self, failed_ranks: List[int]) -> WaitForGraph:
        """The wait-for graph over the still-blocked ranks (see
        :mod:`repro.simmpi.waitgraph`)."""
        return build_wait_graph(self.ranks, failed_ranks)

    # -- main loop -----------------------------------------------------------

    def execute(self, program: Callable, args: tuple, kwargs: dict) -> SimResult:
        setup_t0 = perf_counter()
        engine = self.engine
        p = engine.n_ranks
        certificate = engine.certificate
        if certificate is not None:
            if not certificate.matches(program, p):
                raise ConfigurationError(
                    f"macro certificate for {certificate.program!r} "
                    f"(n_ranks={certificate.n_ranks}) does not match this "
                    f"run: program source or rank count changed since "
                    "certification -- re-run certify_macro()"
                )
            if self._macro_enabled:
                self._cert_pure = True
                self._cert_uniform = certificate.uniform_exchange
        # Bring-up is O(1) in the rank count: one lazy view of the
        # seed's spawn children and one lazy communicator table.  A
        # rank's RankState / Comm / rng / generator frame materializes
        # the first time that rank is touched (resumed, or targeted by a
        # message); materialization never reads or writes a clock or a
        # statistic, so when it happens cannot change a number.
        self.streams = RankStreams(engine.seed, p)
        table = CommTable(p, self.machine, self.streams)
        table.tracing = self.tracer.enabled
        table.macro = self._macro_enabled
        self.comms = table
        self._program = program
        self._args = args
        self._kwargs = kwargs
        if engine.closed_form:
            if not self._macro_enabled:
                raise ConfigurationError(
                    "closed_form run with macro-ops disabled: the "
                    "delivery model must be plain alpha-beta"
                )
            return self._execute_closed_form(setup_t0)
        resumes = self.resumes

        returns: List[Any] = [None] * p
        failed_ranks: List[int] = []

        # Every rank starts at t=0, as if p events (0.0, seq 1..p, rank,
        # None) were pushed here.  Those entries would sort before
        # anything else that can exist while they are pending (heap
        # seqs start past p and no event lands before t=0), so the main
        # loop below delivers them in rank order from a bare counter --
        # "virtual starts" -- without building p tuples.  Seqs 1..p are
        # reserved for them, so every later sequence number is the one
        # the pushed events would have left.
        self.seq = p
        for rank, when in engine.fail_at.items():
            self.schedule(when, rank, _FAIL)

        # Exact-type dispatch, bound per run so the inner loop calls
        # the handler without a second method lookup.
        handlers: Dict[type, Callable] = {
            ComputeReq: self._handle_compute,
            SendReq: self._handle_send,
            IsendReq: self._handle_isend,
            RecvReq: self._handle_recv,
            IrecvReq: self._handle_recv,
            WaitReq: self._handle_wait,
            WaitanyReq: self._handle_waitany,
            CollectiveReq: self._handle_collective,
        }
        handler_for = handlers.get
        # The three request types below cover essentially every event
        # of a typical run; exact-type pointer compares beat the dict
        # probe for them, and everything else falls through to it.
        handle_send = self._handle_send
        handle_recv = self._handle_recv
        handle_compute = self._handle_compute

        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        ranks = self.ranks
        tracer = self.tracer
        tracing = tracer.enabled
        max_events = engine.max_events
        # Bound column accessors: the loop reads lifecycle flags and
        # clocks per popped event through the memoryviews, which hand
        # back plain Python numbers (no numpy scalars leak into heap
        # tuples).
        clk = self._clk
        fin = self._fin
        fld = self._fld
        idle_t = self._idle_t
        fin_t = self._fin_t

        events = 0
        alive = p
        #: Virtual start events not yet delivered (see the seq note in
        #: the setup above); rank ``p - starts`` starts next.
        starts = p
        setup_wall = perf_counter() - setup_t0
        loop_t0 = perf_counter()
        # The loop allocates heavily (event tuples, in-flight messages,
        # resume values) but creates no reference cycles of its own, so
        # the cyclic collector's periodic scans are pure overhead --
        # pause it for the run and let the deferred collection happen
        # once at the end.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if starts:
                    # Pending virtual starts always beat the heap head
                    # (smaller seq at t=0.0): deliver in rank order.
                    rank = p - starts
                    starts -= 1
                    time = 0.0
                    value = None
                elif heap:
                    time, _, rank, value = heappop(heap)
                else:
                    break
                if fld[rank]:
                    continue  # events for a dead node are dropped
                if value is _FAIL:
                    if fin[rank]:
                        continue  # died after finishing: no effect
                    failed_ranks.append(rank)
                    self._fail_rank(rank, time)
                    alive -= 1
                    continue
                if fin[rank]:
                    raise SimulationError(f"finished rank {rank} rescheduled")
                state = ranks[rank]
                if state is None:  # lazy bring-up: first resume
                    state = ranks[rank] = RankState(rank, self.ms)

                # Run-until-block: drive this rank's generator directly
                # for as long as each handler's only scheduling action
                # resumes this same rank AND that resume is due strictly
                # before the heap head (on a tie the heap entry's older
                # seq wins, so it must go through the heap).  Cross-rank
                # wakeups always go through the heap; event order is
                # bit-identical to the one-event-per-heap-pop loop.
                resume = resumes[rank]
                if resume is None:  # lazy bring-up: first resume
                    resume = self._materialize_frame(rank)
                self._active = rank
                while True:
                    now = clk[rank]
                    if time > now:
                        # Unattributed gap: an event landed past the
                        # rank's clock.  Explicit so per-rank spans tile
                        # [0, finish] and compute + comm + idle == finish.
                        idle_t[rank] = idle_t[rank] + (time - now)
                        if tracing:
                            tracer.span(rank, IDLE, now, time)
                        clk[rank] = time

                    try:
                        request = resume(value)
                    except StopIteration as stop:
                        returns[rank] = stop.value
                        fin[rank] = True
                        fin_t[rank] = clk[rank]
                        alive -= 1
                        break

                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely an unbounded loop in a rank program"
                        )

                    cls = request.__class__
                    if cls is SendReq:
                        handle_send(state, request)
                    elif cls is RecvReq:
                        handle_recv(state, request)
                    elif cls is ComputeReq:
                        handle_compute(state, request)
                    else:
                        handler = handler_for(cls)
                        if handler is None:
                            raise CommunicationError(
                                f"rank {rank} yielded unsupported request {request!r}"
                            )
                        handler(state, request)

                    fast = self._fast
                    if fast is None:
                        break  # blocked, or resumed via the heap
                    self._fast = None
                    if starts or (heap and fast >= heap[0]):
                        # An older event wins -- earlier time, or the
                        # same time with a smaller sequence number (the
                        # tuples compare (time, seq) exactly as the heap
                        # would).  A pending virtual start always wins:
                        # it sorts as (0.0, seq <= p) and every buffered
                        # fast event carries a seq past p.
                        heappush(heap, fast)
                        break
                    time = fast[0]
                    value = fast[3]
                self._active = -1
        finally:
            if gc_was_enabled:
                gc.enable()

        if alive > 0:
            graph = self._wait_graph(failed_ranks)
            raise DeadlockError(
                f"{alive} rank(s) blocked with no matching sends: "
                f"{graph.describe()}",
                wait_for=graph.wait_for(),
                cycle=graph.find_cycle(),
                failed_ranks=sorted(failed_ranks),
            )

        # Finalization: stats and the makespan come straight off the
        # columns with whole-array operations.
        return SimResult(
            returns=returns,
            time=self.ms.makespan(),
            stats=self.ms.finalize_stats(),
            tracer=self.tracer,
            failed_ranks=sorted(failed_ranks),
            events=events,
            macro_fallbacks=self._fallbacks,
            setup_wall_s=setup_wall,
            execute_wall_s=perf_counter() - loop_t0,
            ranks_materialized=self.comms.materialized,
        )

    # -- closed-form ghost replay --------------------------------------------

    def _execute_closed_form(self, setup_t0: float) -> SimResult:
        """Drive rank 0's generator only; price every other rank through
        the columns and the macro evaluator ("ghost replay").

        The certificate proves the program is pure collective/compute
        (no point-to-point, every collective macro-eligible); the
        caller asserts the program is additionally *rank-symmetric* --
        every rank yields the same request sequence with payloads of
        identical wire size.  Under those conditions a compute burst is
        one vectorized column charge (the same IEEE additions the
        per-rank handler would make), and a collective's entry clocks
        are exactly the clocks the previous macro commit left in the
        columns, so makespans and per-rank stats are bit-identical to
        the event path (asserted in the A/B suite).  Received payloads
        are synthesized from rank 0's (sizes are what price the run),
        and only rank 0's return value is observable.  p-1 ranks never
        materialize a Comm, rng, RankState, or generator frame.
        """
        engine = self.engine
        p = engine.n_ranks
        ms = self.ms
        gen = self._program(self.comms[0], *self._args, **self._kwargs)
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(
                "rank program must be a generator function "
                "(write communication as 'yield from comm....')"
            )
        send = gen.send
        evaluate = _macro_evaluate
        max_events = engine.max_events
        events = 0
        value: Any = None
        r0: Any = None
        setup_wall = perf_counter() - setup_t0
        loop_t0 = perf_counter()
        while True:
            try:
                request = send(value)
            except StopIteration as stop:
                r0 = stop.value
                break
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely an unbounded loop in a rank program"
                )
            cls = request.__class__
            if cls is ComputeReq:
                if request.seconds is not None:
                    dt = request.seconds
                elif request.efficiency is None:
                    flops = request.flops
                    if flops < 0:
                        self.machine.compute_time(flops)  # raises
                    dt = flops / self._flops_denom
                else:
                    dt = self.machine.compute_time(
                        request.flops, request.efficiency
                    )
                ms.clock += dt
                ms.compute_time += dt
                value = None
            elif cls is CollectiveReq:
                if request.members is not None:
                    raise SimulationError(
                        "closed-form run yielded a group collective; only "
                        "world collectives are rank-symmetric -- run this "
                        "program without closed_form"
                    )
                # No evaluator reads the per-member request beyond its
                # op/value/algorithm fields, which are identical across
                # a symmetric invocation: one shared request prices all
                # p members without synthesizing p objects, and ghost
                # mode assembles only rank 0's observable result.
                plan = _macro_plan(
                    self, None, request.kind, request.algorithm, request.root
                )
                result = evaluate(self, plan, [request] * p, ms.clock, ghost=True)
                if result is None:
                    raise SimulationError(
                        f"collective {request.kind}/{request.algorithm} is "
                        "not analytically exact here (rendezvous inside a "
                        "cyclic pattern, or an unsupported schedule) -- run "
                        "without closed_form"
                    )
                value = result[1][0]
            else:
                raise SimulationError(
                    f"closed-form run yielded {request!r}; only compute and "
                    "world collectives are certifiable -- run without "
                    "closed_form"
                )
        ms.finished[:] = True
        np.copyto(ms.finish_time, ms.clock)
        returns: List[Any] = [None] * p
        returns[0] = r0
        return SimResult(
            returns=returns,
            time=ms.makespan(),
            # Column-backed lazy sequence: a 10^6-rank result should not
            # pay for a million RankStats objects nobody may read.
            stats=ms.lazy_stats(),
            tracer=self.tracer,
            events=events,
            macro_fallbacks=self._fallbacks,
            setup_wall_s=setup_wall,
            execute_wall_s=perf_counter() - loop_t0,
            ranks_materialized=self.comms.materialized,
        )


def run_program(
    machine: Machine,
    n_ranks: int,
    program: Callable,
    *args: Any,
    seed: int = 0,
    trace: bool = False,
    eager_threshold_bytes: float = float("inf"),
    delivery: Union[str, DeliveryModel] = "alphabeta",
    macro_ops: bool = True,
    certificate: Optional[Any] = None,
    **kwargs: Any,
) -> SimResult:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(
        machine,
        n_ranks,
        seed=seed,
        trace=trace,
        eager_threshold_bytes=eager_threshold_bytes,
        delivery=delivery,
        macro_ops=macro_ops,
        certificate=certificate,
    ).run(program, *args, **kwargs)
