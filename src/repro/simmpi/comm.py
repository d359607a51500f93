"""Rank-side communication facade.

Each rank program receives a :class:`Comm`.  Every operation is a
generator to be driven with ``yield from``::

    def program(comm):
        data = np.full(4, comm.rank, dtype=float)
        total = yield from comm.allreduce(data)
        yield from comm.compute(flops=1e6)
        if comm.rank == 0:
            yield from comm.send(total, dest=1, tag=7)
        elif comm.rank == 1:
            msg = yield from comm.recv(source=0, tag=7)
        return total.sum()

The facade is deliberately close to MPI's lowercase (pickle-object)
interface from mpi4py, which is what the ASTA software-tools effort the
paper describes eventually standardised into.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence, Union

import numpy as np

from repro.simmpi import collectives as _coll
from repro.simmpi import stencil as _stencil
from repro.simmpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_TAG_BASE,
    ComputeReq,
    IrecvReq,
    IsendReq,
    RecvReq,
    SendReq,
    WaitanyReq,
    WaitReq,
    validate_compute,
)
from repro.util.errors import CommunicationError


class _NullScope:
    """Shared no-op context manager: ``comm.phase`` when not tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _PhaseScope:
    """Pushes/pops one label on the comm's phase stack."""

    __slots__ = ("_comm", "_name")

    def __init__(self, comm: "Comm", name: str):
        self._comm = comm
        self._name = name

    def __enter__(self) -> None:
        self._comm._phases.append(self._name)

    def __exit__(self, *exc: Any) -> bool:
        self._comm._phases.pop()
        return False


class Comm:
    """Communicator bound to one rank of a simulated machine.

    The primitive operations reuse one *scratch request* per request
    type instead of allocating a fresh object per call: the engine
    always consumes a request's fields before the yielding generator
    resumes, so by the time the next operation refills the scratch the
    previous use is complete.  Request allocation was the single
    largest per-event cost in the engine's hot loop.
    """

    __slots__ = (
        "rank", "size", "machine", "_rng", "_streams", "_coll_seq", "_phases",
        "_tracing", "_macro", "_send_req", "_isend_req", "_recv_req",
        "_irecv_req", "_wait_req", "_compute_req",
    )

    def __init__(
        self,
        rank: int,
        size: int,
        machine,
        rng: Optional[np.random.Generator] = None,
        *,
        streams=None,
    ):
        self.rank = rank
        self.size = size
        self.machine = machine
        # Independent per-rank random stream: either given concretely, or
        # derived O(1) from a RankStreams source on first access (most
        # rank programs never touch comm.rng, so lazy bring-up skips the
        # PCG64 construction entirely).
        self._rng = rng
        self._streams = streams
        # Collective sequence number: gives every collective invocation
        # a distinct internal tag space so that back-to-back collectives
        # can never cross-match (sense reversal, generalised).
        self._coll_seq = 0
        # Phase-label stack consumed by span tracing (see phase()).
        # The engine flips _tracing on before the rank programs start;
        # untraced runs get the shared no-op scope.
        self._phases: list = []
        self._tracing = False
        # The engine flips _macro on when collectives may be evaluated
        # as engine-level macro events (untraced, plain alpha-beta
        # delivery, no fault injection); see repro.simmpi.macro.
        self._macro = False
        # Per-rank scratch requests (see class docstring).
        self._send_req = SendReq()
        self._isend_req = IsendReq()
        self._recv_req = RecvReq()
        self._irecv_req = IrecvReq()
        self._wait_req = WaitReq(0)
        self._compute_req = ComputeReq(seconds=0.0)

    # -- per-rank random stream ----------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """Independent per-rank random stream (derived on first access)."""
        rng = self._rng
        if rng is None:
            if self._streams is None:
                raise CommunicationError(
                    f"rank {self.rank} communicator has no random stream source"
                )
            rng = self._rng = self._streams[self.rank]
        return rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    # -- phase labelling ------------------------------------------------------

    def phase(self, name: str):
        """Label the enclosed operations for span tracing.

        Purely local bookkeeping -- no communication, and a shared no-op
        when the engine is not tracing.  Nests: the effective label is
        the ``/``-joined stack (``"panel/bcast"``), and the collective
        library pushes its own labels, so a user phase around a
        broadcast shows up as ``myphase/bcast``::

            with comm.phase("halo"):
                yield from comm.send(ghost, up, tag=0)
        """
        if not self._tracing:
            return _NULL_SCOPE
        return _PhaseScope(self, name)

    def current_phase(self) -> Optional[str]:
        """The effective phase label right now (None outside phases)."""
        if not self._phases:
            return None
        return "/".join(self._phases)

    # -- identity helpers ---------------------------------------------------

    def is_root(self, root: int = 0) -> bool:
        """True on the designated root rank."""
        return self.rank == root

    def next_tag_block(self) -> int:
        """Reserve a fresh block of internal tags for one collective.

        All ranks execute the same sequence of collectives on a given
        communicator (an MPI correctness requirement), so the per-rank
        counters stay aligned and every rank derives the same block.
        """
        self._coll_seq += 1
        return COLLECTIVE_TAG_BASE - self._coll_seq * _coll._TAG_STRIDE

    def group(self, members: Sequence[int]) -> "GroupComm":
        """A sub-communicator over ``members`` (global ranks).

        Purely local construction: every member must compute the same
        ``members`` list deterministically (e.g. the rows of a process
        grid).  The calling rank must be a member.
        """
        from repro.simmpi.group import GroupComm

        return GroupComm(self, members)

    # -- collective-internal scratch access -----------------------------------
    #
    # The collective library yields these pre-filled scratch requests
    # *directly* instead of delegating through send()/recv() generators:
    # one less generator frame per resume, and no result translation
    # when only the payload is consumed.  Coordinates are already wire
    # coordinates (the GroupComm overrides translate), and nbytes is
    # reset because the scratch may hold a stale user override.

    def _fill_send(self, payload: Any, dest: int, tag: int) -> SendReq:
        req = self._send_req
        req.dest = dest
        req.payload = payload
        req.tag = tag
        req.nbytes = None
        return req

    def _fill_isend(self, payload: Any, dest: int, tag: int) -> IsendReq:
        req = self._isend_req
        req.dest = dest
        req.payload = payload
        req.tag = tag
        req.nbytes = None
        return req

    def _fill_recv(self, source: int, tag: int) -> RecvReq:
        req = self._recv_req
        req.source = source
        req.tag = tag
        return req

    def _fill_wait(self, handle: int) -> WaitReq:
        req = self._wait_req
        req.handle = handle
        return req

    def _fill_compute(self, flops: float) -> ComputeReq:
        """Scratch flops-charge for internal hot loops; callers own the
        validation :meth:`compute` would do (``flops >= 0``)."""
        req = self._compute_req
        req.flops = flops
        req.seconds = None
        req.efficiency = None
        return req

    # -- primitive operations -------------------------------------------------

    def send(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[float] = None,
    ) -> Generator:
        """Eager buffered send; completes after the startup overhead."""
        if not 0 <= dest < self.size:
            raise CommunicationError(
                f"send dest {dest} out of range for size {self.size}"
            )
        req = self._send_req
        req.dest = dest
        req.payload = payload
        req.tag = tag
        req.nbytes = nbytes
        yield req
        req.payload = None  # do not pin the buffer past the send

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the :class:`Message`."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicationError(
                f"recv source {source} out of range for size {self.size}"
            )
        req = self._recv_req
        req.source = source
        req.tag = tag
        msg = yield req
        return msg

    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[float] = None,
    ) -> Generator:
        """Non-blocking send: returns a handle for :meth:`wait`.

        An eager isend costs the same as :meth:`send` (the CPU still
        injects the message) and its handle is immediately complete.
        The benefit appears above the rendezvous threshold: where a
        blocking send stalls until the receiver posts, an isend returns
        at once and only the :meth:`wait` synchronises with the
        handshake, so independent work overlaps the wait::

            h = yield from comm.isend(big_block, dest=right)
            yield from comm.compute(flops=...)      # overlap
            yield from comm.wait(h)
        """
        if not 0 <= dest < self.size:
            raise CommunicationError(
                f"isend dest {dest} out of range for size {self.size}"
            )
        req = self._isend_req
        req.dest = dest
        req.payload = payload
        req.tag = tag
        req.nbytes = nbytes
        handle = yield req
        req.payload = None  # do not pin the buffer past the post
        return handle

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Non-blocking receive: returns a handle for :meth:`wait`.

        Posting is free; the message (if already queued) is bound to the
        handle immediately, enabling communication/computation overlap::

            handle = yield from comm.irecv(source=left)
            yield from comm.compute(flops=...)      # overlap
            msg = yield from comm.wait(handle)
        """
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicationError(
                f"irecv source {source} out of range for size {self.size}"
            )
        req = self._irecv_req
        req.source = source
        req.tag = tag
        handle = yield req
        return handle

    def wait(self, handle: int) -> Generator:
        """Complete one outstanding request.

        Returns the :class:`Message` for a receive handle, ``None`` for
        a send handle.
        """
        req = self._wait_req
        req.handle = handle
        msg = yield req
        return msg

    def waitall(self, handles) -> Generator:
        """Complete several outstanding requests; returns their results
        (messages for receives, ``None`` for sends) in handle order."""
        out = []
        req = self._wait_req
        for handle in handles:
            req.handle = handle
            msg = yield req
            out.append(msg)
        return out

    def waitany(self, handles) -> Generator:
        """Complete exactly one of several outstanding requests.

        Returns ``(index, result)`` where ``index`` is the position in
        ``handles`` of the request that finished first (earliest known
        completion, ties by list order -- a deterministic refinement of
        ``MPI_Waitany``) and ``result`` is its message (``None`` for a
        send handle).  The remaining handles stay outstanding.
        """
        result = yield WaitanyReq(handles=tuple(handles))
        return result

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        nbytes: Optional[float] = None,
    ) -> Generator:
        """Combined shift operation (safe under eager sends)."""
        yield from self.send(payload, dest, sendtag, nbytes)
        msg = yield from self.recv(source, recvtag)
        return msg

    def compute(
        self,
        flops: Optional[float] = None,
        seconds: Optional[float] = None,
        efficiency: Optional[float] = None,
    ) -> Generator:
        """Charge local work to the rank's virtual clock."""
        validate_compute(flops, seconds)
        req = self._compute_req
        req.flops = flops
        req.seconds = seconds
        req.efficiency = efficiency
        yield req

    # -- collectives (delegated to repro.simmpi.collectives) -----------------

    def barrier(self) -> Generator:
        """Dissemination barrier: all ranks synchronise."""
        return _coll.barrier(self)

    def bcast(self, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
        """Broadcast ``value`` from ``root``; every rank returns it."""
        return _coll.bcast(self, value, root, algorithm)

    def reduce(
        self,
        value: Any,
        op: Union[str, Callable] = "sum",
        root: int = 0,
    ) -> Generator:
        """Combine values onto ``root`` (others return None)."""
        return _coll.reduce(self, value, op, root)

    def allreduce(
        self,
        value: Any,
        op: Union[str, Callable] = "sum",
        algorithm: str = "reduce_bcast",
    ) -> Generator:
        """Combine values; every rank returns the result."""
        return _coll.allreduce(self, value, op, algorithm)

    def gather(self, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
        """Collect one value per rank onto ``root`` as a rank-ordered list."""
        return _coll.gather(self, value, root, algorithm)

    def allgather(self, value: Any, algorithm: str = "ring") -> Generator:
        """Collect one value per rank onto every rank."""
        return _coll.allgather(self, value, algorithm)

    def scatter(
        self, values: Optional[Sequence[Any]], root: int = 0, algorithm: str = "tree"
    ) -> Generator:
        """Distribute ``values[i]`` from ``root`` to rank ``i``."""
        return _coll.scatter(self, values, root, algorithm)

    def alltoall(self, values: Sequence[Any], algorithm: str = "cyclic") -> Generator:
        """Personalised exchange: rank i's ``values[j]`` goes to rank j."""
        return _coll.alltoall(self, values, algorithm)

    def scan(self, value: Any, op: Union[str, Callable] = "sum") -> Generator:
        """Inclusive prefix reduction: rank r returns op(v_0 .. v_r)."""
        return _coll.scan(self, value, op)

    def reduce_scatter(
        self, values: Sequence[Any], op: Union[str, Callable] = "sum"
    ) -> Generator:
        """Reduce ``values[j]`` across ranks; rank j keeps element j."""
        return _coll.reduce_scatter(self, values, op)

    # -- stencil phases (delegated to repro.simmpi.stencil) ------------------

    def exchange(
        self, spec: "_stencil.StencilSpec", payloads: Sequence[Any]
    ) -> Generator:
        """Declared neighbor-exchange stencil phase: send
        ``payloads[j]`` toward ``spec.offsets[j]``, return the received
        payloads per offset (``None`` where an open-grid offset has no
        peer).  Collective in shape -- every rank calls it with the
        same spec -- and priced in closed form under engine macro-ops
        (see :mod:`repro.simmpi.stencil`)."""
        return _stencil.exchange(self, spec, payloads)


class CommTable:
    """Lazy per-rank :class:`Comm` materialization for one run.

    Bring-up registers only the table (O(1)); a rank's communicator is
    built the first time that rank is resumed.  Engine-level flags set
    before the run (tracing, macro-ops) are applied at materialization,
    so when a Comm is built never changes how it behaves.
    Under a macro certificate or a closed-form run, ranks that are never
    resumed never get a Comm (or an rng, or a generator frame) at all --
    their clocks and stats live in the columnar ``MachineState``.
    """

    __slots__ = ("size", "machine", "streams", "tracing", "macro", "_comms",
                 "materialized")

    def __init__(self, size: int, machine, streams):
        self.size = size
        self.machine = machine
        #: RankStreams source shared by every materialized Comm.
        self.streams = streams
        self.tracing = False
        self.macro = False
        self._comms: list = [None] * size
        #: How many ranks have materialized so far (observability).
        self.materialized = 0

    def __len__(self) -> int:
        return self.size

    def peek(self, rank: int) -> Optional[Comm]:
        """The rank's Comm if already materialized, else None."""
        return self._comms[rank]

    def __getitem__(self, rank: int) -> Comm:
        comm = self._comms[rank]
        if comm is None:
            comm = Comm(rank, self.size, self.machine, streams=self.streams)
            comm._tracing = self.tracing
            comm._macro = self.macro
            self._comms[rank] = comm
            self.materialized += 1
        return comm
