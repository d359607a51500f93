"""Primitive requests rank programs yield to the simulator engine.

A rank program is a generator.  It communicates by yielding request
objects; the engine interprets each request, advances virtual time, and
resumes the generator with the request's result (e.g. the received
message).  User code goes through the :class:`~repro.simmpi.comm.Comm`
facade rather than constructing these directly.

Semantics follow the NX/MPI eager-buffered model of the era's
machines: a send copies its payload, charges the sender the software
startup cost, and completes without waiting for the receiver -- the
message then arrives at the destination after the routed network delay.
This is why classic ring shifts written with blocking ``send`` do not
deadlock, exactly as on the real Delta for messages under the eager
threshold.

The request types are deliberately *plain slotted classes* rather than
dataclasses: requests and in-flight records are the single most
frequently allocated objects in the simulator, and ``__slots__`` plus a
hand-written ``__init__`` keeps both allocation and attribute access on
the engine's fast path cheap.  They are also mutable on purpose -- the
:class:`~repro.simmpi.comm.Comm` facade reuses one scratch instance per
request type per rank, refilled per call, because the engine always
consumes a request's fields before the yielding generator can run
again.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Optional

import numpy as np

from repro.util.errors import CommunicationError

#: Wildcard source rank for receives.
ANY_SOURCE = -1
#: Wildcard message tag for receives.
ANY_TAG = -1

#: Tags >= 0 are user tags; the collective library uses this negative
#: base so its internal traffic can never match a user receive.
COLLECTIVE_TAG_BASE = -1000


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload in bytes.

    NumPy arrays report their true buffer size; Python scalars count as
    one 8-byte word; ``bytes`` count their length; containers sum their
    elements plus a small per-element header.  ``None`` (a pure
    synchronisation token) is free.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) + 8 for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) + 16 for k, v in payload.items())
    # Conservative default for opaque objects.
    return 64


def copy_payload(payload: Any) -> Any:
    """Buffered-send copy: the sender may overwrite its buffer after the
    send returns, so the in-flight message must be independent."""
    if isinstance(payload, np.ndarray):  # by far the common case
        return payload.copy()
    if payload is None or isinstance(payload, (int, float, complex, bool, str, bytes)):
        return payload
    return copy.deepcopy(payload)


class SendReq:
    """Eager buffered send of ``payload`` to ``dest`` with ``tag``.

    ``nbytes`` overrides the modelled wire size in bytes; ``None``
    means measure the payload.
    """

    __slots__ = ("dest", "payload", "tag", "nbytes")

    def __init__(
        self,
        dest: int = 0,
        payload: Any = None,
        tag: int = 0,
        nbytes: Optional[float] = None,
    ):
        self.dest = dest
        self.payload = payload
        self.tag = tag
        self.nbytes = nbytes

    def wire_bytes(self) -> float:
        return payload_nbytes(self.payload) if self.nbytes is None else self.nbytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dest={self.dest}, payload={self.payload!r}, "
            f"tag={self.tag}, nbytes={self.nbytes})"
        )


class IsendReq(SendReq):
    """Non-blocking send: posts the transfer and returns a handle
    immediately.  Complete it with :class:`WaitReq` (which yields
    ``None`` for send handles).

    Under the eager protocol the payload is buffered at post time, so
    the handle is already complete when it is returned; the request
    exists for symmetry and for the rendezvous protocol, where the
    *sender does not block* on the handshake -- the transfer starts
    whenever the receiver posts, and only :class:`WaitReq` synchronises.
    This is exactly why ``MPI_Isend`` breaks the symmetric
    blocking-send deadlock above the eager threshold.
    """

    __slots__ = ()


class RecvReq:
    """Blocking receive matching ``source`` and ``tag`` (wildcards allowed)."""

    __slots__ = ("source", "tag")

    def __init__(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self.source = source
        self.tag = tag

    def __repr__(self) -> str:
        return f"{type(self).__name__}(source={self.source}, tag={self.tag})"


class IrecvReq(RecvReq):
    """Non-blocking receive: posts a matching slot and returns a handle
    immediately.  Complete it with :class:`WaitReq`."""

    __slots__ = ()


class WaitReq:
    """Block until the request identified by ``handle`` completes.

    Resumes with the delivered :class:`Message` for receive handles and
    with ``None`` for send handles.
    """

    __slots__ = ("handle",)

    def __init__(self, handle: int):
        self.handle = handle

    def __repr__(self) -> str:
        return f"WaitReq(handle={self.handle})"


class WaitanyReq:
    """Block until *any* of ``handles`` completes; resumes with
    ``(index, message_or_None)`` where ``index`` is the position in
    ``handles`` of the completed request.

    When several requests are already completable, the one with the
    earliest completion time wins (ties broken by list position) -- a
    deterministic refinement of MPI's ``MPI_Waitany``, in the same
    spirit as the engine's ``ANY_SOURCE`` resolution.
    """

    __slots__ = ("handles",)

    def __init__(self, handles: tuple):
        if not handles:
            raise CommunicationError("waitany needs at least one handle")
        self.handles = handles

    def __repr__(self) -> str:
        return f"WaitanyReq(handles={self.handles})"


class CollectiveReq:
    """One rank's entry into a macro-evaluated collective.

    Yielded by the collective library's dispatch layer when the engine
    enabled macro-ops (untraced, plain alpha-beta delivery, no fault
    injection): instead of running the per-message algorithm, every
    member parks on this request and the engine hands the whole
    invocation to :mod:`repro.simmpi.macro`, which computes the same
    schedule in closed form.  The engine matches invocations across
    ranks by ``(members, seq, kind, algorithm, root)`` -- ``seq`` is the
    communicator's collective sequence number, so back-to-back
    collectives can never merge (the macro analogue of the tag-block
    sense reversal).

    Unlike the point-to-point requests this is *not* a reused scratch
    object: the engine holds it until all members arrive, so each
    invocation allocates a fresh one (collectives are rare relative to
    the messages they replace).
    """

    __slots__ = (
        "members", "seq", "kind", "algorithm", "root", "op", "value",
        "grank", "size",
    )

    def __init__(
        self,
        members: Optional[tuple],
        seq: int,
        kind: str,
        algorithm: Any,
        root: int,
        op: Any,
        value: Any,
        grank: int,
        size: int,
    ):
        #: Global ranks by group rank, or None for the world communicator.
        self.members = members
        self.seq = seq
        self.kind = kind
        #: Algorithm name for collectives; the declared
        #: :class:`~repro.simmpi.stencil.StencilSpec` for exchange phases.
        self.algorithm = algorithm
        self.root = root
        #: Resolved combiner for reductions (None otherwise).
        self.op = op
        self.value = value
        #: This rank's position within the group.
        self.grank = grank
        self.size = size

    def __repr__(self) -> str:
        return (
            f"CollectiveReq(kind={self.kind}, algorithm={self.algorithm}, "
            f"seq={self.seq}, grank={self.grank}, size={self.size})"
        )


class _MacroFallback:
    """Resume sentinel: the macro evaluator declined this invocation
    (rendezvous cycle, non-empty queues, unsupported shape); the
    yielding wrapper must re-run the real message algorithm inline."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MACRO_FALLBACK"


#: Singleton handed back through CollectiveReq when the engine wants the
#: event-path algorithm after all.
MACRO_FALLBACK = _MacroFallback()


class ComputeReq:
    """Charge local computation to the rank's clock.

    Exactly one of ``flops`` or ``seconds`` must be set.  ``efficiency``
    overrides the node's sustained fraction for flops-based charging.
    """

    __slots__ = ("flops", "seconds", "efficiency")

    def __init__(
        self,
        flops: Optional[float] = None,
        seconds: Optional[float] = None,
        efficiency: Optional[float] = None,
    ):
        validate_compute(flops, seconds)
        self.flops = flops
        self.seconds = seconds
        self.efficiency = efficiency

    def __repr__(self) -> str:
        return (
            f"ComputeReq(flops={self.flops}, seconds={self.seconds}, "
            f"efficiency={self.efficiency})"
        )


def validate_compute(flops: Optional[float], seconds: Optional[float]) -> None:
    """Shared argument check for compute charging (used both by
    :class:`ComputeReq` and by the scratch-reusing ``Comm.compute``)."""
    if (flops is None) == (seconds is None):
        raise CommunicationError(
            "ComputeReq needs exactly one of flops= or seconds="
        )
    value = flops if flops is not None else seconds
    if not 0 <= value < math.inf:
        raise CommunicationError(
            f"compute amount must be finite and >= 0, got {value}"
        )


class Message:
    """A delivered message, returned to the receiving rank.

    ``arrival_time`` is the virtual time the message became available
    at the destination.
    """

    __slots__ = ("payload", "source", "tag", "arrival_time")

    def __init__(self, payload: Any, source: int, tag: int, arrival_time: float = 0.0):
        self.payload = payload
        self.source = source
        self.tag = tag
        self.arrival_time = arrival_time

    def __repr__(self) -> str:
        return (
            f"Message(payload={self.payload!r}, source={self.source}, "
            f"tag={self.tag}, arrival_time={self.arrival_time})"
        )


class InFlight:
    """Engine-internal record of a posted, not-yet-consumed message.

    ``send_time`` is the virtual time the sender issued the send (for
    rendezvous this is the post time, not the handshake); it is
    threaded into trace records.  ``wire`` is the causal wire edge for
    span tracing (set only when tracing): what preceded this message's
    transfer and when its wire began.
    """

    __slots__ = (
        "dest", "source", "tag", "payload", "nbytes",
        "arrival_time", "seq", "send_time", "wire",
    )

    def __init__(
        self,
        dest: int,
        source: int,
        tag: int,
        payload: Any,
        nbytes: float,
        arrival_time: float,
        seq: int = 0,
        send_time: float = 0.0,
        wire: Any = None,
    ):
        self.dest = dest
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.arrival_time = arrival_time
        self.seq = seq
        self.send_time = send_time
        self.wire = wire

    def matches(self, req: RecvReq) -> bool:
        if req.source != ANY_SOURCE and req.source != self.source:
            return False
        if req.tag != ANY_TAG and req.tag != self.tag:
            return False
        return True
